"""Planted defects: each must turn its suite's verdict into a failing record.

A defect is patched at every binding of the function it replaces, since the
modules import names such as `cmz_coeff` by name and a patch on the defining
module alone would miss those call sites; a static method is patched on its
class.  Each case pins the number of modules that bind its function, so a
new call site that imports it is counted.  Each case runs `verify <suite>
--json` and asserts exit 1, exactly the named records failing and nothing on
stderr.
"""

import json
import math
from fractions import Fraction

import pytest
from oracles import (
    _lowest_weight_tensor_times_n_factorial,
    _patch_every_binding,
    _pochhammer_doubled_at_five,
    _shimura_X_y_term_off_by_one,
)

from rclab import coeffsolve, exactcore, forms, nearlyholo, rep, starprod, uniq
from rclab.cli import main
from rclab.coeffsolve import ATable
from rclab.exactcore import MPoly, QSeries
from rclab.forms import ModularForm


_cmz = starprod.cmz_coeff
_bracket_coeffs = nearlyholo.bracket_coeffs
_a2_t = coeffsolve.a2_t
_ident_coefficients = starprod.ident_coefficients
_ramanujan_X = nearlyholo.ramanujan_X
_delta = forms.delta
_casimir_eigenvalue = rep.casimir_eigenvalue
_lowest_weight_tensor = rep.lowest_weight_tensor
_bracket_term = uniq._bracket_term


def _cmz_scaled_at_four(kappa, k, l, n):
    value = _cmz(kappa, k, l, n)
    return 2 * value if n == 4 else value


def _cmz_shifted_at_two(kappa, k, l, n):
    # n = 2 is the first order with a j = 1 term in the cmz sum
    value = _cmz(kappa, k, l, n)
    return value + Fraction(1, 64) if n == 2 else value


def _bracket_coeffs_doubled_at_two(n, x, y):
    # the r = 2 entry doubled: the n = 3 lowest-q residual, and so p3_build, is then not divisible by 4 l (r + t)
    return [2 * c if r == 2 else c for r, c in enumerate(_bracket_coeffs(n, x, y))]


# the level-2 family's defects are planted in its t-rule a2_t, which both a2_family_assoc and
# the chain's level 2 read
def _a2_t_wrong_c_term(c):
    # the c-term of t_2 over (x+1)(y+1)(x+y+2) instead of (x+1)(y+1)(x+y+1): A_2 then has
    # c x y / (x+y+2) in place of c x y / (x+y+1), which is not a kernel direction
    c = Fraction(c)
    return lambda x, y: 1 + c / ((x + 1) * (y + 1) * (x + y + 2))


def _a2_t_c_plus_c_squared(c):
    # the family at c + c^2: every member is still a level-2 solution, so only
    # the degree in c changes (to 2, 2, 4 at levels 2, 3, 4)
    c = Fraction(c)
    return _a2_t(c + c * c)


def _ident_left1_doubled_from_three(n, p, x, y, z):
    # the r = 1 coefficient L_1 of the left bracketing, doubled wherever it exists at n >= 3
    left, right = _ident_coefficients(n, p, x, y, z)
    if n >= 3 and len(left) > 1:
        left = [left[0], 2 * left[1], *left[2:]]
    return left, right


def _ramanujan_X_off_by_f_from_ten(f):
    # X f + f/2 once the chain reaches weight 10: f_r is then not modular, for either phi
    out = _ramanujan_X(f)
    return ModularForm(out.weight, out.series + f.series.scale(Fraction(1, 2))) if f.weight >= 10 else out


def _delta_wrong_at_q3(prec):
    # tau(3) = 252 read as 253: only the discriminant relation compares Delta's coefficients
    out = _delta(prec)
    return ModularForm(12, out.series + QSeries.from_numerators([int(i == 3) for i in range(prec)]))


def _casimir_eigenvalue_off_by_one(w):
    return _casimir_eigenvalue(w) + 1


def _lowest_weight_tensor_r1_doubled(x, y, n):
    # the r = 1 term doubled from n = 2 on: no longer a lowest-weight vector
    v = _lowest_weight_tensor(x, y, n).as_dict()
    if n >= 2:
        v[(1, n - 1)] *= 2
    return rep.Vector.make((x, y), v)


def _bracket_term_weighted_c_plus_d(f, g, n, table):
    # each monomial pair [m_f, m_g]_n weighted by c + d instead of c d, that is
    # [f, 1_g]_n + [1_f, g]_n with 1_p the sum of p's monomials: no longer bilinear
    def ones(p):
        return MPoly(p.vars, dict.fromkeys(p.terms, 1))

    return _bracket_term(f, ones(g), n, table) + _bracket_term(ones(f), g, n, table)


def _xi_vectors_pair_weight_minus_two(f, g, h, n_max):
    # rep.xi_vectors with X^s w_nu divided by (B - 2)_s, B = x + y + 2 nu the weight of w_nu: the
    # raise keeps the weight w_nu carries, so xi_(n,p) is lowest-weight only for p = 0.  (A tag
    # of B - 2 on w_nu itself is no defect: lowering and raising read the tag, and the kernel
    # identity holds for any tag.)
    fs, gs, hs = (nearlyholo.dtil_chain(form, n_max) for form in (f, g, h))
    ws = []
    for nu in range(n_max + 1):
        w = rep.realize_and_multiply(rep.lowest_weight_tensor(f.weight, g.weight, nu), fs, gs)
        chain = nearlyholo.raising_chain(w.scale((-1) ** nu * math.factorial(nu)), n_max - nu)
        ws.append([xs.scale(1 / exactcore.pochhammer(w.weight - 2, s)) for s, xs in enumerate(chain)])
    return {(n, p): rep.realize_and_multiply(rep.lowest_weight_tensor(ws[n - p][0].weight, h.weight, p),
                                             ws[n - p], hs).scale(math.factorial(p))
            for n in range(n_max + 1) for p in range(n + 1)}


def _act_lower_doubled_from_two(v):
    # phi_n -> -2n phi_(n-1) for n >= 2: the kernel dimensions are kept, the preimage formula fails
    return rep._slotwise(v, -1, lambda w, n: -n if n < 2 else -2 * n)


DEFECTS = [
    pytest.param(
        starprod.cmz_coeff, _cmz_scaled_at_four, "ident",
        ["ident/kappa-1over2", "ident/kappa-3over2", "ident/kappa-2", "ident/kappa-5over2"], 1,
        id="cmz_coeff-scaled-at-n4",
    ),
    pytest.param(
        starprod.cmz_coeff, _cmz_shifted_at_two, "kappa-c",
        ["kappa-c/1over2/fit", "kappa-c/3over2/fit", "kappa-c/2/fit", "kappa-c/5over2/fit"], 1,
        id="cmz_coeff-shifted-at-n2",
    ),
    pytest.param(
        exactcore.pochhammer, _pochhammer_doubled_at_five, "fine", ["fine/det2x2-closed-form-negative"], 6,
        id="pochhammer-doubled-at-n5",
    ),
    pytest.param(
        nearlyholo.bracket_coeffs, _bracket_coeffs_doubled_at_two, "p3",
        ["p3/reference-diff-within-recorded-damage", "p3/spot-coefficients", "p3/substituted-all-positive"], 2,
        id="binom-doubled-at-j2",
    ),
    pytest.param(
        coeffsolve.a2_t, _a2_t_wrong_c_term, "solve-unique", ["solve/degree-in-c"], 1,
        id="a2_family_assoc-wrong-c-term",
    ),
    pytest.param(
        coeffsolve.a2_t, _a2_t_c_plus_c_squared, "solve-unique", ["solve/degree-in-c"], 1,
        id="a2_family_assoc-c-plus-c-squared",
    ),
    pytest.param(
        starprod.ident_coefficients, _ident_left1_doubled_from_three, "solve-unique",
        ["solve/level3-unique", "solve/level4-unique", "solve/level5-unique", "solve/degree-in-c"], 2,
        id="ident_coefficients-left1-doubled-from-n3",
    ),
    pytest.param(
        nearlyholo.ramanujan_X, _ramanujan_X_off_by_f_from_ten, "canonical",
        ["canonical/corrected-element/E4-E6", "canonical/corrected-element/E4-Delta",
         "canonical/corrected-element/E6-Delta"], 1,
        id="ramanujan_X-off-by-f-from-weight10",
    ),
    pytest.param(
        nearlyholo.shimura_X, _shimura_X_y_term_off_by_one, "der", ["der/E4", "der/E6", "der/Delta"], 1,
        id="shimura_X-y-term-off-by-one",
    ),
    pytest.param(
        nearlyholo.shimura_X, _shimura_X_y_term_off_by_one, "combi",
        ["combi/holomorphic-and-equal/E4-E6", "combi/holomorphic-and-equal/E4-Delta"], 1,
        id="shimura_X-y-term-off-by-one-combi",
    ),
    pytest.param(
        forms.delta, _delta_wrong_at_q3, "forms", ["forms/discriminant-relation"], 1,
        id="delta-wrong-at-q3",
    ),
    pytest.param(
        rep.casimir_eigenvalue, _casimir_eigenvalue_off_by_one, "casimir",
        ["casimir/weight-2", "casimir/weight-4", "casimir/weight-6", "casimir/weight-12"], 1,
        id="casimir_eigenvalue-off-by-one",
    ),
    pytest.param(
        rep.lowest_weight_tensor, _lowest_weight_tensor_times_n_factorial, "propasso",
        ["propasso/realization-E4-E6"], 1,
        id="lowest_weight_tensor-times-n-factorial",
    ),
    pytest.param(
        rep.lowest_weight_tensor, _lowest_weight_tensor_r1_doubled, "propasso",
        ["propasso/tensor-kernel", "propasso/realization-E4-E6"], 1,
        id="lowest_weight_tensor-r1-doubled-from-n2",
    ),
    pytest.param(
        rep.act_lower, _act_lower_doubled_from_two, "triple", ["triple/preimage-formula"], 1,
        id="act_lower-doubled-from-index2",
    ),
    pytest.param(
        rep.xi_vectors, _xi_vectors_pair_weight_minus_two, "triple",
        ["triple/xi-kernel/E4-E4-E6", "triple/xi-kernel/E4-E6-Delta"], 1,
        id="xi_vectors-pair-weight-minus-two",
    ),
]


@pytest.mark.parametrize("original,replacement,suite,failing,bindings", DEFECTS)
def test_planted_defect_fails_its_suite(capsys, monkeypatch, original, replacement, suite, failing, bindings):
    assert _patch_every_binding(monkeypatch, original, replacement) == bindings
    code = main(["verify", suite, "--json"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    statuses = {c["name"]: c["status"] for c in json.loads(captured.out)["checks"]}
    assert {name for name, status in statuses.items() if status != "pass"} == set(failing), statuses


def test_uniqueness_fails_when_the_bracket_terms_are_not_bilinear(capsys, monkeypatch):
    # _bracket_term is private to uniq, so its one binding is every binding
    assert _patch_every_binding(monkeypatch, uniq._bracket_term, _bracket_term_weighted_c_plus_d) == 1
    code = main(["verify", "uniqueness", "--json"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    (rec,) = json.loads(captured.out)["checks"]
    assert rec["name"] == "uniqueness/no-counterexamples" and rec["status"] == "fail"
    # no pair it finds equal is a counterexample: only the 57 rescalings it loses show the defect
    assert (rec["equal_pairs"], rec["recovered_constants"], rec["counterexamples"]) == (10, 10, 0)


def test_fine_failure_names_the_first_disagreeing_point(capsys, monkeypatch):
    _patch_every_binding(monkeypatch, exactcore.pochhammer, _pochhammer_doubled_at_five)
    assert main(["verify", "fine", "--json"]) == 1
    (rec,) = [c for c in json.loads(capsys.readouterr().out)["checks"] if c["status"] == "fail"]
    assert rec["witness"] == {
        "n": 6, "k": 1, "l": 1, "m": 1, "reason": "closed form disagrees with the direct determinant",
    }


@pytest.mark.parametrize(
    "original,replacement,suite,witnesses",
    [
        pytest.param(
            nearlyholo.shimura_X, _shimura_X_y_term_off_by_one, "combi",
            {"combi/holomorphic-and-equal/E4-E6": {"n": 2}, "combi/holomorphic-and-equal/E4-Delta": {"n": 2}},
            id="combi",
        ),
        pytest.param(
            nearlyholo.shimura_X, _shimura_X_y_term_off_by_one, "der",
            {"der/E4": {"m": 2}, "der/E6": {"m": 2}, "der/Delta": {"m": 2}},
            id="der",
        ),
        pytest.param(
            nearlyholo.ramanujan_X, _ramanujan_X_off_by_f_from_ten, "canonical",
            {"canonical/corrected-element/E4-E6": [[3, 0, "35/12"]],
             "canonical/corrected-element/E4-Delta": [[1, 1, "2"]],
             "canonical/corrected-element/E6-Delta": [[1, 1, "3"]]},
            id="canonical",
        ),
        pytest.param(
            rep.act_lower, _act_lower_doubled_from_two, "triple", {"triple/preimage-formula": {"target": [0, 0, 1]}},
            id="triple",
        ),
        pytest.param(
            rep.lowest_weight_tensor, _lowest_weight_tensor_times_n_factorial, "propasso",
            {"propasso/realization-E4-E6": {"n": 3}},
            id="lowest_weight_tensor-times-n-factorial",
        ),
        pytest.param(
            rep.xi_vectors, _xi_vectors_pair_weight_minus_two, "triple",
            {"triple/xi-kernel/E4-E4-E6": {"n": 1, "p": 1}, "triple/xi-kernel/E4-E6-Delta": {"n": 1, "p": 1}},
            id="xi_vectors-pair-weight-minus-two",
        ),
    ],
)
def test_a_failing_record_names_its_first_witness(capsys, monkeypatch, original, replacement, suite, witnesses):
    # X^2 is the first wrong raise, so combi fails first at n = 2 and der at m = 2; the first
    # Zagier chain term raised from weight 10 or more is E6's f_3 (n = 3) and Delta's f_1
    # (n = 1); the first target whose preimage has an index 2 is (0, 0, 1); the realization
    # without the 1/n! first differs at n = 3: 0! = 1! = 1, and [E4, E6]_2 is a cusp form of
    # weight 14, so zero, and so is twice it; a pair weight off by 2 first divides a raise of
    # w_nu at (n, p) = (1, 1)
    _patch_every_binding(monkeypatch, original, replacement)
    assert main(["verify", suite, "--json"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert {c["name"]: c["witness"] for c in checks if c["status"] == "fail"} == witnesses


def test_p3_failure_names_the_first_remainder_term(capsys, monkeypatch):
    _patch_every_binding(monkeypatch, nearlyholo.bracket_coeffs, _bracket_coeffs_doubled_at_two)
    assert main(["verify", "p3", "--json"]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    rec = checks["p3/reference-diff-within-recorded-damage"]
    assert rec["status"] == "fail" and rec["inner_diff"] is None
    assert rec["witness"] == {"monomial": "k^4*l^2*t^3", "coefficient": "-24"}
    # the records that do not need the quotient are still evaluated, with their own witnesses
    assert checks["p3/spot-coefficients"]["k5_l"] == "72"
    assert checks["p3/substituted-all-positive"]["witness"] == "((3, 6, 2), Fraction(-960, 1))"


def test_kappa_c_failure_names_the_first_inconsistent_grid_point(capsys, monkeypatch):
    _patch_every_binding(monkeypatch, starprod.cmz_coeff, _cmz_shifted_at_two)
    assert main(["verify", "kappa-c", "--json"]) == 1
    witnesses = {
        c["name"]: c["witness"] for c in json.loads(capsys.readouterr().out)["checks"] if c["status"] == "fail"
    }
    # the first fit is at (x, y) = (2, 2); (2, 4) is the next point in loop order
    assert witnesses == {
        "kappa-c/1over2/fit": {"x": 2, "y": 4, "c": "105/4", "c_first": "45/4"},
        "kappa-c/3over2/fit": {"x": 2, "y": 4, "c": "105/4", "c_first": "45/4"},
        "kappa-c/2/fit": {"x": 2, "y": 4, "c": "117/4", "c_first": "57/4"},
        "kappa-c/5over2/fit": {"x": 2, "y": 4, "c": "137/4", "c_first": "77/4"},
    }


def test_solve_unique_failures_name_the_contradictory_row(capsys, monkeypatch):
    _patch_every_binding(monkeypatch, starprod.ident_coefficients, _ident_left1_doubled_from_three)
    assert main(["verify", "solve-unique", "--json"]) == 1
    witnesses = {
        c["name"]: c["witness"] for c in json.loads(capsys.readouterr().out)["checks"] if c["status"] == "fail"
    }
    # rows run over k, l, m, p with p innermost: row 3 is (1, 1, 1, 3)
    assert witnesses == {
        **{f"solve/level{n}-unique": {"level": n, "certificate_row": 3, "k": 1, "l": 1, "m": 1, "p": 3}
           for n in (3, 4, 5)},
        "solve/degree-in-c": "level-3 system inconsistent (row 3)",
    }


def test_assoc_fails_for_the_quoted_level_two_family(capsys, monkeypatch):
    # the quoted A_2 at c = 0 is half of (x)_2 (y)_2; every other level is the
    # constant-coefficient one, so the product is associative only below hbar^2
    quoted = ATable(0, 0, filler=lambda n, x, y: Fraction(1, 2) if n == 2 else 1)
    monkeypatch.setattr(starprod.StarCoefficients, "eholzer",
                        staticmethod(lambda: starprod.StarCoefficients(quoted.get)))
    code = main(["verify", "assoc", "--json"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    statuses = {c["name"]: c["status"] for c in json.loads(captured.out)["checks"]}
    assert {name for name, status in statuses.items() if status != "pass"} == {
        "assoc/eholzer/E4-E4-E6", "assoc/eholzer/E4-E6-Delta", "assoc/eholzer-free-model",
    }, statuses
