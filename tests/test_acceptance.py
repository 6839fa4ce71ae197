"""Acceptance suite: one test per criterion, every tolerance exact (zero residual).

Each test prints one `ACCEPTANCE nn <label>: PASS/FAIL` line (run with -s to
stream them).  A criterion that an `rc-lab verify` suite covers runs that suite
at the criterion's parameters and reads its records by name, so the CLI and
this file share one definition of each check; the test body keeps only what no
suite covers.  Two criteria assert constants whose quoted values are provably
inconsistent with the rest of the contract; they are implemented verbatim and
marked strict-xfail, with companion tests pinning the corrected constants and
the exact discrepancy witnesses.  See notes on the sign of the canonical
weight-4 element (criterion 1) and the kappa -> c constant (criterion 10).
"""

import time
from dataclasses import asdict
from fractions import Fraction as F

import pytest

from rclab.cli import RunConfig, run_verify
from rclab.coeffsolve import degree_in_c
from rclab.exactcore import pochhammer
from rclab.forms import GradedForm, delta, eisenstein_form, phi_zagier
from rclab.nearlyholo import canonical_rc, combi_brackets, dtil_chain, rc_bracket
from rclab.rep import act_lower, casimir_eigenvalue, lowest_weight_tensor, realize_and_multiply
from rclab.uniq import rc_uniqueness_check

KAPPA_SAMPLES = ("1/2", "3/2", "2", "5/2")


def _report(num, label, ok):
    print(f"ACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'}")
    return ok


def _cat(prec):
    return {
        "E4": eisenstein_form(4, prec),
        "E6": eisenstein_form(6, prec),
        "Delta": delta(prec),
    }


PAIRS = (("E4", "E6"), ("E4", "Delta"), ("E6", "Delta"))


def _run(suite, cfg=None, **params):
    """The records of one `rc-lab verify` suite, by name, checked and routed as the CLI does.

    A cfg field at its default is left out, as an absent flag is; any other
    field, like every keyword, must be taken by the suite or the run raises.
    """
    given = {k: v for k, v in asdict(cfg or RunConfig()).items() if v != getattr(RunConfig, k)}
    records = {c["name"]: c for c in run_verify(suite, {**given, **params}).checks}
    # a suite that raised is no verdict: not an AssertionError, which a strict xfail would accept
    if error := records.get(f"{suite}/error"):
        raise RuntimeError(f"{error['exception']}: {error['message']}")
    return records


def _all_pass(records, names):
    """Whether every named record passes; a missing one raises, so none passes unchecked."""
    missing = set(names) - set(records)
    if missing:
        raise LookupError(f"the suite emitted no record {sorted(missing)}")
    return all(records[n]["status"] == "pass" for n in names)


def _tag(kappa):
    return kappa.replace("/", "over")


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the quoted weight-4 element +E4/144 misses the degree-2 identity by "
    "kl(k+l+1)/18 * E4 f g; the identity holds with -E4/144 (see companion test)",
)
def test_criterion_01_canonical_identity_as_quoted():
    t0 = time.time()
    recs = _run("canonical", RunConfig(prec=30), n_max=6, phi_sign="plus")
    ok = _all_pass(recs, [f"canonical/quoted-element/{a}-{b}" for a, b in PAIRS])
    elapsed = time.time() - t0
    ok = ok and elapsed < 10
    assert _report(1, "canonical bracket identity (quoted element)", ok)


def test_criterion_01_canonical_identity_corrected_element():
    t0 = time.time()
    recs = _run("canonical", RunConfig(prec=30), n_max=6, phi_sign="minus")
    ok = _all_pass(recs, [f"canonical/corrected-element/{a}-{b}" for a, b in PAIRS])
    elapsed = time.time() - t0
    ok = ok and elapsed < 10
    # exact witness for the quoted sign at the first failing degree
    prec = 30
    cat = _cat(prec)
    e4, e6 = cat["E4"], cat["E6"]
    diff = canonical_rc(e4, e6, 2, phi_zagier(prec)).series - rc_bracket(e4, e6, 2).series
    ok = ok and diff == (e4.series * e4.series * e6.series).scale(2)
    assert _report(1, "canonical bracket identity (corrected element)", ok)


def test_criterion_02_raising_operator_bracket_form():
    prec = 25
    cat = _cat(prec)
    ok = True
    for a, b in PAIRS:
        brackets = combi_brackets(cat[a], cat[b], 5)
        ok = ok and len(brackets) == 6
        for n, out in enumerate(brackets):
            ok = ok and out.is_holomorphic() and out.ypoly[0] == rc_bracket(cat[a], cat[b], n).series
    assert _report(2, "raising-operator bracket form, n <= 5", ok)


def test_criterion_03_derivative_expansion():
    recs = _run("der", RunConfig(prec=25), n_max=5)
    ok = _all_pass(recs, ["der/E4", "der/E6", "der/Delta"])
    assert _report(3, "derivative expansion identity, m <= 5", ok)


def test_criterion_04_casimir_scalar():
    weights = (2, 4, 6, 12)
    recs = _run("casimir")
    names = [f"casimir/weight-{w}" for w in weights]
    ok = _all_pass(recs, names) and all(recs[n]["params"]["n_max"] == 10 for n in names)
    ok = ok and all(casimir_eigenvalue(w) == 4 * (w // 2) * (w // 2 - 1) for w in weights)
    assert _report(4, "casimir scalar 4k(k-1), n <= 10", ok)


def test_criterion_05_lowest_weight_vectors_and_realization():
    ok = all(
        act_lower(lowest_weight_tensor(x, y, n)).is_zero()
        for n in range(9)
        for x in (2, 4, 6, 8)
        for y in (2, 6, 12)
    )
    prec = 20
    e4 = eisenstein_form(4, prec)
    e6 = eisenstein_form(6, prec)
    fs, gs = dtil_chain(e4, 4), dtil_chain(e6, 4)
    for n in range(5):
        got = realize_and_multiply(lowest_weight_tensor(4, 6, n), fs, gs)
        want = rc_bracket(e4, e6, n).series.scale(1 / (pochhammer(4, n) * pochhammer(6, n)))
        ok = ok and got.is_holomorphic() and got.ypoly[0] == want
    assert _report(5, "lowest-weight vectors and bracket realization", ok)


def test_criterion_06_triple_space_dimensions_and_xi():
    recs = _run("triple", RunConfig(prec=15))
    params = {
        "triple/kernel-dimensions": {"n_max": 8},
        "triple/preimage-formula": {"n_max": 5},
        "triple/xi-kernel/E4-E4-E6": {"n_max": 3, "prec": 15},
        "triple/xi-kernel/E4-E6-Delta": {"n_max": 3, "prec": 15},
    }
    ok = _all_pass(recs, params) and all(recs[n]["params"] == p for n, p in params.items())
    assert _report(6, "triple-space dimensions and concrete kernel vectors", ok)


def test_criterion_07_coefficient_identities_for_classical_family():
    t0 = time.time()
    recs = _run("ident", RunConfig(grid_bound=4, kappa_samples=KAPPA_SAMPLES), n_max=5)
    names = [f"ident/kappa-{_tag(k)}" for k in KAPPA_SAMPLES]
    ok = _all_pass(recs, names)
    # every p <= n <= 5 and k, l, m in 1..4: 21 * 4^3 residuals per kappa
    ok = ok and all(recs[n]["checked"] == 1344 for n in names)
    elapsed = time.time() - t0
    ok = ok and elapsed < 60
    assert _report(7, "coefficient identities for the classical family, n <= 5", ok)


def test_criterion_08_constant_coefficient_associativity():
    recs = _run("assoc", RunConfig(prec=20, hbar_order=4))
    ok = _all_pass(recs, [
        "assoc/eholzer/E4-E4-E6",
        "assoc/eholzer/E4-E6-Delta",
        "assoc/eholzer-free-model",
    ])
    assert _report(8, "constant-coefficient product associative to order 4", ok)


def test_criterion_09_uniqueness_of_coefficients():
    recs = _run("solve-unique", grid=6)
    names = [
        "solve/level2-nullity-and-kernel",
        "solve/level3-unique",
        "solve/level4-unique",
        "solve/level5-unique",
    ]
    ok = _all_pass(recs, names) and [recs[n]["nullity"] for n in names] == [1, 0, 0, 0]
    degrees = [degree_in_c(n, (4, 4), list(range(n + 1))) for n in (2, 3, 4)]
    ok = ok and degrees == [1, 1, 2]
    assert _report(9, "global solve nullities 1/0/0/0 and degree in c", ok)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the quoted constant -3+4k-k^2 is asymmetric under kappa -> 2-kappa "
    "while the coefficient family is symmetric; the induced kernel coordinate "
    "is 4k^2-8k+3 (see companion test)",
)
def test_criterion_10_kappa_c_correspondence_as_quoted():
    recs = _run("kappa-c", RunConfig(grid_bound=4, kappa_samples=KAPPA_SAMPLES), printed=True)
    ok = _all_pass(recs, [f"kappa-c/{_tag(k)}/quoted-constant" for k in KAPPA_SAMPLES])
    assert _report(10, "kappa -> c correspondence (quoted constant)", ok)


def test_criterion_10_kappa_c_correspondence_induced():
    kappas = KAPPA_SAMPLES + ("1", "3", "7/3")
    recs = _run("kappa-c", RunConfig(grid_bound=4, kappa_samples=kappas))
    ok = _all_pass(recs, [f"kappa-c/{_tag(k)}/fit" for k in kappas])
    assert _report(10, "kappa -> c correspondence (induced constant 4k^2-8k+3)", ok)


def test_criterion_11_determinant_certificates():
    # the det2x2 record fails unless det2x2_lemma equals det2x2_direct and is negative at every point
    recs = _run("fine", grid=5, n_max=6)
    ok = _all_pass(recs, [
        "fine/det2x2-closed-form-negative",
        "fine/det3-negative",
        "fine/det3-l2-divisible",
        "fine/shift-residual-nonconstant-middle",
    ])
    assert _report(11, "determinant certificates negative", ok)


def test_criterion_12_positivity_certificate():
    recs = _run("p3")
    ok = _all_pass(recs, [
        "p3/substituted-all-positive",
        "p3/spot-coefficients",
        "p3/reference-diff-within-recorded-damage",
    ])
    assert _report(12, "substituted cubic has all-positive coefficients", ok)


def test_criterion_13_factorization_uniqueness():
    t0 = time.time()
    prec = 15
    e4 = eisenstein_form(4, prec)
    e6 = eisenstein_form(6, prec)
    f1 = GradedForm.from_form(e4) + GradedForm.from_form(e6)
    g1 = GradedForm.from_form(e6)
    res = rc_uniqueness_check(f1, g1, f1.scale(F(2, 7)), g1.scale(F(7, 2)), 3, prec)
    ok = res["proportional"] and res["C"] == F(7, 2)
    recs = _run("uniqueness", RunConfig(prec=prec, seed=0), seeds=1000, order=3)
    ok = _all_pass(recs, ["uniqueness/no-counterexamples"]) and ok
    ok = ok and recs["uniqueness/no-counterexamples"]["equal_pairs"] == 334
    elapsed = time.time() - t0
    ok = ok and elapsed < 120
    assert _report(13, "factorization uniqueness, 1000 seeded instances", ok)
