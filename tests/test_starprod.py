import itertools
import math
import random
from fractions import Fraction
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import ref_binom, ref_normalization, ref_pochhammer

from rclab.coeffsolve import ATable, a2_t
from rclab.exactcore import QSeries, Rat, binom, pochhammer, rat
from rclab.forms import GradedForm, ModularForm
from rclab.nearlyholo import rc_bracket
from rclab.rep import Vector
from rclab.starprod import (
    HbarSeries,
    PoleError,
    StarCoefficients,
    _free_bracketing,
    assoc_residual,
    cmz_coeff,
    cmz_t,
    free_assoc_residual,
    ident_coefficients,
    ident_residual,
    rc_series,
    star_product,
)


def test_cmz_low_order_values():
    for kappa in (F(1, 2), F(3, 2), 1, 2, F(7, 3)):
        for k, l in ((1, 1), (2, 3), (5, 2)):
            assert cmz_coeff(kappa, k, l, 0) == 1
            assert cmz_coeff(kappa, k, l, 1) == F(-1, 4)
    assert cmz_coeff(F(1, 2), 1, 1, 2) == F(1, 16)
    assert cmz_coeff(2, 1, 1, 2) == F(1, 15)


def test_cmz_eholzer_reduction():
    # the kappa = 1/2 and 3/2 families collapse to constant coefficients
    for kappa in (F(1, 2), F(3, 2)):
        for n in range(7):
            for k in range(1, 7):
                for l in range(1, 7):
                    assert F(-4) ** n * cmz_coeff(kappa, k, l, n) == 1


def test_cmz_pole_error():
    with pytest.raises(PoleError):
        cmz_coeff(1, F(-1, 2), 1, 2)


def reference_cmz_coeff(kappa, k, l, n):
    # the per-term Fraction sum that cmz_coeff used before its int kernel
    kappa, k, l = rat(kappa), rat(k), rat(l)
    if n < 0:
        raise ValueError("n must be >= 0")
    total = Fraction(0)
    for j in range(n // 2 + 1):
        top = binom(n, 2 * j)
        if top == 0:
            continue
        num = binom(Fraction(-1, 2), j) * binom(kappa - Fraction(3, 2), j) * binom(
            Fraction(1, 2) - kappa, j
        )
        den = (
            binom(-k - Fraction(1, 2), j)
            * binom(-l - Fraction(1, 2), j)
            * binom(n + k + l - Fraction(3, 2), j)
        )
        if den == 0:
            raise PoleError(f"t_{n}^{kappa}({k},{l}): denominator binomial vanishes at j={j}")
        total += top * num / den
    return Fraction(-1, 4) ** n * total


def _cmz_outcome(f, *args):
    try:
        return f(*args)
    except PoleError as exc:
        return PoleError, str(exc)  # the message names the j of the vanishing denominator


def _cmz_case(seed):
    rng = random.Random(seed)
    kappa = rng.choice((rng.choice((F(1, 2), F(3, 2), 0, 1, 2, F(7, 3))),
                        F(rng.randint(-60, 60), rng.choice((1, 2, 3, 4, 7))),
                        F(rng.randint(-10**9, 10**9), rng.choice((997, 10**6 + 3, 2**61 - 1)))))
    k = F(rng.randint(-10, 14), 2)
    l = F(rng.randint(-10, 14), 2) if rng.random() < 0.5 else F(rng.randint(-9, 9), 3)
    return kappa, k, l, rng.randint(0, 8)


@settings(max_examples=300)
@given(st.integers(0, 2**32).map(_cmz_case))
@example((F(1, 2), F(-1, 2), 1, 2))  # C(-k-1/2, 1) = 0
@example((F(7, 3), F(1, 2), -1, 2))  # n+k+l-3/2 = 0: pole at j = 1
@example((F(7, 3), F(1, 2), -2, 4))  # n+k+l-3/2 = 1: pole at j = 2
@example((F(3, 2), F(1, 2), F(1, 2), 8))
@example((F(123456789, 2**61 - 1), 5, F(7, 2), 8))
def test_cmz_coeff_matches_fraction_oracle(case):
    kappa, k, l, n = case
    got, want = _cmz_outcome(cmz_coeff, kappa, k, l, n), _cmz_outcome(reference_cmz_coeff, kappa, k, l, n)
    assert got == want
    if not isinstance(want, tuple):
        assert type(got) is F
    with pytest.raises(ValueError, match="n must be >= 0"):
        cmz_coeff(kappa, k, l, -1 - n)


def test_coefficient_dispatch():
    eh = StarCoefficients.eholzer()
    assert eh.coefficient(3, 4, 6) == 1
    cm = StarCoefficients.cmz(F(1, 2))
    assert cm.coefficient(1, 4, 6) == F(-4) * F(-1, 4) == 1
    with pytest.raises(PoleError):
        cm.coefficient(1, 0, 6)
    table = ATable.eholzer(3, 10)
    tb = StarCoefficients(table.get)
    assert tb.coefficient(2, 4, 6) == 1


@pytest.mark.parametrize("seed", range(4))
def test_each_family_is_defined_once_by_its_rule(seed):
    rng = random.Random(seed)
    kappa = F(rng.randint(-30, 30), rng.randint(1, 7))
    cm, eh = StarCoefficients.cmz(kappa), StarCoefficients.eholzer()
    table, t = ATable.from_kappa(kappa, 8, 24), cmz_t(kappa)
    for n in range(9):
        for x in range(2, 25, 2):
            for y in range(2, 25, 2):
                assert cm.coefficient(n, x, y) == F(-4) ** n * cmz_coeff(kappa, F(x, 2), F(y, 2), n)
                assert eh.coefficient(n, x, y) == 1
                # the table is filled by the t-rule, StarCoefficients reads the A-rule
                assert table.get(n, x, y) == cm.rule(n, x, y) == t(n, x, y) * ref_normalization(n, x, y)
    for n in range(1, 9):
        for coeffs in (cm, eh):
            for y in (0, 2, 24):
                with pytest.raises(PoleError):
                    coeffs.coefficient(n, 0, y)


def test_star_product_terms(catalogue):
    prec = 20
    f = GradedForm.from_form(catalogue["E4"].truncate(prec))
    g = GradedForm.from_form(catalogue["E6"].truncate(prec))
    eh = StarCoefficients.eholzer()
    s = star_product(f, g, eh, 3)
    assert s.terms[0] == GradedForm.from_form(rc_bracket(catalogue["E4"], catalogue["E6"], 0).truncate(prec))
    for n in range(4):
        want = rc_bracket(catalogue["E4"], catalogue["E6"], n).truncate(prec)
        assert s.terms[n] == GradedForm.from_form(want)
    cm = star_product(f, g, StarCoefficients.cmz(F(1, 2)), 1)
    assert cm.terms[1] == s.terms[1]  # (-4) t_1 = 1
    assert cm.terms[0] == s.terms[0]


def test_brackets_with_constants_vanish(catalogue):
    prec = 12
    const = ModularForm(0, QSeries.constant(3, prec))
    e6 = catalogue["E6"].truncate(prec)
    for n in range(1, 5):
        assert rc_bracket(const, e6, n).is_zero()
        assert rc_bracket(e6, const, n).is_zero()


def test_star_product_allows_constant_parts_outside_cmz(catalogue):
    prec = 12
    const = ModularForm(0, QSeries.constant(1, prec))
    e4 = catalogue["E4"].truncate(prec)
    e6 = catalogue["E6"].truncate(prec)
    f = GradedForm.from_form(const) + GradedForm.from_form(e4)
    g = GradedForm.from_form(e6)
    for coeffs in (
        StarCoefficients.eholzer(),
        StarCoefficients(ATable.eholzer(3, 30).get),
    ):
        s = star_product(f, g, coeffs, 2)
        assert s.terms[0] == GradedForm.from_form(e6) + GradedForm.from_form(e4 * e6)
        for n in (1, 2):
            assert s.terms[n] == GradedForm.from_form(rc_bracket(e4, e6, n))
    # cmz skips the vanishing brackets of the constant part too; A_0 = 1 and A_1 = x y for every family
    cm = star_product(f, g, StarCoefficients.cmz(2), 1)
    assert cm.terms == star_product(f, g, StarCoefficients.eholzer(), 1).terms


def test_rc_series_bilinearity(catalogue):
    prec = 16
    e4 = catalogue["E4"].truncate(prec)
    e6 = catalogue["E6"].truncate(prec)
    f = GradedForm.from_form(e4) + GradedForm.from_form(e6)
    g = GradedForm.from_form(e4)
    s = rc_series(f, g, 2)
    # [E4, E4]_1 vanishes, so the hbar^1 term is pure weight 12
    assert rc_bracket(e4, e4, 1).is_zero()
    assert s.terms[1].weights() == [12]
    assert s.terms[1].parts[12].series == rc_bracket(e6, e4, 1).series
    assert rc_series(f.scale(5), g, 2) == HbarSeries(2, tuple(t.scale(5) for t in s.terms))


def test_assoc_residual_order_zero(catalogue):
    prec = 12
    f, g, h = (GradedForm.from_form(catalogue[k].truncate(prec)) for k in ("E4", "E6", "Delta"))
    for coeffs in (StarCoefficients.eholzer(), StarCoefficients.cmz(2)):
        assert assoc_residual(f, g, h, coeffs, 0).is_zero()


def test_assoc_residual_order_one_any_table(catalogue):
    # at first order only A_0 = 1 and A_1 = xy enter, so any table works
    prec = 12
    table = ATable(1, 40, filler=lambda n, x, y: F(999))  # level >= 2 never read
    coeffs = StarCoefficients(table.get)
    f, g, h = (GradedForm.from_form(catalogue[k].truncate(prec)) for k in ("E4", "E4", "E6"))
    assert assoc_residual(f, g, h, coeffs, 1).is_zero()


@pytest.mark.parametrize("names", [("E4", "E4", "E6"), ("E4", "E6", "Delta")])
def test_assoc_residual_eholzer_desk_scale(catalogue, names):
    prec = 20
    f, g, h = (GradedForm.from_form(catalogue[k].truncate(prec)) for k in names)
    assert assoc_residual(f, g, h, StarCoefficients.eholzer(), 4).is_zero()


def test_assoc_residual_cmz_concrete(catalogue):
    prec = 14
    f, g, h = (GradedForm.from_form(catalogue[k].truncate(prec)) for k in ("E4", "E6", "Delta"))
    assert assoc_residual(f, g, h, StarCoefficients.cmz(F(5, 2)), 3).is_zero()


def test_ident_residual_degree_zero_and_one():
    table = ATable.eholzer(5, 40)
    for k, l, m in ((1, 1, 1), (2, 3, 1), (4, 2, 4)):
        assert ident_residual(table, k, l, m, 0, 0) == 0
        for p in (0, 1):
            assert ident_residual(table, k, l, m, 1, p) == 0


def test_ident_residual_level_two_family():
    for c in (F(0), F(-5, 2), F(3), F(7, 5)):
        t2 = a2_t(c)
        table = ATable(2, 60, filler=lambda n, x, y, t2=t2: t2(x, y) if n == 2 else None)
        for k in range(1, 5):
            for l in range(1, 5):
                for m in range(1, 5):
                    for p in range(3):
                        assert ident_residual(table, k, l, m, 2, p) == 0


def test_ident_residual_detects_wrong_family():
    # halving the level-2 value breaks the identities: the system is inhomogeneous
    half = ATable(2, 60, filler=lambda n, x, y: F(1, 2))
    assert ident_residual(half, 1, 1, 1, 2, 0) != 0


def test_ident_coefficients_match_binom_pochhammer_expression():
    # the even weights the identities use, and every weight 1-7, since the running products
    # in ident_coefficients step by 1 and it takes any weight >= 1.  Each integer coefficient is
    # the A-value coefficient of the definition times the normalizations (x)_n (y)_n of its two
    # A-values: L_r = c_r (x)_r (y)_r (X)_N (z)_N with X = x+y+2r, N = n-r, and
    # R_s = c_s (y)_s (z)_s (x)_N (Y)_N with Y = y+z+2s, N = n-s
    P, C = ref_pochhammer, ref_binom
    triples = {t for weights in (range(2, 13, 2), range(1, 8)) for t in itertools.product(weights, repeat=3)}
    assert len(triples) == 532
    for n in range(7):
        for p in range(n + 1):
            for x, y, z in sorted(triples):
                left, right = ident_coefficients(n, p, x, y, z)
                assert all(type(v) is int for v in left + right)
                assert left == [
                    C(n, r) * C(n - r, p) / (P(x + y + 2 * r, n - p - r) * P(z, p) * P(x, r))
                    * P(x, r) * P(y, r) * P(x + y + 2 * r, n - r) * P(z, n - r)
                    for r in range(n - p + 1)
                ]
                assert right == [
                    C(n, s) * C(n - s, n - p) / (P(x, n - p) * P(y + z + 2 * s, p - s) * P(z, s))
                    * P(y, s) * P(z, s) * P(x, n - s) * P(y + z + 2 * s, n - s)
                    for s in range(p + 1)
                ]
    with pytest.raises(ValueError):
        ident_coefficients(2, 3, 2, 2, 2)
    with pytest.raises(ValueError, match="weights must be >= 1"):
        ident_coefficients(2, 1, 2, 0, 2)


def test_ident_residual_published_variant_diverges():
    # The same identity written without the interior multinomial factors fails
    # already for the constant-coefficient product; this pins the transcription
    # correction (the corrected form is validated by free_assoc_residual).
    table = ATable.eholzer(2, 40)

    def published(at, k, l, m, n, p):
        x, y, z = 2 * k, 2 * l, 2 * m
        lhs = sum(
            binom(n - r, p)
            * at.get(r, x, y)
            * at.get(n - r, x + y + 2 * r, z)
            / (pochhammer(x + y + 2 * r, n - p - r) * pochhammer(z, p) * pochhammer(x, r))
            for r in range(n - p + 1)
        )
        rhs = sum(
            binom(n - s, n - p)
            * at.get(s, y, z)
            * at.get(n - s, x, y + z + 2 * s)
            / (pochhammer(x, n - p) * pochhammer(y + z + 2 * s, p - s) * pochhammer(z, s))
            for s in range(p + 1)
        )
        return lhs - rhs

    assert published(table, 1, 1, 1, 2, 0) != 0
    assert ident_residual(table, 1, 1, 1, 2, 0) == 0


@pytest.mark.parametrize("kappa", [F(1, 2), F(3, 2), 2, F(5, 2)])
def test_free_model_oracle_for_cmz_family(kappa):
    coeffs = StarCoefficients.cmz(kappa)
    for weights in ((2, 2, 2), (4, 6, 12), (2, 4, 8)):
        assert free_assoc_residual(weights, coeffs, 4) == {}


def test_free_model_oracle_flags_bad_coefficients():
    bad = ATable(3, 40, filler=lambda n, x, y: 2 if n == 2 else 1)
    resid = free_assoc_residual((2, 2, 2), StarCoefficients(bad.get), 3)
    assert resid


# The dict-based free model, kept as an independent reference for the
# rep.Vector implementation of free_assoc_residual.


def _pair_star_free(x: int, y: int, coeffs: StarCoefficients, order: int) -> dict[int, dict[tuple[int, int], Rat]]:
    """f*g in the free pair model: level n -> {(a, b): coeff of dtil^a f dtil^b g}."""
    out: dict[int, dict[tuple[int, int], Rat]] = {}
    for n in range(order + 1):
        c = rat(coeffs.rule(n, x, y))
        fact = Fraction(1)
        for i in range(1, n + 1):
            fact /= i
        level: dict[tuple[int, int], Rat] = {}
        for r in range(n + 1):
            v = c * fact * (-1) ** r * binom(n, r)
            if v != 0:
                level[(r, n - r)] = v
        out[n] = level
    return out


def _raise_pair(level: dict[tuple[int, int], Rat], x: int, y: int) -> dict[tuple[int, int], Rat]:
    out: dict[tuple[int, int], Rat] = {}
    for (a, b), c in level.items():
        for key, w in (((a + 1, b), x + a), ((a, b + 1), y + b)):
            v = out.get(key, Fraction(0)) + c * w
            if v == 0:
                out.pop(key, None)
            else:
                out[key] = v
    return out


def reference_free_bracketings(
    weights: tuple[int, int, int], coeffs: StarCoefficients, order: int
) -> tuple[dict[tuple[int, int, int], Rat], dict[tuple[int, int, int], Rat]]:
    """Fully expand (f*g)*h and f*(g*h) in the free triple basis.

    Keys are (a, b, c) for the basis element X^a f X^b g X^c h,
    with zero coefficients dropped.  This expansion never uses the reduced
    identities, so it is an independent check on them.
    """
    x, y, z = weights
    left: dict[tuple[int, int, int], Rat] = {}
    right: dict[tuple[int, int, int], Rat] = {}

    def add(out: dict, key: tuple[int, int, int], c: Rat) -> None:
        if c == 0:
            return
        v = out.get(key, Fraction(0)) + c
        if v == 0:
            out.pop(key, None)
        else:
            out[key] = v

    # (f*g)*h
    fg = _pair_star_free(x, y, coeffs, order)
    for n1, level in fg.items():
        w_mid = x + y + 2 * n1
        for n2 in range(order - n1 + 1):
            c2 = rat(coeffs.rule(n2, w_mid, z))
            if c2 == 0:
                continue  # a vanishing level adds nothing; at weight 0, (w_mid)_s vanishes too
            fact = Fraction(1)
            for i in range(1, n2 + 1):
                fact /= i
            raised = level
            for s in range(n2 + 1):
                outer = c2 * fact * (-1) ** s * binom(n2, s) / pochhammer(w_mid, s) / pochhammer(
                    z, n2 - s
                )
                if outer != 0:
                    for (a, b), c in raised.items():
                        add(left, (a, b, n2 - s), outer * c / (pochhammer(x, a) * pochhammer(y, b)))
                if s < n2:
                    raised = _raise_pair(raised, x, y)

    # f*(g*h)
    gh = _pair_star_free(y, z, coeffs, order)
    for n1, level in gh.items():
        w_mid = y + z + 2 * n1
        for n2 in range(order - n1 + 1):
            c2 = rat(coeffs.rule(n2, x, w_mid))
            if c2 == 0:
                continue
            fact = Fraction(1)
            for i in range(1, n2 + 1):
                fact /= i
            raised = level
            for s in range(n2 + 1):
                outer = c2 * fact * (-1) ** (n2 - s) * binom(n2, n2 - s) / pochhammer(
                    w_mid, s
                ) / pochhammer(x, n2 - s)
                if outer != 0:
                    for (b, c_idx), c in raised.items():
                        add(right, (n2 - s, b, c_idx), outer * c / (pochhammer(y, b) * pochhammer(z, c_idx)))
                if s < n2:
                    raised = _raise_pair(raised, y, z)

    return left, right


def reference_free_assoc_residual(
    left: dict[tuple[int, int, int], Rat], right: dict[tuple[int, int, int], Rat]
) -> dict[tuple[int, tuple[int, int, int]], Rat]:
    """(f*g)*h - f*(g*h) from the two reference_free_bracketings, keyed (hbar-degree, (a, b, c))."""
    resid = {(sum(k), k): left.get(k, 0) - right.get(k, 0) for k in left.keys() | right.keys()}
    return {k: v for k, v in resid.items() if v}


def _free_model_cases():
    """Seeded (weights, coeffs, order) cases: associative families and planted tables."""
    rng = random.Random(2007)
    cases = []
    for i in range(160):
        weights = tuple(rng.randint(2, 18) for _ in range(3))
        order = i % 6
        kind = i % 4
        if kind == 0:
            coeffs = StarCoefficients.cmz(F(rng.randint(-9, 9), rng.randint(1, 4)))
        elif kind == 1:
            coeffs = StarCoefficients.cmz(F(rng.randint(-9, 9), 2))
        elif kind == 2:
            coeffs = StarCoefficients.eholzer()
        else:
            level, factor = rng.randint(2, max(2, order)), F(rng.choice((-3, -1, 2, 5)), rng.randint(1, 3))
            table = ATable(5, 40, filler=lambda n, x, y, level=level, factor=factor: factor if n == level else 1)
            coeffs = StarCoefficients(table.get)
        cases.append((weights, coeffs, order))
    # weight 0: the outer level and (w)_s vanish together
    cases += [((0, 0, 2), StarCoefficients.eholzer(), 3), ((2, 1, 0), StarCoefficients.eholzer(), 3)]
    return cases


def test_free_model_matches_dict_reference():
    nonzero = 0
    for weights, coeffs, order in _free_model_cases():
        bracketings = reference_free_bracketings(weights, coeffs, order)
        got = free_assoc_residual(weights, coeffs, order)
        assert got == reference_free_assoc_residual(*bracketings), (weights, coeffs, order)
        nonzero += bool(got)
        # each bracketing on its own, so that an error common to both cannot cancel
        x, y, z = weights
        for inner_left, want in zip((True, False), bracketings):
            got = _free_bracketing(weights, coeffs, order, inner_left).support
            assert {(a, b, c): v / (pochhammer(x, a) * pochhammer(y, b) * pochhammer(z, c))
                    for (a, b, c), v in got} == want
    assert nonzero >= 20  # the planted tables make the comparison see nonzero residuals


def test_free_bracketings_absolute_values():
    # each bracketing on its own: an error common to both cancels in free_assoc_residual
    eh = StarCoefficients.eholzer()
    for w in ((2, 2, 2), (4, 6, 12)):
        for inner_left in (True, False):
            assert _free_bracketing(w, eh, 0, inner_left) == Vector.basis(w, (0, 0, 0))
    # order 1 by hand: level 1 of the pair product at weights (a, b) is
    # a b (f dtil g - dtil f g), and dtil of a weight-(a + b) product is
    # (a dtil f g + b f dtil g) / (a + b); either bracketing of (x, y, z) gives
    # 1 + (x+y) z dtil h - x (y+z) dtil f + y (x-z) dtil g
    w = (2, 4, 6)
    want = Vector.make(w, {(0, 0, 0): 1, (0, 0, 1): 36, (1, 0, 0): -20, (0, 1, 0): -16})
    for inner_left in (True, False):
        assert _free_bracketing(w, eh, 1, inner_left) == want


def test_hbar_series_shapes(catalogue):
    f = GradedForm.from_form(catalogue["E4"].truncate(8))
    s = HbarSeries(2, (f, GradedForm.zero(), GradedForm.zero()))
    assert s.order == 2 and not s.is_zero()
    with pytest.raises(ValueError):
        HbarSeries(2, (f,))
