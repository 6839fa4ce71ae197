import functools
import hashlib
import itertools
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import ref_bracket, ref_qs_add, ref_qs_mul, ref_qs_pow, ref_qs_scale, sigma_oracle

from rclab.exactcore import MPoly, QSeries
from rclab.forms import GradedForm, ModularForm, delta, eisenstein_form
from rclab.starprod import rc_series
from rclab.uniq import (
    IsobaricPoly,
    _BracketTable,
    _bracket_term,
    _graded,
    _random_coords,
    _substitute_direction,
    bracket_shift_residual,
    fine_det3,
    fine_det3_mpoly,
    lowest_q_mpoly,
    p3_build,
    p3_reference_inner,
    p3_certify_report,
    random_uniqueness_search,
    rc_uniqueness_check,
    weight_basis,
)


def test_shift_residual_constant_middle(catalogue):
    e4, e6 = catalogue["E4"].truncate(14), catalogue["E6"].truncate(14)
    const = ModularForm(0, QSeries.constant(3, 14))
    for n in range(5):
        assert bracket_shift_residual(e4, const, e6, n).is_zero()


def test_shift_residual_detects_every_nonconstant_middle(catalogue):
    # even degrees cancel by symmetry when f = h, so degree 3 does the work
    prec = 14
    cat = {k: v.truncate(prec) for k, v in catalogue.items()}
    triples = [
        ("E4", "E4", "E4"),
        ("E4", "E6", "E4"),
        ("E4", "E4", "E6"),
        ("E6", "Delta", "E4"),
    ]
    for names in triples:
        f, g, h = (cat[x] for x in names)
        assert any(not bracket_shift_residual(f, g, h, n).is_zero() for n in (1, 2, 3))


def test_shift_residual_nonconstant_middle(catalogue):
    e4, e6 = catalogue["E4"].truncate(14), catalogue["E6"].truncate(14)
    r = bracket_shift_residual(e4, e4, e6, 1)
    assert r.weight == 16
    assert r.series.coeff(1) != 0
    # first-degree oracle: (wf+wg) fg Dh - wh D(fg) h - wf f D(gh) + (wg+wh) Df gh
    fg, gh = (e4 * e4).series, (e4 * e6).series
    oracle = (
        (fg * e6.series.derive()).scale(8)
        - (fg.derive() * e6.series).scale(6)
        - (e4.series * gh.derive()).scale(4)
        + (e4.series.derive() * gh).scale(10)
    )
    assert r.series == oracle


def test_lowest_q_degree_one_form():
    k, l, m, r, s, t = MPoly.variables(("k", "l", "m", "r", "s", "t"))
    assert lowest_q_mpoly(1) == 2 * (l * (r + t) - (k + m) * s)


def test_lowest_q_degree_two_factorization():
    # after substituting the degree-one relation the quadratic factors
    A = lambda K, L, M: (K + 3 * M) * (K + L + M) + (K + M)
    C = lambda K, L, M: (3 * K + M) * (K + L + M) + (K + M)
    for K, L, M, R, T in ((1, 1, 1, 2, 3), (2, 1, 3, 1, 5), (1, 2, 1, 4, 1)):
        S = F(L * (R + T), K + M)
        got = lowest_q_mpoly(2).evaluate(dict(zip("klmrst", (K, L, M, R, S, T))))
        want = F(2 * L, (K + M) ** 2) * (R + T) * (A(K, L, M) * R - C(K, L, M) * T)
        assert got == want


def test_lowest_q_degree_two_root_direction():
    A = lambda K, L, M: (K + 3 * M) * (K + L + M) + (K + M)
    C = lambda K, L, M: (3 * K + M) * (K + L + M) + (K + M)
    for K, L, M in ((1, 1, 1), (2, 1, 3), (1, 3, 2)):
        for mu in (1, 2, F(1, 3)):
            T, R = mu * A(K, L, M), mu * C(K, L, M)
            S = F(L * (R + T), K + M)
            assert lowest_q_mpoly(2).evaluate(dict(zip("klmrst", (K, L, M, R, S, T)))) == 0
            # the third component of the direction: s = mu*l*(4(k+l+m)+2)
            assert S == mu * L * (4 * (K + L + M) + 2)


def test_p3_build_structure():
    p3 = p3_build()
    assert p3.evaluate({"k": 1, "l": 0, "m": 1, "r": 1, "t": 1}) == 0
    # divisible by 4 l (r + t)
    k, l, m, r, t = MPoly.variables(("k", "l", "m", "r", "t"))
    inner = p3.div_exact(4 * l * (r + t))
    assert inner * (4 * l * (r + t)) == p3
    # (r,t)-homogeneous of degree 3
    ridx, tidx = 3, 4
    assert all(e[ridx] + e[tidx] == 3 for e in p3.terms)


def test_p3_inner_matches_reference_everywhere():
    p3 = p3_build()
    k, l, m, r, t = MPoly.variables(("k", "l", "m", "r", "t"))
    inner = p3.div_exact(4 * l * (r + t))
    assert inner == p3_reference_inner()
    point = {"k": 1, "l": 1, "m": 1, "r": 1, "t": 1}
    assert p3.evaluate(point) == 4 * 1 * 2 * p3_reference_inner().evaluate(point)


def test_p3_inner_spot_coefficients():
    ref = p3_reference_inner()
    assert ref.coeff_of_monomial(k=2, r=2) == -3
    assert ref.coeff_of_monomial(k=3, r=2) == -2
    # the two repaired spots agree between the reference and the derivation
    built = p3_build().div_exact(4 * MPoly.var(("k", "l", "m", "r", "t"), "l") * (
        MPoly.var(("k", "l", "m", "r", "t"), "r") + MPoly.var(("k", "l", "m", "r", "t"), "t")
    ))
    for spot in (dict(k=1, l=2, m=1, r=2), dict(k=2, l=1, m=1, r=2)):
        assert built.coeff_of_monomial(**spot) == ref.coeff_of_monomial(**spot)


def test_p3_certify_report():
    rep = p3_certify_report()
    assert rep["substituted_all_positive"] and rep["positivity_witness"] is None
    assert rep["coeff_k5_l"] == 48
    assert rep["coeff_l2_m8"] == 1536
    assert rep["division_remainder"] is None
    assert len(rep["inner_diff"]) == 0
    assert len(rep["substituted_diff"]) == 0


def _digest(p):
    return hashlib.sha256(json.dumps(p.to_json_obj(), sort_keys=True).encode()).hexdigest()


def test_symbolic_certificates_are_pinned_whole():
    # SHA-256 of each to_json_obj(), recorded with the Fraction MPoly kernels:
    # every coefficient of every polynomial, not only the verdicts read off them
    p3 = p3_build()
    assert (p3.vars, len(p3.terms)) == (("k", "l", "m", "r", "t"), 96)
    assert _digest(p3) == "c903a67e65472a2193105f2b1b9bfeb8d618746c040eba3512d121886fecd57e"
    assert _digest(_substitute_direction(p3)) == "e7f3e82045238c6391e55eaccf77e63e9dc90076085d46c9ee6e115433a4d491"
    assert _digest(fine_det3_mpoly()) == "f09977cc4f00bc1b0d0eb7fd2ef1626074e4b6efdb93c810dd8f1ac7d48a0934"
    assert _digest(lowest_q_mpoly(3)) == "905bf2aed0cda7d086e64bb392871573870a845cdf2d7375b8e6428ff04835ea"


def test_fine_det3_values_and_signs():
    assert fine_det3(1, 1, 1) < 0
    assert fine_det3(1, 2, 3) < 0
    for k in range(1, 7):
        for l in range(1, 7):
            for m in range(k, 7):
                assert fine_det3(k, l, m) < 0


def test_fine_det3_l_squared_factor_and_braced_form():
    d = fine_det3_mpoly()
    assert all(e[1] >= 2 for e in d.terms)  # divisible by l^2

    def braced(k, l, m):
        t1 = -6 * (k + l + m + 1) * (2 * m - 2 * k) ** 2
        t2 = (2 * k + 2 * l + 2 * m + 1) * (-(2 * k + 2 * m) * (6 * k + 6 * l + 2 * m) - 12 * k) * (2 * m - 2 * k)
        t3 = -(4 * k + 4 * l + 4 * m + 2) * (2 * k + 2 * m) * (2 * k + 2 * l) * (4 * k + 2 * l + 3)
        return (2 * l) ** 2 * (t1 + t2 + t3)

    for k in range(1, 5):
        for l in range(1, 5):
            for m in range(1, 5):
                assert fine_det3(k, l, m) == braced(k, l, m)


def test_weight_basis():
    assert weight_basis(0) == [(0, 0)]
    assert weight_basis(4) == [(1, 0)]
    assert weight_basis(12) == [(0, 2), (3, 0)]
    assert weight_basis(14) == [(2, 1)]
    assert weight_basis(2) == []


def test_isobaric_to_form_matches_independent_forms(catalogue):
    # each image is built without _monomial: delta's own product, and E4, E6 multiplied as forms
    prec = 15
    g4, g6 = IsobaricPoly({(1, 0): 1}), IsobaricPoly({(0, 1): 1})
    e4, e6 = catalogue["E4"].truncate(prec), catalogue["E6"].truncate(prec)
    assert ((g4.pow(3) - g6.pow(2)) * F(1, 1728)).to_form(prec) == delta(prec)
    assert (g4 * g4).to_form(prec) == e4 * e4
    assert (g4 * g6).to_form(prec) == e4 * e6
    with pytest.raises(ValueError, match="exponents must be >= 0"):
        IsobaricPoly({(-1, 2): 1})


def test_isobaric_arithmetic_keeps_its_type():
    g4, g6 = IsobaricPoly({(1, 0): 1}), IsobaricPoly({(0, 1): 1})
    assert (g4 * g6).weight() == 10
    assert (g4 * 2).to_form(6) == eisenstein_form(4, 6).scale(2)
    for p in (g4 + g6, g4 - g6, 1 - g4, -g4, 3 * g6, g4.pow(0), g4.pow(1), g4.pow(2)):
        assert type(p) is IsobaricPoly
    assert type(g4.substitute({"g4": MPoly.var(("g4", "g6"), "g6")})) is MPoly


@functools.cache
def _ref_monomial(a: int, b: int, prec: int) -> tuple:
    """E4^a E6^b by the q-series reference, E4 = 1 + 240 sum sigma_3(n) q^n, E6 = 1 - 504 sum sigma_5(n) q^n."""
    e4, e6 = ((1,) + tuple(c * sigma_oracle(n, k) for n in range(1, prec)) for c, k in ((240, 3), (-504, 5)))
    return ref_qs_mul(ref_qs_pow(e4, a), ref_qs_pow(e6, b))


def _ref_form(p: IsobaricPoly, prec: int) -> tuple:
    """sum c E4^a E6^b over the terms of p."""
    total = (0,) * prec
    for (a, b), c in p.terms.items():
        total = ref_qs_add(total, ref_qs_scale(_ref_monomial(a, b, prec), c))
    return total


@functools.cache
def _ref_monomial_bracket(m1: tuple[int, int], m2: tuple[int, int], n: int, prec: int) -> tuple:
    (a1, b1), (a2, b2) = m1, m2
    return ref_bracket(_ref_monomial(a1, b1, prec), _ref_monomial(a2, b2, prec), 4 * a1 + 6 * b1, 4 * a2 + 6 * b2, n)


def _isobaric_case(seed):
    # a homogeneous polynomial with non-integral coefficients on some of its weight's
    # monomials, or a mixed or zero one, which neither version converts
    rng = random.Random(seed)
    weight = rng.choice((0, 4, 6, 8, 12, 16, 24))
    basis = weight_basis(weight)
    terms = {ab: F(rng.randint(-9, 9) or 1, rng.choice((1, 2, 7, 144)))
             for ab in rng.sample(basis, rng.randint(1, len(basis)))}
    kind = rng.random()
    if kind < 0.1:
        terms = {}
    elif kind < 0.2:
        terms[(0, 1) if weight != 6 else (1, 0)] = F(1, 3)
    return IsobaricPoly(terms), rng.randint(1, 12)


@settings(max_examples=100)
@given(st.integers(0, 2**32).map(_isobaric_case))
def test_isobaric_to_form_matches_the_padded_sum(case):
    p, prec = case
    if p.weight() is None:
        with pytest.raises(ValueError, match="weight-homogeneous"):
            p.to_form(prec)
    else:
        got = p.to_form(prec)
        assert got.weight == p.weight() and got.series.coeffs == _ref_form(p, prec)


def test_uniqueness_check_recovers_constant(catalogue):
    prec = 15
    f1 = GradedForm.from_form(catalogue["E4"].truncate(prec))
    g1 = GradedForm.from_form(catalogue["E6"].truncate(prec))
    res = rc_uniqueness_check(f1, g1, f1.scale(F(1, 3)), g1.scale(3), 3, prec)
    assert res["equal"] and res["proportional"] and res["C"] == 3
    assert not res["counterexample"]


def test_uniqueness_check_detects_difference(catalogue):
    prec = 15
    f = GradedForm.from_form(catalogue["E4"].truncate(prec))
    g = GradedForm.from_form(catalogue["E6"].truncate(prec))
    res = rc_uniqueness_check(f, g, g, f, 3, prec)
    assert not res["equal"]


def test_uniqueness_check_graded_pairs(catalogue):
    prec = 15
    e4 = catalogue["E4"].truncate(prec)
    e6 = catalogue["E6"].truncate(prec)
    f1 = GradedForm.from_form(e4) + GradedForm.from_form(e6)
    g1 = GradedForm.from_form(e4)
    res = rc_uniqueness_check(f1, g1, f1.scale(2), g1.scale(F(1, 2)), 3, prec)
    assert res["equal"] and res["proportional"] and res["C"] == F(1, 2)


def test_random_search_no_counterexamples():
    stats = random_uniqueness_search(150, order=3, prec=12, seed0=7)
    assert stats["counterexamples"] == 0
    assert stats["recovered_constants"] == stats["equal_pairs"]
    assert stats["equal_pairs"] >= 150 // 3


# -- the search against its form-level reference ------------------------------


def _reference_graded(rng, prec):
    weights = rng.sample([4, 6, 8, 10, 12, 14, 16], k=rng.randint(1, 2))
    out = GradedForm.zero()
    for w in weights:
        coeffs = {}
        for ab in weight_basis(w):
            c = rng.randint(-3, 3)
            if c:
                coeffs[ab] = F(c)
        if not coeffs:
            coeffs[weight_basis(w)[0]] = F(1)
        out = out + GradedForm.from_form(IsobaricPoly(coeffs).to_form(prec))
    return out


def _reference_term(f, g, n):
    """[f, g]_n of two graded forms by the bracket reference: weight -> coefficients, zero parts dropped."""
    acc = {}
    for (x, fx), (y, gy) in itertools.product(f.parts.items(), g.parts.items()):
        bracket = ref_bracket(fx.series.coeffs, gy.series.coeffs, x, y, n)
        acc[x + y + 2 * n] = ref_qs_add(acc[x + y + 2 * n], bracket) if x + y + 2 * n in acc else bracket
    return {w: s for w, s in acc.items() if any(s)}


def _reference_search(seeds, order, prec, seed0):
    """The search on forms: bracket every graded pair, then rc_uniqueness_check."""
    stats = {"trials": seeds, "equal_pairs": 0, "recovered_constants": 0, "counterexamples": 0}
    for i in range(seeds):
        rng = random.Random(seed0 + i)
        f1 = _reference_graded(rng, prec)
        g1 = _reference_graded(rng, prec)
        if i % 3 == 0:
            c = F(rng.randint(1, 5), rng.randint(1, 5)) * rng.choice((1, -1))
            f2, g2 = f1.scale(1 / c), g1.scale(c)
        else:
            f2 = _reference_graded(rng, prec)
            g2 = _reference_graded(rng, prec)
        if any(_reference_term(f1, g1, n) != _reference_term(f2, g2, n) for n in range(order + 1)):
            continue
        res = rc_uniqueness_check(f1, g1, f2, g2, order, prec)
        if res["equal"]:
            stats["equal_pairs"] += 1
            if res["proportional"] and res["C"] is not None:
                stats["recovered_constants"] += 1
            if res["counterexample"]:
                stats["counterexamples"] += 1
    return stats


def test_random_coords_draw_the_reference_forms():
    # same forms from the same rng stream, and the stream left in the same state
    for seed in range(200):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(4):
            assert _graded(_random_coords(rng), 15) == _reference_graded(ref, 15)
        assert rng.random() == ref.random()


@pytest.mark.parametrize(
    "seeds,order,prec,seed0",
    [(45, 3, 15, 0), (30, 0, 15, 11), (30, 4, 12, 5), (30, 2, 12, 100), (30, 3, 2, 7)],
)
def test_search_matches_reference_search(seeds, order, prec, seed0):
    assert random_uniqueness_search(seeds, order, prec, seed0) == _reference_search(
        seeds, order, prec, seed0
    )


def test_search_stats_are_pinned():
    assert random_uniqueness_search(1000, 3, 15, 0) == {
        "trials": 1000, "equal_pairs": 334, "recovered_constants": 334, "counterexamples": 0,
    }
    assert random_uniqueness_search(200, 3, 15, 0) == {
        "trials": 200, "equal_pairs": 67, "recovered_constants": 67, "counterexamples": 0,
    }


def _graded_coords(rng):
    weights = rng.sample((4, 6, 8, 10, 12, 14, 16), rng.randint(1, 2))
    coords = (F(0), F(1), F(-3), F(2), F(-2, 7), F(5, 3))
    return IsobaricPoly({ab: rng.choice(coords) for w in weights for ab in weight_basis(w)})


def _bracket_term_case(seed):
    rng = random.Random(seed)
    return _graded_coords(rng), _graded_coords(rng), rng.randint(0, 4), rng.choice((3, 8, 12))


@settings(max_examples=40)
@given(st.integers(0, 2**32).map(_bracket_term_case))
def test_bracket_term_matches_rc_series(case):
    f, g, n, prec = case
    want = rc_series(_graded(f, prec), _graded(g, prec), n).terms[n]
    assert _bracket_term(f, g, n, _BracketTable(4, prec)) == want


@pytest.mark.parametrize("prec", [15, 8])
def test_walked_table_matches_the_per_degree_brackets(prec):
    # every ordered pair of the 9 generator monomials of weights 4..16, the search's order 3
    monomials = [ab for w in range(4, 17, 2) for ab in weight_basis(w)]
    assert len(monomials) == 9
    table = _BracketTable(3, prec)
    for m1 in monomials:
        for m2 in monomials:
            assert [s.coeffs for s in table[m1, m2]] == [_ref_monomial_bracket(m1, m2, n, prec) for n in range(4)]
    assert len(table) == 81


def _ref_bracket_term(f: IsobaricPoly, g: IsobaricPoly, n: int, prec: int) -> dict:
    """[f, g]_n in generator coordinates by bilinearity over the reference's monomial brackets:
    weight -> coefficients, zero parts dropped."""
    parts = {}
    for ((a1, b1), c), ((a2, b2), d) in itertools.product(f.terms.items(), g.terms.items()):
        w = 4 * (a1 + a2) + 6 * (b1 + b2) + 2 * n
        term = ref_qs_scale(_ref_monomial_bracket((a1, b1), (a2, b2), n, prec), c * d)
        parts[w] = ref_qs_add(parts[w], term) if w in parts else term
    return {w: s for w, s in parts.items() if any(s)}


@pytest.mark.parametrize("prec", [15, 8])
def test_bracket_term_matches_the_summing_oracle(prec):
    # every ordered pair of the 9 generator monomials at every degree of the search's order 3,
    # each monomial with a seeded coefficient.  Off the diagonal both forms get one seeded second
    # term x, so that the zero brackets [x, x]_n for odd n meet nonzero ones; on it the forms are
    # c m and d m, whose odd terms are zero.  More terms are zero where the bracket lies in a
    # space of cusp forms that is zero, as [E4, E6]_2 does in S_14
    rng = random.Random(3500 + prec)
    monomials = [ab for w in range(4, 17, 2) for ab in weight_basis(w)]
    coords = (F(1), F(-3), F(2), F(-2, 7), F(5, 3))
    table = _BracketTable(3, prec)
    zero_terms = 0
    for m1 in monomials:
        for m2 in monomials:
            extra = {} if m1 == m2 else {rng.choice(monomials): rng.choice(coords)}
            f, g = (IsobaricPoly({m: rng.choice(coords), **extra}) for m in (m1, m2))
            for n in range(4):
                got = _bracket_term(f, g, n, table)
                assert {w: part.series.coeffs for w, part in got.parts.items()} == _ref_bracket_term(f, g, n, prec)
                zero_terms += got.is_zero()
    assert len(table) == 81 and zero_terms >= 9 * 2
