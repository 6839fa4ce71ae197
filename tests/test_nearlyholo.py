import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import _shimura_X_y_term_off_by_one, dtil_power, shimura_pow

from rclab import nearlyholo
from rclab.exactcore import QSeries, binom, pochhammer
from rclab.forms import ModularForm, delta, eisenstein, form_by_name, phi_zagier
from rclab.nearlyholo import (
    NearlyHoloForm,
    _bracket_sum,
    canonical_rc,
    combi_brackets,
    dtil_chain,
    lower,
    raising_chain,
    ramanujan_X,
    rc_bracket,
    shimura_X,
    verify_canonical_rc,
    verify_der_identity,
    zagier_sequence,
)
from rclab.uniq import IsobaricPoly, weight_basis


def test_bracket_degree_zero_is_product(catalogue):
    f, g = catalogue["E4"], catalogue["E6"]
    assert rc_bracket(f, g, 0).series == (f * g).series


def test_bracket_antisymmetry_equal_arguments(catalogue):
    assert rc_bracket(catalogue["E4"], catalogue["E4"], 1).is_zero()


def test_bracket_e4_e6_degree_one(catalogue):
    f, g = catalogue["E4"], catalogue["E6"]
    # oracle: expand 4 E4 DE6 - 6 DE4 E6 directly
    oracle = (f.series * g.series.derive()).scale(4) - (f.series.derive() * g.series).scale(6)
    b = rc_bracket(f, g, 1)
    assert b.weight == 12
    assert b.series == oracle
    assert b.series == delta(30).series.scale(-3456)


def _scalar(rng):
    return F(rng.randint(-6, 6), rng.randint(1, 5))


def _isobaric_form(rng, weight, prec=8):
    coeffs = {ab: _scalar(rng) for ab in weight_basis(weight)}
    if not any(coeffs.values()):
        coeffs[weight_basis(weight)[0]] = F(1)
    return IsobaricPoly(coeffs).to_form(prec)


def _bilinearity_case(seed):
    rng = random.Random(seed)
    wf, wg = (rng.choice((4, 6, 8, 10, 12, 16)) for _ in range(2))
    forms = [_isobaric_form(rng, w) for w in (wf, wf, wg, wg)]
    return (*forms, _scalar(rng), _scalar(rng), rng.randint(0, 4))


@settings(max_examples=60)
@given(st.integers(0, 2**32).map(_bilinearity_case))
def test_bracket_bilinearity_and_swap_symmetry(case):
    # [g, f]_n = (-1)^n [f, g]_n, and [., .]_n is linear in each argument
    # over Q; the uniqueness search assembles its terms from this identity
    f1, f2, g1, g2, a, b, n = case

    def br(f, g):
        out = rc_bracket(f, g, n)
        assert out.weight == f.weight + g.weight + 2 * n
        return out.series

    assert br(g1, f1) == br(f1, g1).scale((-1) ** n)
    assert br(f1.scale(a) + f2.scale(b), g1) == br(f1, g1).scale(a) + br(f2, g1).scale(b)
    assert br(f1, g1.scale(a) + g2.scale(b)) == br(f1, g1).scale(a) + br(f1, g2).scale(b)


def _rc_bracket_derivative_sum(f: ModularForm, g: ModularForm, n: int) -> ModularForm:
    """Degree-n bracket from iterated q-derivatives.

    [f, g]_n = sum_r (-1)^r C(n+x-1, n-r) C(n+y-1, r) D^r f D^(n-r) g
    of weight x + y + 2n, where x, y are the weights of f and g.
    """
    # rc_bracket as it was before the shared products D^t f * g, kept as the oracle
    if n < 0:
        raise ValueError("bracket degree must be >= 0")
    x, y = f.weight, g.weight
    prec = min(f.prec, g.prec)
    df = [f.series.truncate(prec)]
    dg = [g.series.truncate(prec)]
    for _ in range(n):
        df.append(df[-1].derive())
        dg.append(dg[-1].derive())
    return ModularForm(x + y + 2 * n, _bracket_sum(n, x, y, df, dg, QSeries.zero(prec)))


def _bracket_calls_case(seed):
    """A scrambled sequence of (f, g, n), n <= 8, that a stale product table would get wrong.

    The pairs share series: f with two different g, f and g swapped, f with
    itself, f under a second weight, and a weight-0 constant on either side;
    the precisions differ, so some keys are truncations.
    """
    rng = random.Random(seed)
    precs = [rng.randint(4, 12) for _ in range(3)]

    def scaled(form):
        return ModularForm(form.weight, form.series.scale(_scalar(rng) or F(1, 3)))

    f = scaled(_isobaric_form(rng, rng.choice((4, 6, 8, 10, 12)), precs[0]))
    g = scaled(_isobaric_form(rng, rng.choice((4, 6, 8, 10, 12)), precs[1]))
    h = scaled(_isobaric_form(rng, rng.choice((4, 6, 8, 10, 12)), precs[2]))
    const = ModularForm(0, QSeries.constant(_scalar(rng) or 1, precs[2]))
    f_reweighted = ModularForm(f.weight + 2 * rng.randint(1, 4), f.series)
    pairs = [(f, g), (f, h), (g, f), (f, f), (f_reweighted, g), (f, const), (const, h)]
    top = rng.randint(0, 8)
    # each pair walked downwards from top, then every call again in a shuffled order
    calls = [(a, b, n) for a, b in pairs for n in range(top, -1, -1)]
    shuffled = calls[:]
    rng.shuffle(shuffled)
    return calls + shuffled


@settings(max_examples=60)
@given(st.integers(0, 2**32).map(_bracket_calls_case))
def test_bracket_matches_the_derivative_sum_in_any_call_order(calls):
    # the shared products must never leak from one pair or one weight to another
    wanted = {}
    for f, g, n in calls:
        got = rc_bracket(f, g, n)
        key = (id(f), id(g), n)
        if key not in wanted:
            wanted[key] = _rc_bracket_derivative_sum(f, g, n)
        want = wanted[key]
        assert got.weight == want.weight
        assert (got.series.nums, got.series.den) == (want.series.nums, want.series.den)


def test_product_coefficients_are_the_collected_derivative_sum():
    # Put j = N - i into sum_r c_r i^r j^(n-r) and collect i^t N^(n-t): the
    # coefficient is (-1)^t sum_r C(n+x-1, n-r) C(n+y-1, r) C(n-r, t-r).  Both
    # it and the closed form e_t have degree <= n in x and in y, so agreeing
    # on a 13 x 13 grid proves the closed form for n <= 12 and all weights.
    grid = range(0, 26, 2)
    for n in range(13):
        for x in grid:
            for y in grid:
                c = [int(binom(n + x - 1, n - r) * binom(n + y - 1, r)) for r in range(n + 1)]
                collected = tuple((-1) ** t * sum(c[r] * math.comb(n - r, t - r) for r in range(t + 1))
                                  for t in range(n + 1))
                assert nearlyholo._product_coeffs(n, x, y) == collected


def test_ramanujan_derivation(catalogue):
    e4, e6, d = catalogue["E4"], catalogue["E6"], catalogue["Delta"]
    e2 = eisenstein(2, 30)
    # the two classical derivative identities are the oracles here
    assert e4.series.derive() == (e2 * e4.series - e6.series).scale(F(1, 3))
    assert d.series.derive() == e2 * d.series
    assert ramanujan_X(e4).series == e6.series.scale(F(-1, 3))
    assert ramanujan_X(e4).weight == 6
    assert ramanujan_X(d).is_zero()
    const = ModularForm(0, QSeries.constant(5, 10))
    assert ramanujan_X(const).is_zero()


def test_zagier_sequence_low_terms(catalogue):
    e4 = catalogue["E4"]
    phi = phi_zagier(30)
    seq = zagier_sequence(e4, phi, 2)
    assert seq[0].series == e4.series
    assert seq[1].series == ramanujan_X(e4).series
    want = ramanujan_X(ramanujan_X(e4)) + (phi * e4).scale(4)
    assert seq[2].series == want.series
    assert seq[2].weight == 8
    # direct-evaluation form: f2 = X^2 E4 + E4^2/36 for phi = E4/144
    assert seq[2].series == (
        ramanujan_X(ramanujan_X(e4)).series + (e4.series * e4.series).scale(F(1, 36))
    )


def test_canonical_rc_degree_zero(catalogue):
    f, g = catalogue["E4"], catalogue["E6"]
    phi = phi_zagier(30)
    assert canonical_rc(f, g, 0, phi).series == (f * g).series


def test_canonical_rc_with_corrected_element(catalogue):
    phi = phi_zagier(30).scale(-1)
    for a, b in (("E4", "E6"), ("E4", "Delta")):
        rep = verify_canonical_rc(zagier_sequence(catalogue[a], phi, 4), zagier_sequence(catalogue[b], phi, 4))
        assert rep["ok"], rep


def test_canonical_rc_quoted_element_residual_is_exact(catalogue):
    # With the quoted +E4/144 the degree-2 identity misses by exactly
    # (weight product)/18 * (k+l+1) copies of E4*f*g; for (E4, E6) that is
    # 2 E4^2 E6.  Freezing the residual documents the discrepancy precisely.
    e4, e6 = catalogue["E4"], catalogue["E6"]
    phi = phi_zagier(30)
    diff = canonical_rc(e4, e6, 2, phi).series - rc_bracket(e4, e6, 2).series
    assert diff == (e4.series * e4.series * e6.series).scale(2)
    # and the zero element does not restore the identity either
    phi0 = ModularForm(4, QSeries.zero(30))
    rep = verify_canonical_rc(zagier_sequence(e4, phi0, 2), zagier_sequence(e6, phi0, 2))
    assert not rep["ok"]


def test_shimura_raise_on_holomorphic(catalogue):
    f = catalogue["E4"]
    xf = shimura_X(NearlyHoloForm.from_modular(f))
    assert xf.weight == 6
    assert xf.ypoly[0] == f.series.derive()
    assert xf.ypoly[1] == f.series.scale(-4)
    const = NearlyHoloForm.make(0, [QSeries.constant(3, 8)])
    assert shimura_X(const).is_zero()


def test_shimura_double_application(catalogue):
    f = catalogue["E6"]
    w = 6
    x2 = raising_chain(NearlyHoloForm.from_modular(f), 2)[2]
    d2 = f.series.derive().derive()
    assert x2.ypoly[0] == d2
    assert x2.ypoly[1] == f.series.derive().scale(-(2 * w + 2))
    assert x2.ypoly[2] == f.series.scale(w * (w + 1))


def test_lower_basics(catalogue):
    f = catalogue["E4"]
    holo = NearlyHoloForm.from_modular(f)
    assert lower(holo).is_zero()
    assert lower(shimura_X(holo)) == holo.scale(-4)
    chain = raising_chain(holo, 5)
    for n in range(1, 6):
        w = 4
        assert lower(chain[n]) == chain[n - 1].scale(-n * (w + n - 1))


@pytest.mark.parametrize("name", ["E4", "E6", "Delta"])
def test_raising_chains_match_the_powers(catalogue, name):
    f = catalogue[name].truncate(14)
    holo = NearlyHoloForm.from_modular(f)
    assert raising_chain(holo, 6) == [shimura_pow(holo, r) for r in range(7)]
    assert raising_chain(holo, 0) == [holo]
    assert dtil_chain(f, 6) == [dtil_power(f, r) for r in range(7)]
    # a nearly-holomorphic start is normalized by its own weight
    x2 = raising_chain(holo, 2)[2]
    want = [y.scale(1 / pochhammer(f.weight + 4, r)) for r, y in enumerate(raising_chain(x2, 3))]
    assert dtil_chain(x2, 3) == want


def test_normalized_chain_of_weight_zero_raises():
    const = ModularForm(0, QSeries.constant(1, 8))
    assert dtil_chain(const, 0) == [NearlyHoloForm.from_modular(const)]
    for top in (1, 3):
        with pytest.raises(ValueError, match=r"\(0\)_%d = 0" % top):
            dtil_chain(const, top)
        with pytest.raises(ValueError, match=r"\(0\)_%d = 0" % top):
            dtil_power(const, top)


def test_lower_raise_commutator_is_weight():
    rng = random.Random(8)
    prec = 6
    for w in (0, 4, 10):
        parts = [
            QSeries(prec, [F(rng.randint(-5, 5)) for _ in range(prec)])
            for _ in range(3)
        ]
        F_ = NearlyHoloForm.make(w, parts)
        got = lower(shimura_X(F_)) - shimura_X(lower(F_))
        assert got == F_.scale(-w)


@pytest.mark.parametrize("name", ["E4", "E6", "Delta"])
def test_der_identity(catalogue, name):
    f = catalogue[name].truncate(25)
    assert verify_der_identity(f, 5) is None
    with pytest.raises(ValueError):
        verify_der_identity(f, -1)


def test_combi_bracket_degree_one(catalogue):
    e4, e6 = catalogue["E4"], catalogue["E6"]
    got = combi_brackets(e4, e6, 1)[1]
    assert got.is_holomorphic()
    assert got.ypoly[0] == rc_bracket(e4, e6, 1).series
    # explicit cancellation: 4 f Xg - 6 Xf g with the Y-parts dropping out
    bf, bg = NearlyHoloForm.from_modular(e4), NearlyHoloForm.from_modular(e6)
    direct = (bf * shimura_X(bg)).scale(4) + (shimura_X(bf) * bg).scale(-6)
    assert direct.is_holomorphic()


@pytest.mark.parametrize("pair", [("E4", "E6"), ("E4", "Delta")])
def test_combi_bracket_holomorphic_to_degree_five(catalogue, pair):
    f, g = catalogue[pair[0]].truncate(25), catalogue[pair[1]].truncate(25)
    brackets = combi_brackets(f, g, 5)
    assert len(brackets) == 6
    assert all(out.is_holomorphic() for out in brackets)


def test_nearlyholo_prec_and_trim():
    a = QSeries.from_numerators([1, 2, 3])
    b = QSeries.zero(5)
    f = NearlyHoloForm.make(4, [a, b])
    assert f.prec == 3 and f.is_holomorphic()
    with pytest.raises(ValueError):
        NearlyHoloForm.make(4, [])


# NearlyHoloForm.__add__ and __mul__, shimura_X and lower as they were when they padded with
# zero series, kept verbatim as oracles.


def padded_add(self, other):
    if self.weight != other.weight:
        raise ValueError(f"cannot add weights {self.weight} and {other.weight}")
    prec = min(self.prec, other.prec)
    n = max(len(self.ypoly), len(other.ypoly))
    parts = []
    for j in range(n):
        a = self.ypoly[j] if j < len(self.ypoly) else QSeries.zero(prec)
        b = other.ypoly[j] if j < len(other.ypoly) else QSeries.zero(prec)
        parts.append(a.truncate(prec) + b.truncate(prec))
    return NearlyHoloForm.make(self.weight, parts)


def padded_mul(self, other):
    prec = min(self.prec, other.prec)
    out = [QSeries.zero(prec) for _ in range(len(self.ypoly) + len(other.ypoly) - 1)]
    for i, a in enumerate(self.ypoly):
        for j, b in enumerate(other.ypoly):
            out[i + j] = out[i + j] + a.truncate(prec) * b.truncate(prec)
    return NearlyHoloForm.make(self.weight + other.weight, out)


def padded_shimura_X(F):
    w = F.weight
    prec = F.prec
    parts = [QSeries.zero(prec) for _ in range(len(F.ypoly) + 1)]
    for j, c in enumerate(F.ypoly):
        parts[j] = parts[j] + c.derive()
        parts[j + 1] = parts[j + 1] + c.scale(j - w)
    return NearlyHoloForm.make(w + 2, parts)


def padded_lower(F):
    prec = F.prec
    if F.is_holomorphic():
        return NearlyHoloForm.zero(F.weight - 2, prec)
    parts = [F.ypoly[j].scale(j) for j in range(1, len(F.ypoly))]
    return NearlyHoloForm.make(F.weight - 2, parts or [QSeries.zero(prec)])


def _ypoly_form(rng, weight):
    """1-4 parts at one drawn prec, each zero or with non-integral coefficients (some zero)."""
    prec = rng.randint(1, 8)
    parts = []
    for _ in range(rng.randint(1, 4)):
        zero = rng.random() < 0.3
        parts.append(QSeries(prec, [F(0) if zero or rng.random() < 0.2 else _scalar(rng) for _ in range(prec)]))
    return NearlyHoloForm.make(weight, parts)


def _ypoly_pair(seed):
    # weights 0 and 2 make the raise's (j - w) vanish inside the Y-polynomial
    rng = random.Random(seed)
    w = rng.choice((0, 2, 4, 6, 12))
    return _ypoly_form(rng, w), _ypoly_form(rng, w if rng.random() < 0.8 else rng.choice((0, 2, 4)))


@settings(max_examples=300)
@given(st.integers(0, 2**32).map(_ypoly_pair))
def test_y_polynomial_arithmetic_matches_the_padded_oracles(case):
    a, b = case
    assert a * b == padded_mul(a, b) and b * a == padded_mul(b, a)
    for F in (a, b):
        assert shimura_X(F) == padded_shimura_X(F)
        assert shimura_X(shimura_X(F)) == padded_shimura_X(padded_shimura_X(F))
        assert lower(F) == padded_lower(F)
    if a.weight != b.weight:
        for add in (NearlyHoloForm.__add__, padded_add):
            with pytest.raises(ValueError, match="cannot add weights"):
                add(a, b)
        return
    assert a + b == padded_add(a, b) and b + a == padded_add(b, a)
    assert a - b == padded_add(a, b.scale(-1))
    assert a - a == padded_add(a, a.scale(-1)) and (a - a).is_zero()


# canonical_rc, verify_canonical_rc, verify_der_identity and combi_bracket as
# they were before the chains were built once per call, kept verbatim as oracles.


def per_degree_canonical_rc(f: ModularForm, g: ModularForm, n: int, phi: ModularForm) -> ModularForm:
    x, y = f.weight, g.weight
    fs = zagier_sequence(f, phi, n)
    gs = zagier_sequence(g, phi, n)
    prec = min(f.prec, g.prec, phi.prec)
    a = [fr.series.truncate(prec) for fr in fs]
    b = [gr.series.truncate(prec) for gr in gs]
    return ModularForm(x + y + 2 * n, _bracket_sum(n, x, y, a, b, QSeries.zero(prec)))


def per_degree_verify_canonical_rc(f: ModularForm, g: ModularForm, n_max: int, phi: ModularForm) -> dict:
    failures = []
    for n in range(n_max + 1):
        lhs = per_degree_canonical_rc(f, g, n, phi)
        rhs = rc_bracket(f, g, n).truncate(lhs.prec)
        diff = lhs.series - rhs.series
        if not diff.is_zero():
            v = diff.valuation()
            failures.append((n, v, diff.coeff(v)))
    return {"ok": not failures, "failures": failures}


def per_order_verify_der_identity(f: ModularForm, m: int) -> bool:
    if m < 0:
        raise ValueError("m must be >= 0")
    w = f.weight
    prec = f.prec
    base = NearlyHoloForm.from_modular(f)
    rhs = NearlyHoloForm.zero(w + 2 * m, prec)
    for r in range(m + 1):
        term = shimura_pow(base, m - r)
        coeff = binom(w + m - 1, r) / math.factorial(m - r)
        # multiply by Y^r: shift the Y-polynomial up by r
        shifted = [QSeries.zero(prec)] * r + [s for s in term.ypoly]
        rhs = rhs + NearlyHoloForm.make(w + 2 * m, shifted).scale(coeff)
    rhs = rhs.scale(math.factorial(m))
    dm = f.series
    for _ in range(m):
        dm = dm.derive()
    lhs = NearlyHoloForm.make(w + 2 * m, [dm])
    return lhs == rhs


def per_degree_combi_bracket(f: ModularForm, g: ModularForm, n: int) -> NearlyHoloForm:
    x, y = f.weight, g.weight
    prec = min(f.prec, g.prec)
    xf = raising_chain(NearlyHoloForm.from_modular(f).truncate(prec), n)
    xg = raising_chain(NearlyHoloForm.from_modular(g).truncate(prec), n)
    return _bracket_sum(n, x, y, xf, xg, NearlyHoloForm.zero(x + y + 2 * n, prec))


def first_failing_order(f: ModularForm, m_max: int) -> int | None:
    return next((m for m in range(m_max + 1) if not per_order_verify_der_identity(f, m)), None)


def _form(rng, weights, low, high):
    prec = rng.randint(low, high)
    generator = form_by_name(rng.choice(("E4", "E6", "Delta")), prec)
    return rng.choice((generator, _isobaric_form(rng, rng.choice(weights), min(prec, 8))))


def _canonical_case(seed):
    # generators or isobaric combinations, at unequal precisions, for both signs of phi
    rng = random.Random(seed)
    f, g = (_form(rng, (4, 6, 8), 6, 14) for _ in range(2))
    phi = phi_zagier(rng.randint(6, 14)).scale(rng.choice((1, -1)))
    n_max = rng.randint(0, 7)
    return f, g, n_max, phi, rng.randint(0, n_max)


@settings(max_examples=40)
@given(st.integers(0, 2**32).map(_canonical_case))
def test_canonical_rc_matches_the_per_degree_chains(case):
    f, g, n_max, phi, n = case
    # on the chains shared by every degree, as suite_canonical shares them between pairs
    got = verify_canonical_rc(zagier_sequence(f, phi, n_max), zagier_sequence(g, phi, n_max))
    assert got == per_degree_verify_canonical_rc(f, g, n_max, phi)
    assert canonical_rc(f, g, n, phi) == per_degree_canonical_rc(f, g, n, phi)


def _der_case(seed):
    rng = random.Random(seed)
    return _form(rng, (4, 6, 10), 4, 12), rng.randint(0, 7)


@settings(max_examples=30)
@given(st.integers(0, 2**32).map(_der_case))
def test_der_identity_matches_the_per_order_powers(case):
    f, m_max = case
    assert verify_der_identity(f, m_max) is first_failing_order(f, m_max) is None
    with pytest.MonkeyPatch.context() as mp:
        # a raising operator wrong from X^2 on: both versions must see it the same way
        mp.setattr(nearlyholo, "shimura_X", _shimura_X_y_term_off_by_one)
        assert verify_der_identity(f, m_max) == first_failing_order(f, m_max) == (2 if m_max >= 2 else None)


PAIRS = [(a, b) for a in ("E4", "E6", "Delta") for b in ("E4", "E6", "Delta")]


@pytest.mark.parametrize("planted", [False, True], ids=["unpatched", "shimura_X-y-term-off-by-one"])
def test_one_chain_per_form_matches_the_per_degree_chains(monkeypatch, catalogue, planted):
    # every degree and order read from one chain equals its own chain, built from scratch
    if planted:
        monkeypatch.setattr(nearlyholo, "shimura_X", _shimura_X_y_term_off_by_one)
    for a, b in PAIRS:
        f, g = catalogue[a], catalogue[b]
        brackets = combi_brackets(f, g, 6)
        assert len(brackets) == 7
        for n, got in enumerate(brackets):
            assert got == per_degree_combi_bracket(f, g, n)
            # a wrong X^2 leaves Y-terms from n = 2 on, except in [f, f]_n for odd n, which is
            # antisymmetric in its two chains and so zero
            assert got.is_holomorphic() is (not planted or n < 2 or a == b and n % 2 == 1)
    for name in ("E4", "E6", "Delta"):
        f = catalogue[name]
        assert verify_der_identity(f, 8) == first_failing_order(f, 8) == (2 if planted else None)
