import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    ref_binom,
    ref_pochhammer,
    ref_poly_evaluate,
    ref_poly_mul,
    ref_poly_pow,
    ref_poly_substitute,
    ref_qs_add,
    ref_qs_derive,
    ref_qs_mul,
    ref_qs_pow,
    ref_qs_scale,
    ref_qs_shift,
    ref_qs_sub,
    ref_qs_truncate,
    sigma_oracle,
)

from rclab.exactcore import MPoly, NotDivisibleError, QSeries, binom, pochhammer
from rclab.uniq import IsobaricPoly


def test_scalar_helpers():
    assert pochhammer(3, 0) == 1
    assert pochhammer(F(1, 2), 3) == F(1, 2) * F(3, 2) * F(5, 2)
    assert binom(5, 2) == 10
    assert binom(5, -1) == 0
    assert binom(2, 5) == 0  # integer collapse
    assert binom(F(-1, 2), 2) == F(3, 8)
    assert binom(-1, 0) == 1


def _rational(rng):
    d = rng.choice((1, 2, 3, 7))
    return F(rng.randint(-40 * d, 40 * d), d)


def _scalar_case(seed):
    rng = random.Random(seed)
    return rng.choice((rng.randint(-40, 40), _rational(rng), str(_rational(rng)))), rng.randint(-2, 14)


@settings(max_examples=400)
@given(st.integers(0, 2**32).map(_scalar_case))
@example(("-1/2", 14))
@example((0, 0))
def test_binom_pochhammer_match_fraction_oracles(case):
    a, k = case
    got = binom(a, k)
    assert type(got) is F and got == ref_binom(F(a), k)
    if k >= 0:
        got = pochhammer(a, k)
        assert type(got) is F and got == ref_pochhammer(F(a), k)
    # a negative length raises on every call: the memo never stores a failure
    for _ in range(2):
        with pytest.raises(ValueError):
            pochhammer(a, -1)


def test_binom_agrees_with_math_comb():
    for a in range(41):
        for b in range(a + 1):
            assert binom(a, b) == math.comb(a, b)


def test_qs_add_identities():
    one_plus_q = QSeries.from_numerators([1, 1, 0, 0, 0])
    zero = QSeries.zero(5)
    assert one_plus_q + zero == one_plus_q
    assert (one_plus_q + (-one_plus_q)).is_zero()


def test_qs_add_prec_propagation():
    # leading coefficients of the weight-4/6 generators, summed by hand
    a = QSeries.from_numerators([1, 240, 2160])
    b = QSeries.from_numerators([1, -504])
    s = a + b
    assert s.prec == 2
    assert s.coeffs == (F(2), F(-264))


def test_qs_mul():
    one = QSeries.one(7)
    x = QSeries(7, [3, -1, F(1, 2), 0, 0, 0, 0])
    assert x * one == x
    sq = QSeries.from_numerators([1, 1, 0]) * QSeries.from_numerators([1, 1, 0])
    assert sq.coeffs == (F(1), F(2), F(1))


def test_qs_mul_eisenstein_square_oracle():
    # E4*E4 to q^2 from the divisor-sum convolution
    e4 = QSeries.from_numerators([1, 240 * sigma_oracle(1, 3), 240 * sigma_oracle(2, 3)])
    prod = e4 * e4
    assert prod.coeffs == (F(1), F(480), F(61920))


def test_qs_derive():
    const = QSeries.constant(7, 5)
    assert const.derive().is_zero()
    q = QSeries.from_numerators([0, 1, 0, 0, 0])
    assert q.derive() == q
    e4 = QSeries.from_numerators([1, 240 * sigma_oracle(1, 3), 240 * sigma_oracle(2, 3)])
    assert e4.derive().coeffs == (F(0), F(240), F(4320))
    assert e4.derive().prec == e4.prec


def _random_series(rng, prec):
    return QSeries(prec, [F(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(prec)])


def test_qs_ring_axioms_and_derivation_property():
    rng = random.Random(2024)
    for _ in range(25):
        prec = rng.randint(2, 6)
        a, b, c = (_random_series(rng, prec) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a * b).derive() == a.derive() * b + a * b.derive()


def _sparse_series(rng, max_prec, max_abs):
    """Zero-heavy series: up to 12 nonzero coefficients over mixed denominators, numerators
    of every size up to max_abs (max_abs shifted right by a drawn bit count bounds each)."""
    prec = rng.randint(1, max_prec)
    nonzero = {}
    for _ in range(rng.randint(0, 12)):
        num = rng.choice((-1, 1)) * rng.randint(1, max_abs >> rng.randrange(max_abs.bit_length()))
        nonzero[rng.randrange(prec)] = F(num, rng.choice((1, 2, 7, 144, 691)))
    return QSeries(prec, tuple(nonzero.get(i, F(0)) for i in range(prec)))


_BIG = 2**201 - 1  # widest 201-bit numerator
_FULL = QSeries(160, (F(_BIG),) * 160)


def _series_pair(seed, max_prec, max_abs):
    rng = random.Random(seed)
    return _sparse_series(rng, max_prec, max_abs), _sparse_series(rng, max_prec, max_abs)


@settings(max_examples=150)
@given(st.integers(0, 2**32).map(lambda seed: _series_pair(seed, 160, _BIG)))
@example((QSeries.zero(160), _FULL))
@example((_FULL, _FULL))  # every Cauchy sum at its largest magnitude
@example((-_FULL, _FULL.truncate(159)))
def test_qs_mul_matches_fraction_oracle(case):
    a, b = case
    got = a * b
    assert got.prec == min(a.prec, b.prec)
    assert got.coeffs == ref_qs_mul(a.coeffs, b.coeffs)
    assert all(type(c) is F for c in got.coeffs)


@pytest.mark.parametrize("prec", [7, 15, 31, 63])
def test_qs_mul_is_exact_at_the_slot_boundary(prec):
    # When wa + wb + prec.bit_length() is a whole number of bytes, a slot
    # without the two guard bits is exactly that wide, and the Cauchy sums of
    # all-extreme numerators +-(2^w - 1) carry into the next slot.  For an odd
    # bit length 2w + bit_length is odd, so there wb = wa + 1.
    odd = prec.bit_length() % 2
    wa = next(w for w in range(8, 16) if (2 * w + odd + prec.bit_length()) % 8 == 0)
    signs = [(1,) * prec, (-1,) * prec, tuple((-1) ** i for i in range(prec))]
    for sa in signs:
        for sb in signs:
            a = QSeries.from_numerators([s * (2**wa - 1) for s in sa])
            b = QSeries.from_numerators([s * (2 ** (wa + odd) - 1) for s in sb])
            assert (a * b).coeffs == ref_qs_mul(a.coeffs, b.coeffs)


def _pow_series(seed):
    """The zero series, a constant or a short series with non-integral coefficients, some zero."""
    rng = random.Random(seed)
    prec = rng.randint(1, 10)
    kind = rng.randrange(4)
    if kind == 0:
        return QSeries.zero(prec)
    if kind == 1:
        return QSeries.constant(_small_coeff(rng), prec)
    return QSeries(prec, [_small_coeff(rng) if rng.random() < 0.7 else F(0) for _ in range(prec)])


def _wide_series(seed):
    # 64-bit numerators keep the reference's fifth powers within the time budget
    return _sparse_series(random.Random(seed), 160, 2**64)


@pytest.mark.parametrize("case,top", [(_wide_series, 5), (_pow_series, 40)], ids=["prec-160-e5", "prec-10-e40"])
@settings(max_examples=60)
@given(seed=st.integers(0, 2**32))
def test_qs_pow_matches_repeated_oracle_products(case, top, seed):
    a = case(seed)
    want = ref_qs_pow(a.coeffs, 0)
    for e in range(top + 1):
        assert a.pow(e).coeffs == want
        want = ref_qs_mul(want, a.coeffs)
    with pytest.raises(ValueError):
        a.pow(-1)


def _pow_poly(seed):
    """The zero polynomial, a constant, or at most 3 terms in one variable or 2 in two (so that
    the 40th power stays small), with non-integral coefficients; some are IsobaricPolys."""
    rng = random.Random(seed)
    vars = ("x",) if rng.random() < 0.5 else ("x", "y")
    kind = rng.randrange(4)
    if kind == 0:
        p = MPoly.zero(vars)
    elif kind == 1:
        p = MPoly.const(vars, _small_coeff(rng))
    else:
        p = _mpoly(rng, vars, max_terms=4 - len(vars), max_exp=2)
    return IsobaricPoly(_mpoly(rng, ("g4", "g6"), max_terms=2, max_exp=2).terms) if rng.random() < 0.2 else p


@settings(max_examples=60)
@given(st.integers(0, 2**32).map(_pow_poly))
def test_mpoly_pow_matches_the_old_loop(a):
    want = ref_poly_pow(a.terms, 0, len(a.vars))
    for e in range(41):
        got = a.pow(e)
        assert type(got) is type(a) and got.terms == want and a**e == got
        want = ref_poly_mul(want, a.terms)
    with pytest.raises(ValueError):
        a.pow(-1)


def _assert_canonical(s):
    """The storage invariant: one positive denominator in lowest terms."""
    assert s.den > 0 and math.gcd(s.den, *s.nums) == 1
    assert len(s.nums) == s.prec and all(type(n) is int for n in s.nums)
    if s.is_zero():
        assert s.den == 1
    assert all(type(c) is F for c in s.coeffs)
    assert s.nums == tuple(c.numerator * (s.den // c.denominator) for c in s.coeffs)


# each operation on two QSeries, and on their coefficient tuples by the reference
_OPS = {
    "add": (lambda a, b, c, e: a + b, lambda a, b, c, e: ref_qs_add(a, b)),
    "sub": (lambda a, b, c, e: a - b, lambda a, b, c, e: ref_qs_sub(a, b)),
    "neg": (lambda a, b, c, e: -a, lambda a, b, c, e: ref_qs_scale(a, -1)),
    "mul": (lambda a, b, c, e: a * b, lambda a, b, c, e: ref_qs_mul(a, b)),
    "derive": (lambda a, b, c, e: a.derive(), lambda a, b, c, e: ref_qs_derive(a)),
    "scale": (lambda a, b, c, e: a.scale(c), lambda a, b, c, e: ref_qs_scale(a, c)),
    "pow": (lambda a, b, c, e: a.pow(e), lambda a, b, c, e: ref_qs_pow(a, e)),
    "truncate": (lambda a, b, c, e: a.truncate(max(1, a.prec - e)),
                 lambda a, b, c, e: ref_qs_truncate(a, max(1, len(a) - e))),
    "shift": (lambda a, b, c, e: a.shift(e), lambda a, b, c, e: ref_qs_shift(a, e)),
}


def _coeff_list(rng):
    return [F(rng.randint(-10**6, 10**6), rng.choice((1, 2, 3, 7, 144, 691))) if rng.random() < 0.5 else F(0)
            for _ in range(rng.randint(1, 30))]


def _kernel_case(seed):
    rng = random.Random(seed)
    op, xs, ys = rng.choice(sorted(_OPS)), _coeff_list(rng), _coeff_list(rng)
    return op, xs, ys, rng.choice((F(0), _rational(rng))), rng.randint(0, 4)


@settings(max_examples=400)
@given(st.integers(0, 2**32).map(_kernel_case))
@example(("mul", [F(0)] * 6, [F(1, 2)] * 6, F(1), 0))  # the zero series
@example(("scale", [F(1, 3), F(2)], [F(1)], F(0), 0))  # zero scale
@example(("add", [F(1, 2)], [F(1, 3)], F(1), 0))  # prec 1
@example(("add", [F(1, 2), F(1, 3)], [F(1, 2), F(2, 3)], F(1), 0))  # denominators cancel to 1
@example(("sub", [F(1, 7)] * 5, [F(1, 7), F(-1, 7), F(0)], F(1), 0))  # min(prec) is 3
@example(("derive", [F(5), F(1, 2), F(1, 4)], [F(1)], F(1), 0))  # 1/2 and 2/4 become integers
@example(("truncate", [F(1), F(1, 691)], [F(1)], F(1), 1))  # the denominator leaves with q^1
def test_qs_kernels_match_fraction_tuple_oracle(case):
    op, xs, ys, c, e = case
    a, b = QSeries(len(xs), tuple(xs)), QSeries(len(ys), tuple(ys))
    for s in (a, b):
        _assert_canonical(s)
    kernel, reference = _OPS[op]
    got, want = kernel(a, b, c, e), reference(tuple(xs), tuple(ys), c, e)
    assert got.prec == len(want) and got.coeffs == want
    _assert_canonical(got)
    assert got.to_json_obj() == {"prec": len(want), "coeffs": [str(x) for x in want]}
    back = QSeries.from_json_obj(json.loads(json.dumps(got.to_json_obj())))
    assert back == got and hash(back) == hash(got)
    rebuilt = QSeries(len(want), want)
    assert rebuilt == got and hash(rebuilt) == hash(got)


def _hash_case(seed):
    """(xs, ys, c): two coefficient lists and a nonzero scale."""
    rng = random.Random(seed)
    return _coeff_list(rng), _coeff_list(rng), _rational(rng) or F(1, 7)


@settings(max_examples=80)
@given(st.integers(0, 2**32).map(_hash_case))
def test_qs_equal_series_hash_equal_whatever_built_them(case):
    xs, ys, c = case
    a, b = QSeries(len(xs), tuple(xs)), QSeries(len(ys), tuple(ys))
    for left, right in (
        ((a * b).derive(), a.derive() * b + a * b.derive()),
        (a.scale(c).scale(1 / c), a),
        (a - a, QSeries.zero(a.prec)),
        (a + b - b, a.truncate(min(a.prec, b.prec))),
        ((a * b).shift(2).truncate(min(a.prec, b.prec) + 1), a.shift(1) * b.shift(1)),
    ):
        _assert_canonical(left)
        _assert_canonical(right)
        assert left == right and hash(left) == hash(right)


def test_qs_min_prec_rule():
    rng = random.Random(5)
    a = _random_series(rng, 7)
    b = _random_series(rng, 4)
    assert (a + b).prec == 4
    assert (a * b).prec == 4
    with pytest.raises(IndexError):
        (a * b).coeff(4)


def test_qs_json_roundtrip():
    a = QSeries(3, [F(1, 6), -4, 0])
    obj = a.to_json_obj()
    assert obj == {"prec": 3, "coeffs": ["1/6", "-4", "0"]}
    assert QSeries.from_json_obj(obj) == a


@settings(max_examples=60)
@given(st.integers(0, 2**32).map(lambda seed: _sparse_series(random.Random(seed), 40, _BIG)))
def test_qs_json_round_trips(a):
    obj = json.loads(json.dumps(a.to_json_obj()))
    assert QSeries.from_json_obj(obj) == a


@settings(max_examples=80)
@given(st.integers(0, 2**32).map(lambda seed: _series_pair(seed, 40, 10**6)))
def test_qs_derive_leibniz_rule(case):
    a, b = case
    # D = q d/dq is a derivation, at the smaller precision of mixed operands
    got = (a * b).derive()
    assert got == a.derive() * b + a * b.derive()
    assert got.prec == min(a.prec, b.prec)


def test_mpoly_basic_arithmetic():
    k, l = MPoly.variables(("k", "l"))
    assert (k + l) * (k - l) == k * k - l * l
    p = 2 * l * (k + l)
    assert p.substitute({"l": MPoly.zero(("k", "l"))}).is_zero()


def test_mpoly_substitute_superset_and_errors():
    k, l = MPoly.variables(("k", "l"))
    target = ("k", "l", "m")
    m = MPoly.var(target, "m")
    image = (k * l).substitute({"l": m * m})
    assert image == MPoly.var(target, "k") * m * m
    with pytest.raises(KeyError):
        (k * l).substitute({"zz": m})


def test_mpoly_coeff_of():
    vars = ("k", "l")
    p = MPoly(vars, {(2, 0): -3, (0, 1): F(1, 2)})
    assert p.coeff_of((2, 0)) == -3
    assert p.coeff_of((1, 1)) == 0
    assert p.coeff_of_monomial(k=2) == -3


def test_mpoly_positivity_witness():
    k, l = MPoly.variables(("k", "l"))
    ok, witness = (1 + k * l).all_coeffs_positive()
    assert ok and witness is None
    ok, witness = (k - l).all_coeffs_positive()
    assert not ok
    assert witness == ((0, 1), F(-1))


_VARS = ("x", "y", "z")


def _small_coeff(rng):
    return F(rng.randint(-6, 6), rng.randint(1, 4))


def _mpoly(rng, vars=_VARS, max_terms=5, max_exp=3, coeff=_small_coeff):
    terms = {tuple(rng.randint(0, max_exp) for _ in vars): coeff(rng) for _ in range(rng.randint(0, max_terms))}
    return MPoly(vars, terms)


def _ring_case(seed):
    rng = random.Random(seed)
    return _mpoly(rng), _mpoly(rng), _mpoly(rng), rng.randint(0, 3)


@settings(max_examples=60)
@given(st.integers(0, 2**32).map(_ring_case))
def test_mpoly_ring_axioms(case):
    a, b, c, e = case
    zero, one = MPoly.zero(_VARS), MPoly.const(_VARS, 1)
    assert (a * b) * c == a * (b * c)
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
    assert a + zero == a and a * one == a and (a * zero).is_zero()
    assert (a - a).is_zero() and a - b == -(b - a)
    power = one
    for _ in range(e):
        power = power * a
    assert a.pow(e) == power


def _ring_result_case(seed):
    rng = random.Random(seed)
    if rng.random() < 0.5:
        a, b = _mpoly(rng), _mpoly(rng)
    else:
        a, b = (IsobaricPoly(_mpoly(rng, ("g4", "g6")).terms) for _ in range(2))
    return a, b, 0 if rng.random() < 0.5 else _small_coeff(rng), rng.randint(0, 3)


@settings(max_examples=100)
@given(st.integers(0, 2**32).map(_ring_result_case))
def test_mpoly_ring_results_pass_the_validating_constructor(case):
    # ring results skip the exponent checks of MPoly.__init__: each must be
    # exactly what the validating constructor builds from its terms
    a, b, c, e = case
    for r in (a + b, a - b, -a, a * b, a * c, c * a, a + c, c - a, a.pow(e)):
        assert type(r) is type(a) and r == MPoly(a.vars, r.terms)
        assert all(type(v) is F for v in r.terms.values())


@settings(max_examples=60)
@given(st.integers(0, 2**32).map(_ring_case))
def test_mpoly_div_exact_round_trips(case):
    a, b, _, _ = case
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.div_exact(b)
        return
    assert (a * b).div_exact(b) == a
    if any(any(exp) for exp in b.terms):
        # a non-constant divisor never divides a * b + 1
        with pytest.raises(ValueError):
            (a * b + 1).div_exact(b)


_TARGET = ("x", "y", "z", "w")


def test_mpoly_div_exact():
    x, y = MPoly.variables(("x", "y"))
    p = (x + y) * (x * x - y + 3)
    assert p.div_exact(x + y) == x * x - y + 3
    with pytest.raises(ValueError):
        (x * x + 1).div_exact(x + y)


def test_mpoly_json_roundtrip():
    vars = ("a", "b")
    p = MPoly(vars, {(1, 2): F(-7, 3), (0, 0): 5})
    obj = p.to_json_obj()
    assert obj == [{"exp": [0, 0], "c": "5"}, {"exp": [1, 2], "c": "-7/3"}]
    assert MPoly.from_json_obj(vars, obj) == p


def test_mpoly_rejects_negative_exponents():
    with pytest.raises(ValueError, match="exponents must be >= 0"):
        MPoly.from_json_obj(("x",), [{"exp": [-1], "c": "1"}])
    with pytest.raises(ValueError, match="exponents must be >= 0"):
        MPoly(("x", "y"), {(2, -3): F(1, 2)})
    assert MPoly(("x",), {(-1,): 0}).is_zero()  # zero terms are dropped unchecked


@settings(max_examples=60)
@given(st.integers(0, 2**32).map(lambda seed: _mpoly(random.Random(seed), max_terms=8, max_exp=5)))
def test_mpoly_json_round_trips(p):
    obj = json.loads(json.dumps(p.to_json_obj()))
    back = MPoly.from_json_obj(_VARS, obj)
    assert back == p and back.to_json_obj() == obj


def _mixed_coeff(rng):
    """Numerators up to 2^70 over denominators whose lcm varies from term to term."""
    num = rng.randint(-9, 9) if rng.random() < 0.5 else rng.randint(-(2**70), 2**70)
    return F(num, rng.choice((1, 2, 3, 4, 6, 7, 9, 12, 35, 2**61 - 1)))


def _mixed_mpoly(rng, vars=_VARS, max_terms=6, max_exp=3):
    return rng.choice((_mpoly(rng, vars, max_terms, max_exp, _mixed_coeff),
                       MPoly(vars, {(0,) * len(vars): _mixed_coeff(rng)}), MPoly.zero(vars)))


def _same(got, vars, want):
    assert type(got) is MPoly and got.vars == vars and got.terms == want
    assert all(type(c) is F and c != 0 for c in got.terms.values())


def _mixed_product_case(seed):
    rng = random.Random(seed)
    return _mixed_mpoly(rng), _mixed_mpoly(rng), rng.randint(0, 4), _mixed_coeff(rng)


@settings(max_examples=300)
@given(st.integers(0, 2**32).map(_mixed_product_case))
@example((MPoly.zero(_VARS), MPoly.const(_VARS, F(3, 4)), 0, F(0)))
@example((MPoly(_VARS, {(1, 0, 0): F(1, 2), (0, 1, 0): F(-1, 3)}), MPoly.const(_VARS, 6), 3, F(-5, 7)))
def test_mpoly_mul_and_pow_match_fraction_oracle(case):
    a, b, e, c = case
    constant = {(0,) * len(_VARS): c}
    _same(a * b, _VARS, ref_poly_mul(a.terms, b.terms))
    _same(a.pow(e), _VARS, ref_poly_pow(a.terms, e, len(_VARS)))
    _same(a * c, _VARS, ref_poly_mul(a.terms, constant))
    _same(c * a, _VARS, ref_poly_mul(constant, a.terms))


def _substitution_case(seed):
    """(p, mapping): every variable mapped, none of the used ones, or any subset; half the images are zero."""
    rng = random.Random(seed)
    mode = rng.choice(("all", "none-used", "some"))
    if mode == "all":
        tvars, keys = ("u", "v"), _VARS
    else:
        tvars = _TARGET
        keys = ("z",) if mode == "none-used" else rng.sample(_VARS, rng.randint(1, 3))
    p = _mixed_mpoly(rng, max_terms=8)
    if mode == "none-used":
        p = MPoly(_VARS, {(x, y, 0): c for (x, y, _), c in p.terms.items()})
    images = [_mixed_mpoly(rng, tvars, max_terms=3, max_exp=2) for _ in keys]
    return p, {name: rng.choice((img, MPoly.zero(tvars))) for name, img in zip(keys, images)}


@settings(max_examples=360)
@given(st.integers(0, 2**32).map(_substitution_case))
def test_mpoly_substitute_matches_fraction_oracle(case):
    p, mapping = case
    tvars = next(iter(mapping.values())).vars
    want = ref_poly_substitute(p.terms, _VARS, {name: img.terms for name, img in mapping.items()}, tvars)
    _same(p.substitute(mapping), tvars, want)


def _evaluation_case(seed):
    rng = random.Random(seed)
    point = {name: rng.choice((rng.randint(-5, 5), F(rng.randint(-(2**40), 2**40), rng.randint(1, 2**20)),
                               f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}")) for name in _VARS}
    return _mixed_mpoly(rng, max_exp=5), point, rng.choice(_VARS)


@settings(max_examples=300)
@given(st.integers(0, 2**32).map(_evaluation_case))
@example((MPoly.zero(_VARS), {}, "x"))
@example((MPoly.const(_VARS, F(-7, 3)), {}, "y"))
def test_mpoly_evaluate_matches_fraction_oracle(case):
    p, point, dropped = case
    got = p.evaluate(point)
    assert type(got) is F and got == ref_poly_evaluate(p.terms, _VARS, point)
    partial = {name: v for name, v in point.items() if name != dropped}
    if any(exp[_VARS.index(dropped)] for exp in p.terms):
        # a used variable that is not given: the same KeyError, naming it
        with pytest.raises(KeyError) as want:
            ref_poly_evaluate(p.terms, _VARS, partial)
        with pytest.raises(KeyError) as got_err:
            p.evaluate(partial)
        assert got_err.value.args == want.value.args == (dropped,)
    else:
        assert p.evaluate(partial) == got


def test_div_exact_names_the_first_remainder_term():
    x, y = MPoly.variables(("x", "y"))
    with pytest.raises(NotDivisibleError, match="not exactly divisible") as exc:
        (x * x * y + 3 * y - 2).div_exact(x + y)
    # x^2 y - (x + y) x y = -x y^2, and -x y^2 + (x + y) y^2 = y^3: the first remainder
    assert exc.value.term == ((0, 3), F(1))
