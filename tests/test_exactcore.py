import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rclab.exactcore import MPoly, QSeries, binom, pochhammer


def sigma(n, power):
    return sum(d**power for d in range(1, n + 1) if n % d == 0)


def test_scalar_helpers():
    assert pochhammer(3, 0) == 1
    assert pochhammer(F(1, 2), 3) == F(1, 2) * F(3, 2) * F(5, 2)
    assert binom(5, 2) == 10
    assert binom(5, -1) == 0
    assert binom(2, 5) == 0  # integer collapse
    assert binom(F(-1, 2), 2) == F(3, 8)
    assert binom(-1, 0) == 1


def _pochhammer_oracle(a, n):
    # the per-factor Fraction loop that pochhammer used before its int kernel
    if n < 0:
        raise ValueError(n)
    a = F(a)
    out = F(1)
    for i in range(n):
        out *= a + i
    return out


def _binom_oracle(a, b):
    # the per-factor Fraction loop that binom used before its int kernel
    if b < 0:
        return F(0)
    a = F(a)
    num = F(1)
    for i in range(b):
        num *= a - i
    return num / math.factorial(b)


_RATIONALS = st.sampled_from([1, 2, 3, 7]).flatmap(
    lambda d: st.integers(-40 * d, 40 * d).map(lambda p: F(p, d)))
_SCALAR_ARGS = st.one_of(st.integers(-40, 40), _RATIONALS, _RATIONALS.map(str))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_SCALAR_ARGS, st.integers(-2, 14))
@example("-1/2", 14)
@example(0, 0)
def test_binom_pochhammer_match_fraction_oracles(a, k):
    got = binom(a, k)
    assert type(got) is F and got == _binom_oracle(a, k)
    if k >= 0:
        got = pochhammer(a, k)
        assert type(got) is F and got == _pochhammer_oracle(a, k)
    # a negative length raises on every call: the memo never stores a failure
    for _ in range(2):
        with pytest.raises(ValueError):
            pochhammer(a, -1)


def test_binom_agrees_with_math_comb():
    for a in range(41):
        for b in range(a + 1):
            assert binom(a, b) == math.comb(a, b)


def test_qs_add_identities():
    one_plus_q = QSeries.from_coeffs([1, 1, 0, 0, 0])
    zero = QSeries.zero(5)
    assert one_plus_q + zero == one_plus_q
    assert (one_plus_q + (-one_plus_q)).is_zero()


def test_qs_add_prec_propagation():
    # leading coefficients of the weight-4/6 generators, summed by hand
    a = QSeries.from_coeffs([1, 240, 2160])
    b = QSeries.from_coeffs([1, -504])
    s = a + b
    assert s.prec == 2
    assert s.coeffs == (F(2), F(-264))


def test_qs_mul():
    one = QSeries.one(7)
    x = QSeries.from_coeffs([3, -1, F(1, 2)], 7)
    assert x * one == x
    sq = QSeries.from_coeffs([1, 1], 3) * QSeries.from_coeffs([1, 1], 3)
    assert sq.coeffs == (F(1), F(2), F(1))


def test_qs_mul_eisenstein_square_oracle():
    # E4*E4 to q^2 from the divisor-sum convolution
    e4 = QSeries.from_coeffs([1, 240 * sigma(1, 3), 240 * sigma(2, 3)])
    prod = e4 * e4
    assert prod.coeffs == (F(1), F(480), F(61920))


def test_qs_derive():
    const = QSeries.constant(7, 5)
    assert const.derive().is_zero()
    q = QSeries.q(5)
    assert q.derive() == q
    e4 = QSeries.from_coeffs([1, 240 * sigma(1, 3), 240 * sigma(2, 3)])
    assert e4.derive().coeffs == (F(0), F(240), F(4320))
    assert e4.derive().prec == e4.prec


def _random_series(rng, prec):
    return QSeries.from_coeffs(
        [F(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(prec)]
    )


def test_qs_ring_axioms_and_derivation_property():
    rng = random.Random(2024)
    for _ in range(25):
        prec = rng.randint(2, 6)
        a, b, c = (_random_series(rng, prec) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a * b).derive() == a.derive() * b + a * b.derive()


def _schoolbook_mul(a, b):
    """Reference product: the Fraction double loop the integer kernel replaced."""
    prec = min(a.prec, b.prec)
    out = [F(0)] * prec
    for i, x in enumerate(a.coeffs[:prec]):
        if x == 0:
            continue
        for j in range(prec - i):
            y = b.coeffs[j]
            if y != 0:
                out[i + j] += x * y
    return type(a)(prec, tuple(out))


@dataclass(frozen=True)
class _FractionQSeries:
    """QSeries as a tuple of Fractions, one Fraction operation per coefficient.

    The storage the integer-numerator QSeries replaced, kept as the reference
    that every kernel of the new type is checked against.
    """

    prec: int
    coeffs: tuple

    def __add__(self, other):
        return _FractionQSeries(min(self.prec, other.prec),
                                tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return _FractionQSeries(min(self.prec, other.prec),
                                tuple(x - y for x, y in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return _FractionQSeries(self.prec, tuple(-x for x in self.coeffs))

    __mul__ = _schoolbook_mul

    def scale(self, c):
        return _FractionQSeries(self.prec, tuple(F(c) * x for x in self.coeffs))

    def derive(self):
        return _FractionQSeries(self.prec, tuple(n * x for n, x in enumerate(self.coeffs)))

    def truncate(self, prec):
        return _FractionQSeries(prec, self.coeffs[:prec])

    def shift(self, k):
        return _FractionQSeries(self.prec + k, (F(0),) * k + self.coeffs)

    def pow(self, e):
        out = _FractionQSeries(self.prec, (F(1),) + (F(0),) * (self.prec - 1))
        for _ in range(e):
            out = out * self
        return out

    def to_json_obj(self):
        return {"prec": self.prec, "coeffs": [str(x) for x in self.coeffs]}


def _sparse_series(max_prec, max_abs):
    """Zero-heavy series: a few nonzero coefficients over mixed denominators."""
    coeff = st.builds(
        F, st.integers(-max_abs, max_abs).filter(bool), st.sampled_from((1, 2, 7, 144, 691))
    )

    @st.composite
    def build(draw):
        prec = draw(st.integers(1, max_prec))
        nonzero = draw(st.dictionaries(st.integers(0, prec - 1), coeff, max_size=12))
        return QSeries(prec, tuple(nonzero.get(i, F(0)) for i in range(prec)))

    return build()


_BIG = 2**201 - 1  # widest 201-bit numerator
_FULL = QSeries(160, (F(_BIG),) * 160)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_sparse_series(160, _BIG), _sparse_series(160, _BIG))
@example(QSeries.zero(160), _FULL)
@example(_FULL, _FULL)  # every Cauchy sum at its largest magnitude
@example(-_FULL, _FULL.truncate(159))
def test_qs_mul_matches_fraction_oracle(a, b):
    got = a * b
    assert got.prec == min(a.prec, b.prec)
    assert got.coeffs == _schoolbook_mul(a, b).coeffs
    assert all(type(c) is F for c in got.coeffs)


# 64-bit numerators keep the oracle's fifth powers within the time budget
@settings(max_examples=40, derandomize=True, deadline=None)
@given(_sparse_series(160, 2**64))
def test_qs_pow_matches_repeated_oracle_products(a):
    want = QSeries.one(a.prec)
    for e in range(6):
        assert a.pow(e) == want
        want = _schoolbook_mul(want, a)


def _assert_canonical(s):
    """The storage invariant: one positive denominator in lowest terms."""
    assert s.den > 0 and math.gcd(s.den, *s.nums) == 1
    assert len(s.nums) == s.prec and all(type(n) is int for n in s.nums)
    if s.is_zero():
        assert s.den == 1
    assert all(type(c) is F for c in s.coeffs)
    assert s.nums == tuple(c.numerator * (s.den // c.denominator) for c in s.coeffs)


_OPS = {
    "add": lambda a, b, c, e: a + b,
    "sub": lambda a, b, c, e: a - b,
    "neg": lambda a, b, c, e: -a,
    "mul": lambda a, b, c, e: a * b,
    "derive": lambda a, b, c, e: a.derive(),
    "scale": lambda a, b, c, e: a.scale(c),
    "pow": lambda a, b, c, e: a.pow(e),
    "truncate": lambda a, b, c, e: a.truncate(max(1, a.prec - e)),
    "shift": lambda a, b, c, e: a.shift(e),
}
_COEFF_LISTS = st.lists(
    st.one_of(st.just(F(0)), st.builds(F, st.integers(-10**6, 10**6),
                                       st.sampled_from((1, 2, 3, 7, 144, 691)))),
    min_size=1, max_size=30)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.sampled_from(sorted(_OPS)), _COEFF_LISTS, _COEFF_LISTS,
       st.one_of(st.just(F(0)), _RATIONALS), st.integers(0, 4))
@example("mul", [F(0)] * 6, [F(1, 2)] * 6, F(1), 0)  # the zero series
@example("scale", [F(1, 3), F(2)], [F(1)], F(0), 0)  # zero scale
@example("add", [F(1, 2)], [F(1, 3)], F(1), 0)  # prec 1
@example("add", [F(1, 2), F(1, 3)], [F(1, 2), F(2, 3)], F(1), 0)  # denominators cancel to 1
@example("sub", [F(1, 7)] * 5, [F(1, 7), F(-1, 7), F(0)], F(1), 0)  # min(prec) is 3
@example("derive", [F(5), F(1, 2), F(1, 4)], [F(1)], F(1), 0)  # 1/2 and 2/4 become integers
@example("truncate", [F(1), F(1, 691)], [F(1)], F(1), 1)  # the denominator leaves with q^1
def test_qs_kernels_match_fraction_tuple_oracle(op, xs, ys, c, e):
    a, b = QSeries(len(xs), tuple(xs)), QSeries(len(ys), tuple(ys))
    for s in (a, b):
        _assert_canonical(s)
    got = _OPS[op](a, b, c, e)
    want = _OPS[op](_FractionQSeries(len(xs), tuple(xs)), _FractionQSeries(len(ys), tuple(ys)), c, e)
    assert got.prec == want.prec and got.coeffs == want.coeffs
    _assert_canonical(got)
    assert got.to_json_obj() == want.to_json_obj()
    back = QSeries.from_json_obj(json.loads(json.dumps(got.to_json_obj())))
    assert back == got and hash(back) == hash(got)
    rebuilt = QSeries(want.prec, want.coeffs)
    assert rebuilt == got and hash(rebuilt) == hash(got)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(_COEFF_LISTS, _COEFF_LISTS, _RATIONALS.filter(bool))
def test_qs_equal_series_hash_equal_whatever_built_them(xs, ys, c):
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
    a = QSeries.from_coeffs([F(1, 6), -4, 0], 3)
    obj = a.to_json_obj()
    assert obj == {"prec": 3, "coeffs": ["1/6", "-4", "0"]}
    assert QSeries.from_json_obj(obj) == a


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_sparse_series(40, _BIG))
def test_qs_json_round_trips(a):
    obj = json.loads(json.dumps(a.to_json_obj()))
    assert QSeries.from_json_obj(obj) == a


@settings(max_examples=80, derandomize=True, deadline=None)
@given(_sparse_series(40, 10**6), _sparse_series(40, 10**6))
def test_qs_derive_leibniz_rule(a, b):
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
_MPOLY_COEFFS = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


def _mpolys(vars=_VARS, max_terms=5, max_exp=3):
    exps = st.tuples(*[st.integers(0, max_exp)] * len(vars))
    return st.dictionaries(exps, _MPOLY_COEFFS, max_size=max_terms).map(lambda t: MPoly(vars, t))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_mpolys(), _mpolys(), _mpolys(), st.integers(0, 3))
def test_mpoly_ring_axioms(a, b, c, e):
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


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_mpolys(), _mpolys())
def test_mpoly_div_exact_round_trips(a, b):
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.div_exact(b)
        return
    assert (a * b).div_exact(b) == a
    if any(any(exp) for exp in b.terms):
        # a non-constant divisor never divides a * b + 1
        with pytest.raises(ValueError):
            (a * b + 1).div_exact(b)


def _substitute_oracle(p, mapping):
    # MPoly.substitute before it shared each image power across terms:
    # one pow per (term, variable) and a fresh sum per term
    tvars = next(iter(mapping.values())).vars
    images = [mapping[n] if n in mapping else MPoly.var(tvars, n) for n in p.vars]
    out = MPoly.zero(tvars)
    for exp, c in p.terms.items():
        term = MPoly.const(tvars, c)
        for img, e in zip(images, exp):
            if e:
                term = term * img.pow(e)
        out = out + term
    return out


_TARGET = ("x", "y", "z", "w")


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    _mpolys(max_terms=8),
    st.dictionaries(st.sampled_from(_VARS), _mpolys(_TARGET, max_terms=3, max_exp=2), min_size=1),
)
def test_mpoly_substitute_matches_termwise_oracle(p, mapping):
    assert p.substitute(mapping) == _substitute_oracle(p, mapping)


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


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_mpolys(max_terms=8, max_exp=5))
def test_mpoly_json_round_trips(p):
    obj = json.loads(json.dumps(p.to_json_obj()))
    back = MPoly.from_json_obj(_VARS, obj)
    assert back == p and back.to_json_obj() == obj
