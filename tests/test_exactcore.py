import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rclab.exactcore import MPoly, NotDivisibleError, QSeries, binom, pochhammer, rat
from rclab.uniq import IsobaricPoly


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
    e4 = QSeries.from_numerators([1, 240 * sigma(1, 3), 240 * sigma(2, 3)])
    prod = e4 * e4
    assert prod.coeffs == (F(1), F(480), F(61920))


def test_qs_derive():
    const = QSeries.constant(7, 5)
    assert const.derive().is_zero()
    q = QSeries.from_numerators([0, 1, 0, 0, 0])
    assert q.derive() == q
    e4 = QSeries.from_numerators([1, 240 * sigma(1, 3), 240 * sigma(2, 3)])
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
    a = QSeries(3, [F(1, 6), -4, 0])
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


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    st.one_of(
        st.tuples(_mpolys(), _mpolys()),
        st.tuples(*[_mpolys(("g4", "g6")).map(lambda p: IsobaricPoly(p.terms))] * 2),
    ),
    st.one_of(st.just(0), _MPOLY_COEFFS),
    st.integers(0, 3),
)
def test_mpoly_ring_results_pass_the_validating_constructor(ab, c, e):
    # ring results skip the exponent checks of MPoly.__init__: each must be
    # exactly what the validating constructor builds from its terms
    a, b = ab
    for r in (a + b, a - b, -a, a * b, a * c, c * a, a + c, c - a, a.pow(e)):
        assert type(r) is type(a) and r == MPoly(a.vars, r.terms)
        assert all(type(v) is F for v in r.terms.values())


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


class ReferenceMPoly(MPoly):
    """MPoly with the Fraction kernels it had before they summed in ints.

    __mul__, pow, substitute and evaluate are the old bodies verbatim, except
    that annotations are dropped, Fraction is spelled F and MPoly names this
    class, so every product an oracle makes is an old product too.
    """

    __slots__ = ()

    def _like(self, terms):
        return ReferenceMPoly(self.vars, terms)

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            c = rat(other)
            return self._like({e: c * v for e, v in self.terms.items()})
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, F(0)) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return self._like(out)

    __rmul__ = __mul__

    def pow(self, e):
        if e < 0:
            raise ValueError("negative powers are not defined")
        out = self._like({(0,) * len(self.vars): 1})
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def substitute(self, mapping):
        targets = list(mapping.values())
        if not targets:
            return self
        tvars = targets[0].vars
        for p in targets:
            if p.vars != tvars:
                raise ValueError("all substitution images must share one variable list")
        for name in mapping:
            if name not in self.vars:
                raise KeyError(f"unknown variable {name!r}; have {self.vars}")
        images = []
        for name in self.vars:
            if name in mapping:
                images.append(mapping[name])
            else:
                if name not in tvars:
                    raise KeyError(f"variable {name!r} missing from target variables {tvars}")
                images.append(ReferenceMPoly.var(tvars, name))
        powers = {}
        out = {}
        for exp, c in self.terms.items():
            term = ReferenceMPoly.const(tvars, c)
            for i, e in enumerate(exp):
                if e:
                    if (i, e) not in powers:
                        powers[i, e] = images[i].pow(e)
                    term = term * powers[i, e]
            for te, tc in term.terms.items():
                out[te] = out.get(te, F(0)) + tc
        return ReferenceMPoly(tvars, out)

    def evaluate(self, values):
        out = F(0)
        for exp, c in self.terms.items():
            v = c
            for name, e in zip(self.vars, exp):
                if e:
                    v *= rat(values[name]) ** e
            out += v
        return out

    @staticmethod
    def const(vars, c):
        return ReferenceMPoly(vars, {(0,) * len(vars): rat(c)})

    @staticmethod
    def var(vars, name):
        return ReferenceMPoly(vars, MPoly.var(vars, name).terms)


def _ref(p):
    return ReferenceMPoly(p.vars, p.terms)


# numerators up to 2^70 over denominators whose lcm varies from term to term
_MIXED_COEFFS = st.builds(
    F,
    st.one_of(st.integers(-9, 9), st.integers(-(2**70), 2**70)),
    st.sampled_from([1, 2, 3, 4, 6, 7, 9, 12, 35, 2**61 - 1]),
)


def _mixed_mpolys(vars=_VARS, max_terms=6, max_exp=3):
    exps = st.tuples(*[st.integers(0, max_exp)] * len(vars))
    terms = st.dictionaries(exps, _MIXED_COEFFS, max_size=max_terms)
    constants = st.builds(lambda c: {(0,) * len(vars): c}, _MIXED_COEFFS)
    return st.one_of(terms, constants, st.just({})).map(lambda t: MPoly(vars, t))


def _same(got, want):
    assert type(got) is MPoly and got.vars == want.vars and got.terms == want.terms
    assert all(type(c) is F and c != 0 for c in got.terms.values())


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_mixed_mpolys(), _mixed_mpolys(), st.integers(0, 4), _MIXED_COEFFS)
@example(MPoly.zero(_VARS), MPoly.const(_VARS, F(3, 4)), 0, F(0))
@example(MPoly(_VARS, {(1, 0, 0): F(1, 2), (0, 1, 0): F(-1, 3)}), MPoly.const(_VARS, 6), 3, F(-5, 7))
def test_mpoly_mul_and_pow_match_fraction_oracle(a, b, e, c):
    _same(a * b, _ref(a) * _ref(b))
    _same(a.pow(e), _ref(a).pow(e))
    _same(a * c, _ref(a) * c)
    _same(c * a, c * _ref(a))


@st.composite
def _substitutions(draw):
    """(p, mapping): every variable mapped, none of the used ones, or any subset."""
    mode = draw(st.sampled_from(["all", "none-used", "some"]))
    if mode == "all":
        tvars, keys = ("u", "v"), _VARS
    else:
        tvars = _TARGET
        keys = ("z",) if mode == "none-used" else draw(st.sets(st.sampled_from(_VARS), min_size=1))
    p = draw(_mixed_mpolys(max_terms=8))
    if mode == "none-used":
        p = MPoly(_VARS, {(x, y, 0): c for (x, y, _), c in p.terms.items()})
    images = st.one_of(_mixed_mpolys(tvars, max_terms=3, max_exp=2), st.just(MPoly.zero(tvars)))
    return p, {name: draw(images) for name in keys}


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_substitutions())
def test_mpoly_substitute_matches_fraction_oracle(case):
    p, mapping = case
    want = _ref(p).substitute({name: _ref(img) for name, img in mapping.items()})
    _same(p.substitute(mapping), want)


_POINT_VALUES = st.one_of(
    st.integers(-5, 5), st.builds(F, st.integers(-(2**40), 2**40), st.integers(1, 2**20)),
    st.builds(lambda n, d: f"{n}/{d}", st.integers(-9, 9), st.integers(1, 9)),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_mixed_mpolys(max_exp=5), st.fixed_dictionaries({v: _POINT_VALUES for v in _VARS}), st.sampled_from(_VARS))
@example(MPoly.zero(_VARS), {}, "x")
@example(MPoly.const(_VARS, F(-7, 3)), {}, "y")
def test_mpoly_evaluate_matches_fraction_oracle(p, point, dropped):
    got = p.evaluate(point)
    assert type(got) is F and got == _ref(p).evaluate(point)
    partial = {name: v for name, v in point.items() if name != dropped}
    if any(exp[_VARS.index(dropped)] for exp in p.terms):
        # a used variable that is not given: the same KeyError, naming it
        with pytest.raises(KeyError) as want:
            _ref(p).evaluate(partial)
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
