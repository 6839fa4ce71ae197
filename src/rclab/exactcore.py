"""Exact scalar, truncated q-series, and sparse multivariate polynomial arithmetic.

Everything downstream works over these three carriers:

  Rat     -- arbitrary-precision rationals (fractions.Fraction, always in
             lowest terms with positive denominator, so equality is structural)
  QSeries -- a truncated power series in q with Rat coefficients; ``prec`` is
             the number of known coefficients (powers 0..prec-1) and is
             propagated as min() through arithmetic, never silently extended.
             The coefficients are stored as Python-int numerators over one
             positive common denominator in lowest terms (gcd(den, *nums)
             == 1), every operation works on those ints, and a product is
             one exact big-int multiply (Kronecker substitution); Fractions
             are made only where a caller reads coefficients
  MPoly   -- a sparse polynomial over an ordered variable list, exponent
             vector -> Rat, with no zero coefficients stored; a product
             convolves int numerators over each operand's lcm denominator,
             evaluate sums in ints with one Fraction at the end, and
             substitute multiplies each group of terms that share their
             mapped exponents once by the image powers, each computed once

QSeries.pow and MPoly.pow are one binary power (_binary_power): no product
by one and no square past the top bit.

The scalar combinatorics, binom and pochhammer, take their whole product in
Python ints over the argument's numerator and denominator and build one
Fraction at the end.  Both are memoized without bound: the identity systems
ask for a few hundred distinct values some hundred thousand times.

One sparse eliminator serves every linear system downstream: eliminate
reduces a matrix once for any number of right-hand-side columns, and
Echelon.result reads off one column's SolveResult.  It is a fraction-free
Gauss-Jordan over Python ints: a row of ints is used as given (the identity
systems arrive that way), a row that holds a Fraction is first scaled to
integers, every stored pivot row is kept fully reduced and primitive
(content divided out), and Fractions are built only at the end, when each
pivot row is divided by its pivot.  A row on pivot columns only is checked
by evaluation.  Its result is the reduced row echelon form, which is
unique, so no reduction order can change it.

All values are immutable after construction and all operations are pure,
which is what makes sharing a memoized result between callers safe.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Rat = Fraction

RatLike = Rat | int | str


def rat(x: RatLike) -> Rat:
    """Coerce ints and 'p/q' strings to Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


@functools.lru_cache(maxsize=None)
def pochhammer(a: RatLike, n: int) -> Rat:
    """Rising factorial a(a+1)...(a+n-1), with the empty product equal to 1.

    For a = p/q this is prod(p + i*q) / q^n, computed in Python ints.
    """
    if n < 0:
        raise ValueError(f"pochhammer length must be >= 0, got {n}")
    a = rat(a)
    p, q = a.numerator, a.denominator
    return Fraction(math.prod(range(p, p + n * q, q)), q**n)


@functools.lru_cache(maxsize=None)
def binom(a: RatLike, b: int) -> Rat:
    """Generalized binomial coefficient C(a, b) = a(a-1)...(a-b+1)/b!.

    Defined for any rational a and integer b; zero for b < 0.  Agrees with
    math.comb on nonnegative integers and vanishes for integer 0 <= a < b.
    For a = p/q this is prod(p - i*q) / (q^b b!), computed in Python ints.
    """
    if b < 0:
        return Fraction(0)
    a = rat(a)
    p, q = a.numerator, a.denominator
    return Fraction(math.prod(range(p, p - b * q, -q)), q**b * math.factorial(b))


def _binary_power(base, e: int, one):
    """base**e, or one() for e == 0, with no product by one and no square past the top bit:
    bit_length(e) + popcount(e) - 2 products for e >= 1 (Knuth, TAOCP Vol. 2, 4.6.3)."""
    if e < 0:
        raise ValueError("negative powers are not defined")
    out = None
    while e:
        if e & 1:
            out = base if out is None else out * base
        e >>= 1
        if e:
            base = base * base
    return one() if out is None else out


# ---------------------------------------------------------------------------
# Truncated q-series
# ---------------------------------------------------------------------------


class QSeries:
    """Truncated q-expansion: the coefficient of q^i, i < prec, is nums[i] / den.

    The numerators are Python ints over one common denominator, kept in
    canonical form: den > 0 and gcd(den, *nums) == 1, so the zero series has
    den == 1 and two series with equal coefficients have equal (prec, nums,
    den).  Every operation works on the ints and reduces its result once.
    ``coeffs``, the coefficients as a tuple of Fractions, is built on first
    use and cached; the constructor takes such a tuple.
    """

    __slots__ = ("prec", "nums", "den", "_coeffs")

    def __init__(self, prec: int, coeffs: Sequence[RatLike]):
        if prec < 1:
            raise ValueError(f"prec must be >= 1, got {prec}")
        if len(coeffs) != prec:
            raise ValueError("coefficient list length must equal prec")
        cs = tuple(rat(c) for c in coeffs)
        # each c is in lowest terms, so the lcm leaves gcd(den, *nums) == 1
        den = math.lcm(*(c.denominator for c in cs))
        self.prec, self.den, self._coeffs = prec, den, cs
        self.nums = tuple(c.numerator * (den // c.denominator) for c in cs)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_numerators(nums: Sequence[int], den: int = 1) -> QSeries:
        """The series sum nums[i]/den q^i, prec = len(nums), with no Fraction built."""
        if not nums:
            raise ValueError("prec must be >= 1, got 0")
        if den < 1:
            raise ValueError(f"denominator must be >= 1, got {den}")
        return _reduced(len(nums), nums, den)

    @staticmethod
    def zero(prec: int) -> QSeries:
        return QSeries.constant(0, prec)

    @staticmethod
    def one(prec: int) -> QSeries:
        return QSeries.constant(1, prec)

    @staticmethod
    def constant(c: RatLike, prec: int) -> QSeries:
        if prec < 1:
            raise ValueError(f"prec must be >= 1, got {prec}")
        c = rat(c)
        return _canonical(prec, (c.numerator,) + (0,) * (prec - 1), c.denominator)

    # -- basic queries -----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Rat, ...]:
        """The coefficients as Fractions, built on first use and cached."""
        if self._coeffs is None:
            den = self.den
            self._coeffs = tuple([Fraction(n, den) for n in self.nums])
        return self._coeffs

    def coeff(self, i: int) -> Rat:
        if not 0 <= i < self.prec:
            raise IndexError(f"coefficient q^{i} not known at prec {self.prec}")
        return Fraction(self.nums[i], self.den)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def valuation(self) -> int | None:
        """Lowest power with nonzero coefficient, None for the zero series."""
        for i, n in enumerate(self.nums):
            if n:
                return i
        return None

    def truncate(self, prec: int) -> QSeries:
        if prec > self.prec:
            raise ValueError(f"cannot extend prec {self.prec} to {prec}")
        if prec < 1:
            raise ValueError(f"prec must be >= 1, got {prec}")
        if prec == self.prec:
            return self
        return _reduced(prec, self.nums[:prec], self.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.prec == other.prec and self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.prec, self.den, self.nums))

    def __repr__(self) -> str:
        return f"QSeries(prec={self.prec!r}, coeffs={self.coeffs!r})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: QSeries) -> QSeries:
        return self._combine(other, 1)

    def __sub__(self, other: QSeries) -> QSeries:
        return self._combine(other, -1)

    def _combine(self, other: QSeries, sign: int) -> QSeries:
        """self + sign*other over the lcm of the two denominators."""
        d = math.lcm(self.den, other.den)
        ma, mb = d // self.den, sign * (d // other.den)
        # zip stops at the shorter operand: the min(prec) rule
        return _reduced(min(self.prec, other.prec),
                        [x * ma + y * mb for x, y in zip(self.nums, other.nums)], d)

    def __neg__(self) -> QSeries:
        return _canonical(self.prec, [-n for n in self.nums], self.den)

    def __mul__(self, other: QSeries) -> QSeries:
        # |c_n| = |sum a_i b_j| <= prec * max|a| * max|b| < 2^(k-2) for the
        # numerator products; adding 2^(k-1) to every k-bit slot of the packed
        # product leaves each slot at c_n + 2^(k-1) in [0, 2^k): no slot
        # borrows from or carries into the next.  k is rounded up to whole bytes.
        prec = min(self.prec, other.prec)
        na, nb = self.nums[:prec], other.nums[:prec]
        nbytes = (_width(na) + _width(nb) + prec.bit_length() + 2 + 7) // 8
        k = 8 * nbytes
        pa = _pack(na, nbytes)
        pb = pa if other is self else _pack(nb, nbytes)  # a square multiplies faster
        bias = int.from_bytes((b"\0" * (nbytes - 1) + b"\x80") * prec, "little")
        biased = (pa * pb + bias) & ((1 << k * prec) - 1)
        raw = biased.to_bytes(nbytes * prec, "little")
        half = 1 << (k - 1)
        slots = [int.from_bytes(raw[i:i + nbytes], "little") - half
                 for i in range(0, nbytes * prec, nbytes)]
        return _reduced(prec, slots, self.den * other.den)

    def scale(self, c: RatLike) -> QSeries:
        c = rat(c)
        p, q = c.numerator, c.denominator
        if p == 0:
            return QSeries.zero(self.prec)
        # gcd(p, q) == gcd(nums, den) == 1, so dividing p*nums / q*den by
        # gcd(p, den) and gcd(q, nums) leaves it in lowest terms
        g_p, g_q = math.gcd(p, self.den), math.gcd(q, *self.nums)
        p //= g_p
        nums = self.nums if g_q == 1 else [n // g_q for n in self.nums]
        return _canonical(self.prec, [p * n for n in nums], (q // g_q) * (self.den // g_p))

    def shift(self, k: int) -> QSeries:
        """Multiply by q^k; the prec grows by k since low coefficients are exact."""
        if k < 0:
            raise ValueError("negative shifts are not defined on truncated series")
        return _canonical(self.prec + k, (0,) * k + self.nums, self.den)

    def pow(self, e: int) -> QSeries:
        return _binary_power(self, e, lambda: QSeries.one(self.prec))

    def derive(self) -> QSeries:
        """The operator D = q d/dq: multiply the q^n coefficient by n."""
        return _reduced(self.prec, [i * n for i, n in enumerate(self.nums)], self.den)

    # -- serialization -----------------------------------------------------

    def to_json_obj(self) -> dict:
        return {"prec": self.prec, "coeffs": [str(c) for c in self.coeffs]}

    @staticmethod
    def from_json_obj(obj: Mapping) -> QSeries:
        return QSeries(int(obj["prec"]), tuple(rat(c) for c in obj["coeffs"]))

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*q")
            else:
                parts.append(f"{c}*q^{i}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(q^{self.prec})"


def _canonical(prec: int, nums: Sequence[int], den: int) -> QSeries:
    """A QSeries from numerators and a denominator already in canonical form."""
    s = object.__new__(QSeries)
    s.prec, s.nums, s.den, s._coeffs = prec, tuple(nums), den, None
    return s


def _reduced(prec: int, nums: Sequence[int], den: int) -> QSeries:
    """A QSeries from numerators over den > 0, divided by their one common gcd."""
    g = math.gcd(den, *nums)
    if g != 1:
        nums = [n // g for n in nums]
        den //= g
    return _canonical(prec, nums, den)


def _width(nums: Sequence[int]) -> int:
    """Bit length of the widest numerator."""
    return max(max(nums), -min(nums)).bit_length()


def _pack(nums: Sequence[int], nbytes: int) -> int:
    """sum nums[i] * 2^(8*nbytes*i), exactly, for signed nums of fewer than 8*nbytes bits."""
    raw = b"".join([n.to_bytes(nbytes, "little", signed=True) for n in nums])
    packed = int.from_bytes(raw, "little")
    # a negative n was written as n + 2^(8*nbytes): take each such carry back out
    carries = bytearray(len(raw))
    carries[::nbytes] = bytes([n < 0 for n in nums])
    return packed - (int.from_bytes(carries, "little") << 8 * nbytes)


# ---------------------------------------------------------------------------
# Sparse multivariate polynomials
# ---------------------------------------------------------------------------


def _scaled(terms: Mapping[tuple[int, ...], Rat]) -> tuple[dict[tuple[int, ...], int], int]:
    """terms as Python-int numerators over the lcm of their denominators."""
    d = math.lcm(*(c.denominator for c in terms.values()))
    return {e: c.numerator * (d // c.denominator) for e, c in terms.items()}, d


class NotDivisibleError(ValueError):
    """MPoly.div_exact's failure; term is the first remainder (exponent, coefficient)."""

    def __init__(self, exp: tuple[int, ...], coeff: Rat):
        super().__init__("not exactly divisible")
        self.term = (exp, coeff)


class MPoly:
    """Sparse polynomial over an ordered tuple of named variables.

    Terms map exponent vectors (one entry >= 0 per variable) to nonzero Rat
    coefficients.  Adding polynomials with different variable tuples is an
    error; ``substitute`` may move into a superset variable list.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str], terms: Mapping[tuple[int, ...], RatLike] | None = None):
        self.vars: tuple[str, ...] = tuple(vars)
        clean: dict[tuple[int, ...], Rat] = {}
        for exp, c in (terms or {}).items():
            c = rat(c)
            if c == 0:
                continue
            if len(exp) != len(self.vars):
                raise ValueError(f"exponent vector {exp} does not match variables {self.vars}")
            if exp and min(exp) < 0:
                raise ValueError("exponents must be >= 0")
            clean[tuple(exp)] = c
        self.terms: dict[tuple[int, ...], Rat] = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(vars: Sequence[str]) -> MPoly:
        return MPoly(vars, {})

    @staticmethod
    def const(vars: Sequence[str], c: RatLike) -> MPoly:
        return MPoly(vars, {(0,) * len(vars): rat(c)})

    @staticmethod
    def var(vars: Sequence[str], name: str) -> MPoly:
        vars = tuple(vars)
        if name not in vars:
            raise KeyError(f"unknown variable {name!r}; have {vars}")
        exp = [0] * len(vars)
        exp[vars.index(name)] = 1
        return MPoly(vars, {tuple(exp): 1})

    @staticmethod
    def variables(names: Sequence[str]) -> list[MPoly]:
        return [MPoly.var(names, n) for n in names]

    # -- ring operations ---------------------------------------------------

    def _like(self, terms: Mapping[tuple[int, ...], Rat]) -> MPoly:
        """A polynomial of this one's type over its variables; ring results go through it.

        The ring kernels make only valid exponent vectors and Rat
        coefficients, so they are not validated again; zero coefficients
        (a scalar product by 0 makes them) are dropped.
        """
        out = object.__new__(type(self))
        out.vars = self.vars
        out.terms = {e: c for e, c in terms.items() if c}
        return out

    def _check(self, other: MPoly) -> None:
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other: MPoly | RatLike) -> MPoly:
        if not isinstance(other, MPoly):
            other = MPoly.const(self.vars, other)
        self._check(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = out.get(exp, Fraction(0)) + c
            if s == 0:
                out.pop(exp, None)
            else:
                out[exp] = s
        return self._like(out)

    __radd__ = __add__

    def __neg__(self) -> MPoly:
        return self._like({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: MPoly | RatLike) -> MPoly:
        if not isinstance(other, MPoly):
            other = MPoly.const(self.vars, other)
        return self + (-other)

    def __rsub__(self, other: RatLike) -> MPoly:
        return -self + other

    def __mul__(self, other: MPoly | RatLike) -> MPoly:
        if not isinstance(other, MPoly):
            c = rat(other)
            return self._like({e: c * v for e, v in self.terms.items()})
        self._check(other)
        a, da = _scaled(self.terms)
        b, db = _scaled(other.terms)
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(map(operator.add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        d = da * db
        return self._like({e: Fraction(c, d) for e, c in out.items() if c})

    __rmul__ = __mul__

    def pow(self, e: int) -> MPoly:
        return _binary_power(self, e, lambda: self._like({(0,) * len(self.vars): Fraction(1)}))

    __pow__ = pow

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MPoly) and self.vars == other.vars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.vars, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    # -- structural queries --------------------------------------------------

    def coeff_of(self, exp: Sequence[int]) -> Rat:
        return self.terms.get(tuple(exp), Fraction(0))

    def coeff_of_monomial(self, **powers: int) -> Rat:
        exp = [0] * len(self.vars)
        for name, p in powers.items():
            if name not in self.vars:
                raise KeyError(f"unknown variable {name!r}; have {self.vars}")
            exp[self.vars.index(name)] = p
        return self.coeff_of(exp)

    def all_coeffs_positive(self) -> tuple[bool, tuple[tuple[int, ...], Rat] | None]:
        """True iff every stored coefficient is > 0; else one offending term."""
        for exp in sorted(self.terms):
            if self.terms[exp] <= 0:
                return False, (exp, self.terms[exp])
        return True, None

    # -- substitution and evaluation ----------------------------------------

    def substitute(self, mapping: Mapping[str, MPoly]) -> MPoly:
        """Replace variables by polynomials over a common superset variable list.

        Unmapped variables must exist in the target variable list and are
        carried over unchanged.  Terms are grouped by their mapped exponents;
        each group, its unmapped exponents moved to their target positions,
        is multiplied once by its image powers, each computed once per call.
        """
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
        for name in self.vars:
            if name not in mapping and name not in tvars:
                raise KeyError(f"variable {name!r} missing from target variables {tvars}")
        mapped = [i for i, name in enumerate(self.vars) if name in mapping]
        carried = [(i, tvars.index(name)) for i, name in enumerate(self.vars) if name not in mapping]
        groups: dict[tuple[int, ...], dict[tuple[int, ...], Rat]] = {}
        for exp, c in self.terms.items():
            texp = [0] * len(tvars)
            for i, j in carried:
                texp[j] = exp[i]
            groups.setdefault(tuple(exp[i] for i in mapped), {})[tuple(texp)] = c
        powers: dict[tuple[int, int], MPoly] = {}
        out: dict[tuple[int, ...], Rat] = {}
        for key, terms in groups.items():
            part = MPoly(tvars, terms)
            for i, e in zip(mapped, key):
                if e:
                    if (i, e) not in powers:
                        powers[i, e] = mapping[self.vars[i]].pow(e)
                    part = part * powers[i, e]
            for te, tc in part.terms.items():
                out[te] = out.get(te, 0) + tc
        return MPoly(tvars, out)

    def evaluate(self, values: Mapping[str, RatLike]) -> Rat:
        """The value at a rational point; KeyError names a used variable not given.

        Summed in ints: a value p/q contributes p^e q^(top - e), top its
        variable's largest exponent, each computed once; one Fraction at the end.
        """
        tops = [max(exp[i] for exp in self.terms) if self.terms else 0 for i in range(len(self.vars))]
        used = [(i, rat(values[name]), tops[i]) for i, name in enumerate(self.vars) if tops[i]]
        nums, d = _scaled(self.terms)
        powers: dict[tuple[int, int], int] = {}
        total = 0
        for exp, c in nums.items():
            for i, v, top in used:
                e = exp[i]
                if (i, e) not in powers:
                    powers[i, e] = v.numerator**e * v.denominator ** (top - e)
                c *= powers[i, e]
            total += c
        return Fraction(total, d * math.prod(v.denominator**top for _, v, top in used))

    def div_exact(self, d: MPoly) -> MPoly:
        """Exact quotient self / d; raises NotDivisibleError if d does not divide."""
        self._check(d)
        if d.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        lead = max(d.terms)  # lex-largest exponent of the divisor
        lc = d.terms[lead]
        rem = dict(self.terms)
        quot: dict[tuple[int, ...], Rat] = {}
        while rem:
            e = max(rem)
            diff = tuple(a - b for a, b in zip(e, lead))
            if any(x < 0 for x in diff):
                raise NotDivisibleError(e, rem[e])
            c = rem[e] / lc
            quot[diff] = quot.get(diff, Fraction(0)) + c
            for de, dc in d.terms.items():
                ee = tuple(a + b for a, b in zip(diff, de))
                s = rem.get(ee, Fraction(0)) - c * dc
                if s == 0:
                    rem.pop(ee, None)
                else:
                    rem[ee] = s
        return MPoly(self.vars, quot)

    # -- serialization -----------------------------------------------------

    def to_json_obj(self) -> list[dict]:
        return [
            {"exp": list(exp), "c": str(self.terms[exp])}
            for exp in sorted(self.terms)
        ]

    @staticmethod
    def from_json_obj(vars: Sequence[str], obj: Iterable[Mapping]) -> MPoly:
        return MPoly(vars, {tuple(t["exp"]): rat(t["c"]) for t in obj})

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, reverse=True):
            factors = [str(self.terms[exp])]
            for name, e in zip(self.vars, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Exact sparse linear algebra
# ---------------------------------------------------------------------------


@dataclass
class SolveResult:
    consistent: bool
    rank: int
    nullity: int
    solution: list[Rat] | None  # particular solution, free variables set to 0
    null_basis: list[list[Rat]]
    certificate_row: int | None  # witness row index when inconsistent


class Echelon:
    """Reduced row echelon form of one matrix with several right-hand sides.

    pivots maps each pivot column key to its normalized, fully reduced row and
    that row's right-hand-side values, one per column; certificates holds,
    per right-hand-side column, the index of the first row that reduced to
    0 = nonzero (None when that column is consistent).
    """

    def __init__(self, pivots: dict, certificates: list[int | None]):
        self.pivots: dict[object, tuple[dict[object, Rat], list[Rat]]] = pivots
        self.certificates = certificates

    def result(self, keys: Sequence, j: int = 0) -> SolveResult:
        """The solution for right-hand side j over the ordered column keys."""
        rank = len(self.pivots)
        nullity = len(keys) - rank
        if self.certificates[j] is not None:
            return SolveResult(False, rank, nullity, None, [], self.certificates[j])
        zero = Fraction(0)
        solution = [self.pivots[key][1][j] if key in self.pivots else zero for key in keys]
        position = {key: i for i, key in enumerate(keys)}
        null_basis = []
        for free in keys:
            if free in self.pivots:
                continue
            vec = [zero] * len(keys)
            vec[position[free]] = Fraction(1)
            for col, (prow, _) in self.pivots.items():
                if free in prow:
                    vec[position[col]] = -prow[free]
            null_basis.append(vec)
        return SolveResult(True, rank, nullity, solution, null_basis, None)


def _clear(row: dict, rhs: list[int], prow: dict, prhs: list[int], col) -> list[int]:
    """Clear column col from row: row = b*row - a*prow in place, over the
    integers, with a/b = row[col]/prow[col] in lowest terms; returns
    b*rhs - a*prhs.  A row that prow divides (b = 1) is not rescaled."""
    a, b = row[col], prow[col]
    g = math.gcd(a, b)
    a, b = a // g, b // g
    if b != 1:
        for c in row:
            row[c] *= b
        rhs = [b * v for v in rhs]
    for c, v in prow.items():
        nv = row.get(c, 0) - a * v
        if nv:
            row[c] = nv
        else:
            del row[c]
    return [v - a * p for v, p in zip(rhs, prhs)]


def _primitive(row: dict, rhs: list[int]) -> list[int]:
    """Divide row (in place) and rhs by their content; returns the new rhs."""
    g = math.gcd(*row.values(), *rhs)
    if g != 1:
        for c in row:
            row[c] //= g
        rhs = [r // g for r in rhs]
    return rhs


def _scaled_row(coeffs: Mapping, rhs: Sequence[Rat]) -> tuple[dict, list[int]]:
    """A row that holds a Fraction, times the lcm of its denominators, as new int containers."""
    d = math.lcm(*(v.denominator for v in coeffs.values()), *(v.denominator for v in rhs))
    return (
        {c: v.numerator * (d // v.denominator) for c, v in coeffs.items()},
        [v.numerator * (d // v.denominator) for v in rhs],
    )


def _settled(row: Mapping, rhs: Sequence, pivots: dict) -> Sequence | None:
    """d times (rhs minus the row's value at the pivot rows), d a common denominator of
    their pivot entries, for a row on pivot columns only; None if it leaves an entry in a free column."""
    d, left, free = 1, rhs, {}
    for col, v in row.items():
        prow, prhs = pivots[col]
        p = prow[col]
        if d % p:
            m = p // math.gcd(d, p)
            d, left, free = d * m, [m * x for x in left], {c: m * x for c, x in free.items()}
        k = v * (d // p)
        left = [x - k * y for x, y in zip(left, prhs)]
        if len(prow) > 1:
            for c, w in prow.items():
                if c != col:
                    free[c] = free.get(c, 0) - k * w
    return None if any(free.values()) else left


def _integer_rref(
    rows: Iterable[tuple[dict, Sequence[Rat | int]]], width: int
) -> tuple[dict[object, tuple[dict[object, int], list[int]]], list[int | None]]:
    """eliminate's integer pass: primitive, fully reduced pivot rows and certificates."""
    pivots: dict = {}
    certificates: list[int | None] = [None] * width
    for idx, (coeffs, rhs) in enumerate(rows):
        left = _settled(coeffs, rhs, pivots) if pivots.keys() >= coeffs.keys() else None
        if left is None:
            ints = {*map(type, coeffs.values()), *map(type, rhs)} == {int}
            row, r = (dict(coeffs), list(rhs)) if ints else _scaled_row(coeffs, rhs)
            # pivot rows have no entry in another pivot column, so each reduction
            # clears one column and leaves the row's other pivot columns alone
            for col in [c for c in row if c in pivots]:
                r = _clear(row, r, *pivots[col], col)
            if not row:
                left = r
        if left is not None:
            for j, v in enumerate(left):
                if v and certificates[j] is None:
                    certificates[j] = idx
            continue
        r = _primitive(row, r)
        lead = min(row)
        for col, (prow, pr) in pivots.items():
            if lead in prow:
                pivots[col] = (prow, _primitive(prow, _clear(prow, pr, row, r, lead)))
        pivots[lead] = (row, r)
    return pivots, certificates


def eliminate(rows: Iterable[tuple[dict, Sequence[Rat | int]]], width: int) -> Echelon:
    """Exact sparse reduced row echelon over the rationals, row by row.

    Each row is (coefficients by column key, `width` right-hand-side values)
    with no zero coefficients; keys are any totally ordered values, and the
    smallest key of a row is its pivot candidate.  Rows are consumed one at a
    time, so a generator can compute each row as it is eliminated.  The matrix
    is eliminated once for every right-hand side.

    The elimination is a fraction-free Gauss-Jordan over Python ints.  A row
    whose entries (right-hand side included) are all ints is used as given; a
    row that holds a Fraction is scaled to integers by the lcm of its
    denominators.  A row whose columns are all pivot columns is evaluated at
    the pivot rows and dropped if it leaves nothing in their free columns (a
    right-hand side left over makes it a certificate).  Every other row is
    reduced once against each pivot column it touches, by b*row - a*prow with
    a/b the entry ratio in lowest terms (no rescaling when b = 1).  A row that
    does not vanish is divided by its content and becomes a pivot row at its
    smallest key; that column is then cleared from the earlier pivot rows,
    which are divided by their content in turn.  So every pivot row is kept
    fully reduced: its pivot is its smallest key and it has no entry in any
    other pivot column.  A new row therefore never cascades through the stored
    rows, and no back-substitution is needed.  Fractions are built only at the
    end, dividing each row by its pivot entry.  That gives the reduced row
    echelon form of the matrix, which is unique, so the result does not depend
    on the order of the reductions.  The certificate of a column is the first
    row that reduces to 0 = nonzero, a property of the row prefix.  The
    caller's rows are not modified.
    """
    pivots, certificates = _integer_rref(rows, width)
    return Echelon(
        {
            col: ({c: Fraction(v, row[col]) for c, v in row.items()}, [Fraction(v, row[col]) for v in r])
            for col, (row, r) in pivots.items()
        },
        certificates,
    )
