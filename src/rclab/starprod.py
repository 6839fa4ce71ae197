"""Deformed products on graded forms and their associativity bookkeeping.

A star product here is hbar-formal:

    f * g = sum_n  t_n(x, y) * [f, g]_n * hbar^n

with x, y the weights of the graded parts.  A family is given by its t_n or
by A_n = t_n (x)_n (y)_n: StarCoefficients reads its A-rule, and
coeffsolve.ATable stores t_n and fills it from its t-rule:

  eholzer_rule   A_n = (x)_n (y)_n in ints, so t_n = 1; also the factor
                 that takes any family's t_n to its A_n
  cmz_t(kappa)   t_n = (-4)^n t_n^kappa(x/2, y/2), the classical
                 hypergeometric-style family; the factor (-4)^n normalizes
                 the first order to t_1 = 1, that is A_1(x, y) = x y
  ATable.get     a table of solved or planted values

cmz_coeff is the one evaluator of t_n^kappa, behind cmz_t.  Its j-sum runs
in Python ints over falling products, with the kappa-only factor of each term
cached per (kappa, j), and it builds one Fraction at the end.

The reduced associativity identities identify, for each hbar-degree n and
each p = 0..n, the coefficient of dtil^(n-p) f * g * dtil^p h in the two
ways of bracketing a triple product.  Read in the t-values, every coefficient
of an identity is an integer: ident_coefficients is their definition, shared
by ident_residuals and the coefficient solver.  table_sum is their one sum
kernel: it reads a table's reduced (numerator, denominator) int pairs of t by
key and sums in Python ints, for ident_residuals and for the solver's rows
alike.  ident_residuals evaluates one identity for any number of tables from
one set of coefficients and builds one Fraction per table.  The version
implemented carries the multinomial factors C(n, r), C(n, s) on the interior
terms; free_assoc_residual expands both bracketings completely in the free
triple-product model (rclab.rep vectors) and is the independent oracle for
that reduction.  Every level of a pair product there is one rational scalar
times an integer vector, and raising keeps it integral, so each pair of
inner and outer levels is summed in Python ints and scaled once per key.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from . import rep
from .exactcore import Rat, RatLike, pochhammer, rat
from .forms import GradedForm
from .nearlyholo import rc_bracket


class PoleError(ValueError):
    """A coefficient denominator vanished for the requested parameters."""


@functools.lru_cache(maxsize=None)
def _cmz_kappa_factor(kp: int, kq: int, j: int) -> tuple[int, int]:
    """j!^3 C(-1/2, j) C(kappa-3/2, j) C(1/2-kappa, j) at kappa = kp/kq, as (num, den) ints.

    C(p/q, j) j! is the falling product prod_{i<j} (p - i*q) over q^j; here
    the three arguments are -1/2, (2kp - 3kq)/(2kq) and (kq - 2kp)/(2kq).
    """
    num = 1
    for p, q in ((-1, 2), (2 * kp - 3 * kq, 2 * kq), (kq - 2 * kp, 2 * kq)):
        num *= math.prod(range(p, p - j * q, -q))
    return num, (8 * kq * kq) ** j


def cmz_coeff(kappa: RatLike, k: RatLike, l: RatLike, n: int) -> Rat:
    """The classical deformation coefficient t_n^kappa(k, l).

    t_n^kappa = (-1/4)^n sum_j C(n, 2j)
                * C(-1/2, j) C(kappa-3/2, j) C(1/2-kappa, j)
                / [C(-k-1/2, j) C(-l-1/2, j) C(n+k+l-3/2, j)]

    k, l are the half-weights of the two factors.  Raises PoleError when a
    denominator binomial vanishes (never for positive integer k, l).

    Computed in Python ints.  The j!^3 of the numerator and denominator
    binomials cancel, leaving falling products prod_{i<j} (p - i*q) / q^j:
    the kappa-only numerator is cached per (kappa, j), and the denominator's
    three falling products run along j.  The j-sum is kept over a running
    common denominator, and (-1/4)^n goes into the one Fraction built at the end.
    """
    kappa, k, l = rat(kappa), rat(k), rat(l)
    if n < 0:
        raise ValueError("n must be >= 0")
    kp, kq, lp, lq = k.numerator, k.denominator, l.numerator, l.denominator
    # the denominator arguments -k-1/2 = p1/q1, -l-1/2 = p2/q2, n+k+l-3/2 = p3/q3 (not reduced)
    p1, q1 = -2 * kp - kq, 2 * kq
    p2, q2 = -2 * lp - lq, 2 * lq
    p3, q3 = 2 * (n * kq * lq + kp * lq + lp * kq) - 3 * kq * lq, 2 * kq * lq
    q = q1 * q2 * q3
    num, den = 0, 1
    fall, qj = 1, 1  # the product of the three falling products at j, and q^j
    for j in range(n // 2 + 1):
        if j:
            i = j - 1
            fall *= (p1 - i * q1) * (p2 - i * q2) * (p3 - i * q3)
            qj *= q
        if fall == 0:
            raise PoleError(f"t_{n}^{kappa}({k},{l}): denominator binomial vanishes at j={j}")
        knum, kden = _cmz_kappa_factor(kappa.numerator, kappa.denominator, j)
        tnum, tden = math.comb(n, 2 * j) * knum * qj, kden * fall
        g = math.gcd(den, tden)
        num, den = num * (tden // g) + tnum * (den // g), den // g * tden
    return Fraction((-1) ** n * num, 4**n * den)


def eholzer_rule(n: int, x: int, y: int) -> int:
    """A_n(x, y) = (x)_n (y)_n at integer weights, as an int: the constant-coefficient family, t_n = 1."""
    return math.prod(range(x, x + n)) * math.prod(range(y, y + n))


def cmz_t(kappa: RatLike) -> Callable[[int, int, int], Rat]:
    """The classical family's t-rule t_n(x, y) = (-4)^n t_n^kappa(x/2, y/2).

    The factor (-4)^n is the one that gives t_1 = 1, that is A_1(x, y) = x y.
    """
    kappa = rat(kappa)

    def t(n: int, x: int, y: int) -> Rat:
        return (-4) ** n * cmz_coeff(kappa, Fraction(x, 2), Fraction(y, 2), n)

    return t


@dataclass(frozen=True)
class StarCoefficients:
    """A deformation family, given by its rule A_n(x, y) (an int or a Rat)."""

    rule: Callable[[int, int, int], RatLike]

    @staticmethod
    def eholzer() -> StarCoefficients:
        return StarCoefficients(eholzer_rule)

    @staticmethod
    def cmz(kappa: RatLike) -> StarCoefficients:
        t = cmz_t(kappa)
        return StarCoefficients(lambda n, x, y: t(n, x, y) * eholzer_rule(n, x, y))

    def coefficient(self, n: int, x: int, y: int) -> Rat:
        """t_n(x, y) = A_n(x, y) / ((x)_n (y)_n), the scalar of [.,.]_n between weight-x and weight-y parts."""
        den = eholzer_rule(n, x, y)
        if den == 0:
            raise PoleError(f"normalization ({x})_{n} ({y})_{n} vanishes")
        return Fraction(self.rule(n, x, y), den)


@dataclass(frozen=True)
class HbarSeries:
    """Truncated hbar-expansion with GradedForm coefficients (orders 0..order).

    The constructor rejects any other number of terms.
    """

    order: int
    terms: tuple[GradedForm, ...]

    def __post_init__(self) -> None:
        if len(self.terms) != self.order + 1:
            raise ValueError("need exactly order+1 terms")

    def is_zero(self) -> bool:
        return all(t.is_zero() for t in self.terms)

    def to_json_obj(self) -> dict:
        return {"order": self.order, "terms": [t.to_json_obj() for t in self.terms]}

    def __str__(self) -> str:
        lines = [f"hbar^{n}: {t}" for n, t in enumerate(self.terms)]
        return "\n".join(lines)


def star_product(f: GradedForm, g: GradedForm, coeffs: StarCoefficients, order: int) -> HbarSeries:
    """Star product of two graded forms, truncated at hbar^order.

    A zero bracket is skipped, so weight-0 parts are fine for every family:
    their brackets of degree >= 1 vanish identically, and the normalization
    (x)_n (y)_n, which vanishes there, is never consulted.
    """
    terms = [GradedForm.zero()] * (order + 1)
    for x in f.weights():
        for y in g.weights():
            for n in range(order + 1):  # innermost, so the degrees share the pair's products
                b = rc_bracket(f.parts[x], g.parts[y], n)
                if b.is_zero():
                    continue
                c = coeffs.coefficient(n, x, y)
                if c != 0:
                    terms[n] = terms[n] + GradedForm.from_form(b.scale(c))
    return HbarSeries(order, tuple(terms))


def rc_series(f: GradedForm, g: GradedForm, order: int) -> HbarSeries:
    """The bracket-generating series: term n is the weight-expanded [f, g]_n."""
    return star_product(f, g, StarCoefficients.eholzer(), order)


def assoc_residual(
    f: GradedForm, g: GradedForm, h: GradedForm, coeffs: StarCoefficients, order: int
) -> HbarSeries:
    """(f*g)*h - f*(g*h) truncated at hbar^order; zero iff associative there.

    Term a of f*g is star-multiplied by h, and f by term a of g*h, up to
    hbar^(order - a); a zero term makes no series product.
    """
    fg = star_product(f, g, coeffs, order)
    gh = star_product(g, h, coeffs, order)
    terms = [GradedForm.zero()] * (order + 1)
    for a in range(order + 1):
        left = star_product(fg.terms[a], h, coeffs, order - a).terms
        right = star_product(f, gh.terms[a], coeffs, order - a).terms
        for n in range(order - a + 1):
            terms[a + n] = terms[a + n] + left[n] - right[n]
    return HbarSeries(order, tuple(terms))


# ---------------------------------------------------------------------------
# Reduced associativity identities on the A-coefficients
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _multinomials(n: int, p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """C(n,r) C(n-r,p) for r = 0..n-p and C(n,s) C(n-s,n-p) for s = 0..p."""
    return (
        tuple(math.comb(n, r) * math.comb(n - r, p) for r in range(n - p + 1)),
        tuple(math.comb(n, s) * math.comb(n - s, n - p) for s in range(p + 1)),
    )


def ident_coefficients(n: int, p: int, x: int, y: int, z: int) -> tuple[list[int], list[int]]:
    """The degree-n, index-p associativity identity on the t-values, as integers.

    x, y, z are the (integer) weights.  Returns (L, R) for the identity

      sum_r L_r t_r(x,y) t_{n-r}(x+y+2r, z) = sum_s R_s t_s(y,z) t_{n-s}(x, y+z+2s)

    with 0 <= r <= n-p and 0 <= s <= p:

      L_r = C(n,r) C(n-r,p) (y)_r (x+y+r+n-p)_p (z+p)_{n-p-r}
      R_s = C(n,s) C(n-s,n-p) (y)_s (x+n-p)_{p-s} (y+z+s+p)_{n-p}.

    With A = t (x)_n (y)_n this is, term by term, the identity on the A-values
    with c_r = C(n,r) C(n-r,p) / [(x+y+2r)_{n-p-r} (z)_p (x)_r] and
    c_s = C(n,s) C(n-s,n-p) / [(x)_{n-p} (y+z+2s)_{p-s} (z)_s].

    The weights must be >= 1.  The multinomials depend on (n, p) alone and
    are cached per (n, p).  The product of the three rising factorials of a
    term is a running product along its side: from one term to the next it
    gains one factor of each of the first two and loses one of the third,
    by one exact integer division, so a side makes two perm calls in all.
    """
    if not 0 <= p <= n:
        raise ValueError(f"need 0 <= p <= n, got p={p}, n={n}")
    if min(x, y, z) < 1:
        raise ValueError(f"weights must be >= 1, got ({x}, {y}, {z})")
    cl, cr = _multinomials(n, p)
    m, perm = n - p, math.perm
    # (y)_r (a+r)_p (z+p)_{m-r}, a = x+y+m, whose last factor is z+n-1-r
    v, a = perm(x + y + n - 1, p) * perm(z + n - 1, m), x + y + m
    left = [cl[0] * v]
    for r in range(m):
        v = v * (y + r) * (a + r + p) // ((a + r) * (z + n - 1 - r))
        left.append(cl[r + 1] * v)
    # (y)_s (x+m)_{p-s} (e+s)_m, e = y+z+p, whose last factor is x+n-1-s
    u, e = perm(x + n - 1, p) * perm(y + z + n - 1, m), y + z + p
    right = [cr[0] * u]
    for s in range(p):
        u = u * (y + s) * (e + s + m) // ((e + s) * (x + n - 1 - s))
        right.append(cr[s + 1] * u)
    return left, right


Key = tuple[int, int, int]


def table_sum(terms: Iterable[tuple[int, Key, Key]], table) -> tuple[int, int]:
    """sum c * t(a) * t(b) over (int c, key a, key b) of one table, as (numerator, denominator).

    A key is (n, x, y).  Each t is read from the table's store of reduced
    (numerator, denominator) int pairs with one dict lookup; a miss goes
    through table.entry, which fills it or raises MissingEntryError.  The sum
    runs in Python ints over a running common denominator: a term whose
    denominator equals it is added as is, any other term moves it to the lcm
    of the two.  The pair is not reduced.
    """
    store, entry = table.values, table.entry
    num, den = 0, 1
    for c, a, b in terms:
        an, ad = store.get(a) or entry(a)
        bn, bd = store.get(b) or entry(b)
        tden = ad * bd
        if tden == den:
            num += c * an * bn
        else:
            g = math.gcd(den, tden)
            num = num * (tden // g) + c * an * bn * (den // g)
            den = den // g * tden
    return num, den


def ident_residuals(tables, k: int, l: int, m: int, n: int, p: int) -> list[Rat]:
    """Residuals of the degree-n, index-p associativity identity at (k, l, m), one per table.

    k, l, m are half-weights; x = 2k, y = 2l, z = 2m.  The identity equates
    the coefficient of dtil^(n-p) f * g * dtil^p h in the two bracketings
    (see ident_coefficients).  Returns LHS - RHS, in the A-values, as a
    Fraction for each table (rclab.coeffsolve.ATable); every table must cover
    every referenced pair.  The coefficients and the keyed terms are built
    once for all tables, each table_sum runs in integers on the t-values and
    one Fraction is built per table at the end.
    """
    x, y, z = 2 * k, 2 * l, 2 * m
    left, right = ident_coefficients(n, p, x, y, z)
    terms = [(c, (r, x, y), (n - r, x + y + 2 * r, z)) for r, c in enumerate(left)]
    terms += [(-c, (s, y, z), (n - s, x, y + z + 2 * s)) for s, c in enumerate(right)]
    return [Fraction(*table_sum(terms, table)) for table in tables]


def ident_residual(atable, k: int, l: int, m: int, n: int, p: int) -> Rat:
    """ident_residuals for the one table `atable`."""
    return ident_residuals((atable,), k, l, m, n, p)[0]


# ---------------------------------------------------------------------------
# Free-model expansion: the oracle behind the reduced identities
# ---------------------------------------------------------------------------


def _level_scale(x: int, y: int, n: int, coeffs: StarCoefficients) -> Rat:
    """The scalar of level n of the pair star product at weights (x, y) in the dtil basis.

    Level n is coefficient(n, x, y) [f, g]_n, which is this scalar,
    A_n(x, y) / n!, times the integer vector rep.lowest_weight_coeffs(n).
    The rule may give an int (ATable.get at levels 0 and 1), hence rat.
    """
    return rat(coeffs.rule(n, x, y)) / math.factorial(n)


def _free_bracketing(
    weights: tuple[int, int, int], coeffs: StarCoefficients, order: int, inner_left: bool
) -> rep.Vector:
    """(f*g)*h (inner_left) or f*(g*h) in the free triple model, in the dtil basis.

    Level n1 of the inner pair is the scalar s1 = _level_scale(.., n1) times
    an integer lowest-weight vector of weight w = (its two weights) + 2 n1.
    The outer bracket's term dtil^s of it is act_raise applied s times,
    divided by (w)_s; raising keeps the vector integral.  So each block
    (n1, n2) is summed in Python ints with every outer term put over (w)_n2,
    which every (w)_s with s <= n2 divides, and each key of the block is then
    scaled once by s1 s2 / (w)_n2.  The hbar-degree of a key (a, b, c) is
    a + b + c.
    """
    x, y, z = weights
    pair = (x, y) if inner_left else (y, z)
    inner_scales = [_level_scale(*pair, n1, coeffs) for n1 in range(order + 1)]
    out: dict[tuple[int, ...], Rat] = {}
    for n1, s1 in enumerate(inner_scales):
        w = sum(pair) + 2 * n1
        outer = (w, z) if inner_left else (x, w)
        raised = [rep.lowest_weight_coeffs(n1)]
        for n2 in range(order - n1 + 1):
            s2 = _level_scale(*outer, n2, coeffs)
            if not s2:
                # a vanishing level, as at weight 0 where (w)_n2 may vanish too, adds nothing
                continue
            scale = s1 * s2 / pochhammer(w, n2)
            block: dict[tuple[int, ...], int] = {}
            for key, o in rep.lowest_weight_coeffs(n2).items():
                s, t = key if inner_left else key[::-1]
                while len(raised) <= s:
                    raised.append(rep.raise_coeffs(pair, raised[-1]))
                # times (w)_n2 / (w)_s = (w + s)_(n2 - s)
                o *= math.prod(range(w + s, w + n2))
                for ab, c in raised[s].items():
                    k = ab + (t,) if inner_left else (t,) + ab
                    block[k] = block.get(k, 0) + o * c
            for k, v in block.items():
                out[k] = out.get(k, 0) + scale * v
    return rep.Vector.make(weights, out)


def free_assoc_residual(
    weights: tuple[int, int, int], coeffs: StarCoefficients, order: int
) -> dict[tuple[int, tuple[int, int, int]], Rat]:
    """Fully expand (f*g)*h - f*(g*h) in the free triple basis.

    Keys are (hbar-degree, (a, b, c)) for the basis element
    X^a f X^b g X^c h; an associative coefficient family gives the empty
    dict.  This expansion never uses the reduced identities, so it is an
    independent check on them.
    """
    x, y, z = weights
    left, right = (_free_bracketing(weights, coeffs, order, first) for first in (True, False))
    return {
        (a + b + c, (a, b, c)): v / (pochhammer(x, a) * pochhammer(y, b) * pochhammer(z, c))
        for (a, b, c), v in (left - right).support
    }
