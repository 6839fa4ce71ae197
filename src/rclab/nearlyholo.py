"""Nearly-holomorphic forms, raising/lowering operators, and bracket operators.

A nearly-holomorphic form is a polynomial in the formal variable Y (standing
for 1/(4*pi*y)) whose coefficients are q-series; a weight tag rides along.
All operators here are the pi-free rescalings: with D = q d/dq,

  raise_op (shimura_X):  sum c_j Y^j  ->  sum (D c_j) Y^j + (j - w) c_j Y^(j+1)
  lower    (ell):        sum c_j Y^j  ->  sum j c_j Y^(j-1)

On a pure-weight form F these satisfy (ell X - X ell) F = -weight(F) * F, and
ell is a derivation over products, which is what makes every identity in this
module a finite exact computation.

The Rankin-Cohen bracket [f, g]_n = sum_r c_r D^r f D^(n-r) g is computed in
its product form.  The q^N coefficient of D^r f D^(n-r) g is
sum_(i+j=N) i^r j^(n-r) a_i b_j; substitute j = N - i and collect the powers
of i, and the bracket becomes sum_t e_t D^(n-t)(D^t f * g) with
e_t = (-1)^t C(n+x-1, n-t) C(n+x+y-2+t, t).  The products D^t f * g depend
on neither n nor the weights, so the brackets of one pair share them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exactcore import QSeries, RatLike, binom, pochhammer, rat
from .forms import ModularForm, eisenstein


@dataclass(frozen=True)
class NearlyHoloForm:
    """Weight-tagged polynomial in Y with QSeries coefficients.

    ypoly[j] is the q-series multiplying Y^j.  Trailing zero coefficients are
    trimmed and all component series share one prec (the minimum supplied).
    Holomorphic means Y-degree 0.
    """

    weight: int
    ypoly: tuple[QSeries, ...]

    @staticmethod
    def make(weight: int, ypoly: list[QSeries] | tuple[QSeries, ...]) -> NearlyHoloForm:
        if not ypoly:
            raise ValueError("ypoly must contain at least the Y^0 coefficient")
        prec = min(s.prec for s in ypoly)
        parts = [s.truncate(prec) for s in ypoly]
        while len(parts) > 1 and parts[-1].is_zero():
            parts.pop()
        return NearlyHoloForm(weight, tuple(parts))

    @staticmethod
    def from_modular(f: ModularForm) -> NearlyHoloForm:
        return NearlyHoloForm.make(f.weight, [f.series])

    @staticmethod
    def zero(weight: int, prec: int) -> NearlyHoloForm:
        return NearlyHoloForm.make(weight, [QSeries.zero(prec)])

    @property
    def prec(self) -> int:
        return self.ypoly[0].prec

    def is_holomorphic(self) -> bool:
        return len(self.ypoly) == 1

    def is_zero(self) -> bool:
        return all(s.is_zero() for s in self.ypoly)

    def __add__(self, other: NearlyHoloForm) -> NearlyHoloForm:
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

    def __sub__(self, other: NearlyHoloForm) -> NearlyHoloForm:
        return self + other.scale(-1)

    def scale(self, c: RatLike) -> NearlyHoloForm:
        c = rat(c)
        return NearlyHoloForm.make(self.weight, [s.scale(c) for s in self.ypoly])

    def __mul__(self, other: NearlyHoloForm) -> NearlyHoloForm:
        prec = min(self.prec, other.prec)
        out = [QSeries.zero(prec) for _ in range(len(self.ypoly) + len(other.ypoly) - 1)]
        for i, a in enumerate(self.ypoly):
            for j, b in enumerate(other.ypoly):
                out[i + j] = out[i + j] + a.truncate(prec) * b.truncate(prec)
        return NearlyHoloForm.make(self.weight + other.weight, out)

    def truncate(self, prec: int) -> NearlyHoloForm:
        return NearlyHoloForm.make(self.weight, [s.truncate(prec) for s in self.ypoly])

    def __str__(self) -> str:
        parts = []
        for j, s in enumerate(self.ypoly):
            tag = "" if j == 0 else (" * Y" if j == 1 else f" * Y^{j}")
            parts.append(f"({s}){tag}")
        return f"[wt {self.weight}] " + " + ".join(parts)


# ---------------------------------------------------------------------------
# Raising and lowering
# ---------------------------------------------------------------------------


def shimura_X(F: NearlyHoloForm) -> NearlyHoloForm:
    """Weight-raising operator: (Dc_j) Y^j + (j - w) c_j Y^(j+1), weight + 2."""
    w = F.weight
    prec = F.prec
    parts = [QSeries.zero(prec) for _ in range(len(F.ypoly) + 1)]
    for j, c in enumerate(F.ypoly):
        parts[j] = parts[j] + c.derive()
        parts[j + 1] = parts[j + 1] + c.scale(j - w)
    return NearlyHoloForm.make(w + 2, parts)


def lower(F: NearlyHoloForm) -> NearlyHoloForm:
    """Y-derivation (the scaled lowering operator): sum j c_j Y^(j-1), weight - 2."""
    prec = F.prec
    if F.is_holomorphic():
        return NearlyHoloForm.zero(F.weight - 2, prec)
    parts = [F.ypoly[j].scale(j) for j in range(1, len(F.ypoly))]
    return NearlyHoloForm.make(F.weight - 2, parts or [QSeries.zero(prec)])


def raising_chain(F: NearlyHoloForm, top: int) -> list[NearlyHoloForm]:
    """X^0 F .. X^top F, one shimura_X per step."""
    chain = [F]
    for _ in range(top):
        chain.append(shimura_X(chain[-1]))
    return chain


def dtil_chain(F: NearlyHoloForm | ModularForm, top: int) -> list[NearlyHoloForm]:
    """dtil^r F = X^r F / (weight)_r for r = 0..top, the phi_r basis, dividing by weight + r per step."""
    if isinstance(F, ModularForm):
        F = NearlyHoloForm.from_modular(F)
    if pochhammer(F.weight, top) == 0:
        raise ValueError(f"normalized raising undefined: ({F.weight})_{top} = 0")
    chain = [F]
    for r in range(top):
        chain.append(shimura_X(chain[-1]).scale(Fraction(1, F.weight + r)))
    return chain


# ---------------------------------------------------------------------------
# Rankin-Cohen brackets
# ---------------------------------------------------------------------------


def _bracket_sum(n: int, x: int, y: int, a: list, b: list, zero):
    """sum_r (-1)^r C(n+x-1, n-r) C(n+y-1, r) a_r b_(n-r), accumulated onto zero."""
    out = zero
    for r in range(n + 1):
        c = (-1) ** r * binom(n + x - 1, n - r) * binom(n + y - 1, r)
        if c != 0:
            out = out + (a[r] * b[n - r]).scale(c)
    return out


@functools.lru_cache(maxsize=None)
def _product_coeffs(n: int, x: int, y: int) -> tuple[int, ...]:
    """e_t = (-1)^t C(n+x-1, n-t) C(n+x+y-2+t, t), t = 0..n: [f, g]_n = sum_t e_t D^(n-t)(D^t f * g)."""
    return tuple(int((-1) ** t * binom(n + x - 1, n - t) * binom(n + x + y - 2 + t, t))
                 for t in range(n + 1))


class _PairProducts:
    """Q_t = D^t f * g of one operand pair (f, g), made up to the highest t asked for."""

    def __init__(self, f: QSeries, g: QSeries):
        self.key = (f, g)
        self.dtf = f  # D^t f for the last t reached
        self.products: list[QSeries] = []

    def upto(self, n: int) -> list[QSeries]:
        g, products = self.key[1], self.products
        while len(products) <= n:
            if products:
                self.dtf = self.dtf.derive()
            products.append(self.dtf * g)
        return products


# the products of the most recent operand pair only, so a walk over n shares them
_last_pair: _PairProducts | None = None


def rc_bracket(f: ModularForm, g: ModularForm, n: int) -> ModularForm:
    """Degree-n bracket from the products D^t f * g, shared across degrees.

    [f, g]_n = sum_r (-1)^r C(n+x-1, n-r) C(n+y-1, r) D^r f D^(n-r) g
    of weight x + y + 2n, where x, y are the weights of f and g.  Its q^N
    coefficient is sum_(i+j=N) a_i b_j sum_r c_r i^r j^(n-r); put j = N - i
    and collect the powers of i, and it is sum_t e_t N^(n-t) sum_i i^t a_i
    b_(N-i), that is

      [f, g]_n = sum_t e_t D^(n-t)(D^t f * g),
      e_t = (-1)^t C(n+x-1, n-t) C(n+x+y-2+t, t).

    The products do not depend on n or on the weights, so the products of
    the last operand pair are kept and a walk over n = 0..N makes N + 1 of
    them.  They are combined by Horner in D, acc <- D acc + e_t Q_t, over
    one common denominator, and the sum is reduced once.
    """
    global _last_pair
    if n < 0:
        raise ValueError("bracket degree must be >= 0")
    x, y = f.weight, g.weight
    prec = min(f.prec, g.prec)
    key = (f.series.truncate(prec), g.series.truncate(prec))
    if _last_pair is None or _last_pair.key != key:
        _last_pair = _PairProducts(*key)
    products = _last_pair.upto(n)[: n + 1]
    den = math.lcm(*(q.den for q in products))
    acc = [0] * prec
    for e, q in zip(_product_coeffs(n, x, y), products):
        m = e * (den // q.den)
        acc = [i * a + m * c for i, (a, c) in enumerate(zip(acc, q.nums))]
    return ModularForm(x + y + 2 * n, QSeries.from_numerators(acc, den))


def ramanujan_X(f: ModularForm) -> ModularForm:
    """The derivation Df - (weight/2) * (E2/6) * f, raising the weight by 2."""
    k2 = Fraction(f.weight, 2)
    series = f.series.derive() - (eisenstein(2, f.prec) * f.series).scale(k2 / 6)
    return ModularForm(f.weight + 2, series)


def zagier_sequence(f: ModularForm, phi: ModularForm, r_max: int) -> list[ModularForm]:
    """Inductive chain f_0 = f, f_(r+1) = X f_r + r (r + w - 1) phi f_(r-1).

    w is the full weight of f; each f_r has weight w + 2r.  phi must have
    weight 4 so the grading stays consistent.
    """
    if phi.weight != 4:
        raise ValueError(f"phi must have weight 4, got {phi.weight}")
    seq = [f]
    for r in range(r_max):
        nxt = ramanujan_X(seq[r])
        if r >= 1:
            nxt = nxt + (phi * seq[r - 1]).scale(r * (r + f.weight - 1))
        seq.append(nxt)
    return seq


def _chain_bracket(fs: list[ModularForm], gs: list[ModularForm], n: int, prec: int) -> ModularForm:
    """sum_r (-1)^r C(n+x-1, n-r) C(n+y-1, r) f_r g_(n-r) from chains f_0.., g_0.. of length > n."""
    x, y = fs[0].weight, gs[0].weight
    a = [fr.series.truncate(prec) for fr in fs[: n + 1]]
    b = [gr.series.truncate(prec) for gr in gs[: n + 1]]
    return ModularForm(x + y + 2 * n, _bracket_sum(n, x, y, a, b, QSeries.zero(prec)))


def canonical_rc(f: ModularForm, g: ModularForm, n: int, phi: ModularForm) -> ModularForm:
    """Bracket built from the inductive chains instead of q-derivatives.

    sum_r (-1)^r C(n+x-1, n-r) C(n+y-1, r) f_r g_(n-r).  Whether this equals
    rc_bracket depends on the choice of phi; see verify_canonical_rc.
    """
    prec = min(f.prec, g.prec, phi.prec)
    return _chain_bracket(zagier_sequence(f, phi, n), zagier_sequence(g, phi, n), n, prec)


def verify_canonical_rc(
    f: ModularForm, g: ModularForm, n_max: int, phi: ModularForm
) -> dict:
    """Compare canonical_rc against rc_bracket for n <= n_max.

    Returns {"ok": bool, "failures": [(n, first bad power, residual coeff)]}.
    No renormalization is attempted; a mismatch is surfaced as data.  The
    chains of f and g are built once, up to n_max, and each degree reads
    their prefixes.
    """
    prec = min(f.prec, g.prec, phi.prec)
    fs, gs = zagier_sequence(f, phi, n_max), zagier_sequence(g, phi, n_max)
    failures = []
    for n in range(n_max + 1):
        lhs = _chain_bracket(fs, gs, n, prec)
        rhs = rc_bracket(f, g, n).truncate(lhs.prec)
        diff = lhs.series - rhs.series
        if not diff.is_zero():
            v = diff.valuation()
            failures.append((n, v, diff.coeff(v)))
    return {"ok": not failures, "failures": failures}


# ---------------------------------------------------------------------------
# Identities through the raising operator
# ---------------------------------------------------------------------------


def verify_der_identity(f: ModularForm, m: int) -> bool:
    """Check D^m f = m! sum_r Y^r (X^(m-r)/(m-r)!) C(w+m-1, r) f exactly."""
    if m < 0:
        raise ValueError("m must be >= 0")
    w = f.weight
    prec = f.prec
    chain = raising_chain(NearlyHoloForm.from_modular(f), m)
    rhs = NearlyHoloForm.zero(w + 2 * m, prec)
    for r in range(m + 1):
        coeff = binom(w + m - 1, r) / math.factorial(m - r)
        # multiply by Y^r: shift the Y-polynomial up by r
        shifted = [QSeries.zero(prec)] * r + [s for s in chain[m - r].ypoly]
        rhs = rhs + NearlyHoloForm.make(w + 2 * m, shifted).scale(coeff)
    rhs = rhs.scale(math.factorial(m))
    dm = f.series
    for _ in range(m):
        dm = dm.derive()
    lhs = NearlyHoloForm.make(w + 2 * m, [dm])
    return lhs == rhs


def combi_bracket(f: ModularForm, g: ModularForm, n: int) -> NearlyHoloForm:
    """Bracket written through the raising operator:

    sum_r (-1)^r C(x+n-1, n-r) C(y+n-1, r) X^r f * X^(n-r) g.

    The Y-terms cancel: the result is holomorphic and equals rc_bracket.
    Both facts are asserted here, since downstream code relies on them.
    """
    x, y = f.weight, g.weight
    prec = min(f.prec, g.prec)
    xf = raising_chain(NearlyHoloForm.from_modular(f).truncate(prec), n)
    xg = raising_chain(NearlyHoloForm.from_modular(g).truncate(prec), n)
    out = _bracket_sum(n, x, y, xf, xg, NearlyHoloForm.zero(x + y + 2 * n, prec))
    if not out.is_holomorphic():
        raise AssertionError(f"combi bracket picked up Y-terms at n={n}")
    if out.ypoly[0] != rc_bracket(f, g, n).series.truncate(prec):
        raise AssertionError(f"combi bracket disagrees with the derivative form at n={n}")
    return out
