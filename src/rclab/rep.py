"""Formal, pi-free sl2 lowest-weight model and its concrete realization.

Basis phi_n with lowest weight w = 2k; the rescaled operators are

  raise:  phi_n -> (w + n) phi_(n+1)
  lower:  phi_n -> -n phi_(n-1)
  weight: phi_n -> (w + 2n) phi_n

so [lower, raise] = -weight, [weight, raise] = 2 raise, [weight, lower] =
-2 lower, and the Casimir 2(raise lower + lower raise) + weight^2 acts on the
whole module as the scalar w(w - 2) = 4k(k-1).

One vector type, Vector, serves the module and its tensor products: a
finitely supported rational combination of dtil^r f (x) dtil^s g (x) ...,
keyed by the index tuple (r, s, ...) with one entry per factor, where dtil
is the normalized raising chain sending phi_n to phi_(n+1).  The module
itself is the one-factor case, phi_n having key (n,).  Each operator acts
slot-wise, as the sum over the factors of its action on that factor (the
coproduct), so act_lower is the one lowering map of the module, the tensor
product and the triple product.  The concrete realization maps two-factor
vectors through rclab.nearlyholo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .exactcore import Rat, RatLike, binom, eliminate, pochhammer, rat
from .forms import ModularForm
from .nearlyholo import NearlyHoloForm, dtil_chain

Key = tuple[int, ...]


@dataclass(frozen=True)
class Vector:
    """Finitely supported sum of c * dtil^k0 (x) dtil^k1 (x) ..., keyed by (k0, k1, ...).

    `weights` holds the lowest weight of each factor; every key has one entry per factor.
    """

    weights: tuple[int, ...]
    support: tuple[tuple[Key, Rat], ...]

    @staticmethod
    def make(weights: tuple[int, ...], support: dict[Key, RatLike]) -> Vector:
        clean = {k: q for k, c in support.items() if (q := rat(c)) != 0}
        if any(len(k) != len(weights) for k in clean):
            raise ValueError(f"indices must have one entry per factor of {tuple(weights)}")
        if any(min(k) < 0 for k in clean):
            raise ValueError("indices must be >= 0")
        return Vector(tuple(weights), tuple(sorted(clean.items())))

    @staticmethod
    def basis(weights: tuple[int, ...], key: Key) -> Vector:
        return Vector.make(weights, {key: 1})

    def as_dict(self) -> dict[Key, Rat]:
        return dict(self.support)

    def is_zero(self) -> bool:
        return not self.support

    def __add__(self, other: Vector) -> Vector:
        if self.weights != other.weights:
            raise ValueError("cannot add vectors from different modules")
        out = self.as_dict()
        for k, c in other.support:
            out[k] = out.get(k, 0) + c
        return Vector.make(self.weights, out)

    def __sub__(self, other: Vector) -> Vector:
        return self + other.scale(-1)

    def scale(self, c: RatLike) -> Vector:
        c = rat(c)
        return Vector.make(self.weights, {k: c * v for k, v in self.support})


def _slotwise_coeffs(
    weights: tuple[int, ...],
    items: Iterable[tuple[Key, RatLike]],
    step: int,
    factor: Callable[[int, int], int],
) -> dict[Key, RatLike]:
    """Sum over the slots of factor(w, n) times the key with that slot's n moved by step.

    On bare (key, coefficient) pairs: int coefficients give int coefficients,
    and zero sums are kept.
    """
    out: dict[Key, RatLike] = {}
    for key, c in items:
        for i, (w, n) in enumerate(zip(weights, key)):
            f = factor(w, n)
            if f:
                k = key[:i] + (n + step,) + key[i + 1 :]
                out[k] = out.get(k, 0) + f * c
    return out


def _slotwise(v: Vector, step: int, factor: Callable[[int, int], int]) -> Vector:
    return Vector.make(v.weights, _slotwise_coeffs(v.weights, v.support, step, factor))


def raise_coeffs(weights: tuple[int, ...], coeffs: dict[Key, int]) -> dict[Key, int]:
    """act_raise on a dict of integer coefficients, which stay integers."""
    return _slotwise_coeffs(weights, coeffs.items(), 1, lambda w, n: w + n)


def act_raise(v: Vector) -> Vector:
    return Vector.make(v.weights, raise_coeffs(v.weights, v.as_dict()))


def act_lower(v: Vector) -> Vector:
    """phi_n -> -n phi_(n-1) in each slot; on a triple it drops the hbar-degree by one."""
    return _slotwise(v, -1, lambda w, n: -n)


def act_weight(v: Vector) -> Vector:
    return _slotwise(v, 0, lambda w, n: w + 2 * n)


def casimir(v: Vector) -> Vector:
    """2(raise lower + lower raise) + weight^2, rational and scalar-acting."""
    rl = act_raise(act_lower(v))
    lr = act_lower(act_raise(v))
    ww = act_weight(act_weight(v))
    return (rl + lr).scale(2) + ww


def casimir_eigenvalue(lowest_weight: int) -> Rat:
    """The scalar w(w-2) = 4k(k-1) by which the Casimir acts at lowest weight w."""
    w = lowest_weight
    return Fraction(w * (w - 2))


# ---------------------------------------------------------------------------
# Tensor products of two modules
# ---------------------------------------------------------------------------


def lowest_weight_coeffs(n: int) -> dict[Key, int]:
    """n! lowest_weight_tensor(x, y, n) as integers: (r, n - r) -> (-1)^r C(n, r)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return {(r, n - r): (-1) ** r * math.comb(n, r) for r in range(n + 1)}


def lowest_weight_tensor(x: int, y: int, n: int) -> Vector:
    """(1/n!) sum_r (-1)^r C(n, r) dtil^r f (x) dtil^(n-r) g.

    Killed by act_lower; its concrete realization is the degree-n bracket
    divided by (x)_n (y)_n.
    """
    coeffs = lowest_weight_coeffs(n)
    fact = Fraction(1, math.factorial(n))
    return Vector.make((x, y), {k: fact * c for k, c in coeffs.items()})


def realize_and_multiply(v: Vector, fs: list[NearlyHoloForm], gs: list[NearlyHoloForm]) -> NearlyHoloForm:
    """Send dtil^r f (x) dtil^s g to fs[r] * gs[s], the product of the realized factors.

    fs and gs are the normalized chains dtil_chain(f, .) and dtil_chain(g, .),
    built once by the caller, realizing dtil^r as X^r / (weight)_r; each
    vector reads their prefixes.  On the vector lowest_weight_tensor(x, y, n)
    this lands exactly on rc_bracket(f, g, n) / ((x)_n (y)_n).
    """
    f, g = fs[0], gs[0]
    if v.weights != (f.weight, g.weight):
        raise ValueError(f"vector weights {v.weights} do not match forms ({f.weight}, {g.weight})")
    keys = [key for key, _ in v.support] or [(0, 0)]
    # every term has the weight of the first: adding one of another total degree raises ValueError
    total = NearlyHoloForm.zero(sum(v.weights) + 2 * sum(keys[0]), min(f.prec, g.prec))
    for (r, s), c in v.support:
        total = total + (fs[r] * gs[s]).scale(c)
    return total


# ---------------------------------------------------------------------------
# Triple products
# ---------------------------------------------------------------------------


def degree_slice(n: int) -> list[tuple[int, int, int]]:
    """All (r, s, t) with r+s+t = n, in lexicographic order."""
    return [(r, s, n - r - s) for r in range(n + 1) for s in range(n - r + 1)]


def triple_kernel_dim(weights: tuple[int, int, int], n: int) -> int:
    """Nullity of act_lower on the hbar-degree-n slice, by exact elimination."""
    if n < 0:
        raise ValueError("n must be >= 0")
    dom = degree_slice(n)
    rows = ((act_lower(Vector.basis(weights, key)).as_dict(), (0,)) for key in dom)
    return len(dom) - len(eliminate(rows, 1).pivots)


def triple_preimage(target: tuple[int, int, int]) -> Vector:
    """Explicit preimage of a degree-(n-1) basis vector under act_lower.

    For target (r, s, t) the combination

      sum_i [(-1)^i i! / (r+1)_(i+1)] sum_j C(s, i-j) C(t, j)
                               basis(r+1+i, s-i+j, t-j)

    satisfies act_lower(preimage) = -target (the sign is the scaled
    lowering convention).  Every index in the support has first entry >= r+1.
    """
    r, s, t = target
    if min(target) < 0:
        raise ValueError("target indices must be >= 0")
    n = r + s + t + 1
    support: dict[tuple[int, int, int], Rat] = {}
    for i in range(n - r):
        coeff = (-1) ** i * math.factorial(i) / pochhammer(r + 1, i + 1)
        for j in range(i + 1):
            c = binom(s, i - j) * binom(t, j)
            if c == 0:
                continue
            key = (r + 1 + i, s - i + j, t - j)
            if min(key) < 0:
                continue
            support[key] = support.get(key, Fraction(0)) + coeff * c
    return Vector.make((0, 0, 0), support)  # the lowering action does not read the weights


def xi_vectors(f: ModularForm, g: ModularForm, h: ModularForm, n_max: int) -> dict[tuple[int, int], NearlyHoloForm]:
    """Concrete lowest-weight vectors xi_(n,p) in the three-factor space, 0 <= p <= n <= n_max.

    With x, y, z the weights of f, g, h and nu = n - p, the pair (f, g) gives
    the holomorphic lowest-weight vector of weight B = x + y + 2 nu

      w_nu = (-1)^nu nu! realize(lowest_weight_tensor(x, y, nu), f, g),

    and xi is the one of degree p in the pair (w_nu, h):

      xi_(n,p) = p! realize(lowest_weight_tensor(B, z, p), w_nu, h)
               = sum_s (-1)^s C(p, s) [X^s w_nu / (B)_s] * dtil^(p-s) h,

    so lower(xi) = 0 is an exact identity for every n, p and all weights.
    One normalized chain per factor f, g, h and per w_nu is built, up to the
    top degree it reaches; every (n, p) reads their prefixes.  Keyed by
    (n, p), in the order n, then p.
    """
    if n_max < 0:
        raise ValueError(f"need n_max >= 0, got {n_max}")
    fs, gs, hs = (dtil_chain(form, n_max) for form in (f, g, h))
    ws = []
    for nu in range(n_max + 1):
        w = realize_and_multiply(lowest_weight_tensor(f.weight, g.weight, nu), fs, gs)
        ws.append(dtil_chain(w.scale((-1) ** nu * math.factorial(nu)), n_max - nu))
    return {(n, p): realize_and_multiply(lowest_weight_tensor(ws[n - p][0].weight, h.weight, p), ws[n - p], hs)
            .scale(math.factorial(p)) for n in range(n_max + 1) for p in range(n + 1)}
