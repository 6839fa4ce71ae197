"""Concrete level-1 modular forms and weight-graded containers.

The library generators are the Eisenstein series E2 (quasi-modular, exposed
as a raw series), E4, E6, the discriminant cusp form Delta, and the
normalized weight-4 element Phi = E4/144 used by the canonical bracket
construction.  All q-expansions are exact.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .exactcore import QSeries, RatLike, rat


def sigma(n: int, power: int) -> int:
    """Divisor power sum sigma_power(n)."""
    if n < 1:
        raise ValueError("sigma is defined for n >= 1")
    return sum(d**power for d in range(1, n + 1) if n % d == 0)


@functools.lru_cache(maxsize=None)
def eisenstein(weight: int, prec: int) -> QSeries:
    """E2, E4 or E6 normalized with constant term 1, built once per (weight, prec).

    E2 = 1 - 24 sum sigma_1(n) q^n, E4 = 1 + 240 sum sigma_3(n) q^n,
    E6 = 1 - 504 sum sigma_5(n) q^n.
    """
    if prec < 1:
        raise ValueError("prec must be >= 1")
    scale = {2: -24, 4: 240, 6: -504}
    if weight not in scale:
        raise ValueError(f"unsupported Eisenstein weight {weight}; expected 2, 4 or 6")
    sigmas = [scale[weight] * sigma(n, weight - 1) for n in range(1, prec)]
    return QSeries.from_numerators([1] + sigmas)


@dataclass(frozen=True)
class ModularForm:
    """A weight-tagged q-expansion.  weight is the full (even) weight."""

    weight: int
    series: QSeries

    def __post_init__(self) -> None:
        if self.weight < 0 or self.weight % 2:
            raise ValueError(f"weight must be even and >= 0, got {self.weight}")

    @property
    def prec(self) -> int:
        return self.series.prec

    def is_zero(self) -> bool:
        return self.series.is_zero()

    def __add__(self, other: ModularForm) -> ModularForm:
        if self.weight != other.weight:
            raise ValueError(f"cannot add weights {self.weight} and {other.weight}")
        return ModularForm(self.weight, self.series + other.series)

    def __sub__(self, other: ModularForm) -> ModularForm:
        return self + (-other)

    def __neg__(self) -> ModularForm:
        return ModularForm(self.weight, -self.series)

    def __mul__(self, other: ModularForm) -> ModularForm:
        return ModularForm(self.weight + other.weight, self.series * other.series)

    def scale(self, c: RatLike) -> ModularForm:
        return ModularForm(self.weight, self.series.scale(c))

    def truncate(self, prec: int) -> ModularForm:
        return ModularForm(self.weight, self.series.truncate(prec))


def eisenstein_form(weight: int, prec: int) -> ModularForm:
    if weight == 2:
        raise ValueError("E2 is only quasi-modular; use eisenstein(2, prec) directly")
    return ModularForm(weight, eisenstein(weight, prec))


def delta(prec: int) -> ModularForm:
    """The discriminant Delta = q prod (1-q^n)^24, expanded exactly."""
    if prec < 2:
        raise ValueError("prec must be >= 2 for a visible cusp form")
    # Euler product prod_n (1 - q^n) to prec-1, one factor at a time on the
    # integer coefficients; the q-shift then restores prec coefficients.
    euler = [1] + [0] * (prec - 2)
    for n in range(1, prec - 1):
        for m in range(prec - 2, n - 1, -1):
            euler[m] -= euler[m - n]
    return ModularForm(12, QSeries.from_numerators(euler).pow(24).shift(1))


def phi_zagier(prec: int) -> ModularForm:
    """The weight-4 element E4/144."""
    return ModularForm(4, eisenstein(4, prec).scale(Fraction(1, 144)))


def eta_log_derivative(prec: int) -> QSeries:
    """(q d/dq) log eta^4 = 4*(1/24 - sum_n n q^n/(1-q^n)), computed from the product.

    Equals E2/6; the cross-check against eisenstein(2, prec) is a test, not an
    input, so this stays an independent route.
    """
    nums = [1] + [0] * (prec - 1)  # over the denominator 6
    for n in range(1, prec):
        for m in range(n, prec, n):
            nums[m] -= 24 * n
    return QSeries.from_numerators(nums, 6)


class GradedForm:
    """Finite weight-graded sum of modular forms; no zero parts stored."""

    __slots__ = ("parts",)

    def __init__(self, parts: dict[int, ModularForm] | None = None):
        clean: dict[int, ModularForm] = {}
        for w, f in (parts or {}).items():
            if f.weight != w:
                raise ValueError(f"part at key {w} has weight {f.weight}")
            if not f.is_zero():
                clean[w] = f
        self.parts = clean

    @staticmethod
    def from_form(f: ModularForm) -> GradedForm:
        return GradedForm({f.weight: f})

    @staticmethod
    def zero() -> GradedForm:
        return GradedForm({})

    def weights(self) -> list[int]:
        return sorted(self.parts)

    def is_zero(self) -> bool:
        return not self.parts

    def __add__(self, other: GradedForm) -> GradedForm:
        out = dict(self.parts)
        for w, f in other.parts.items():
            out[w] = out[w] + f if w in out else f
        return GradedForm({w: f for w, f in out.items()})

    def __sub__(self, other: GradedForm) -> GradedForm:
        return self + other.scale(-1)

    def scale(self, c: RatLike) -> GradedForm:
        c = rat(c)
        return GradedForm({w: f.scale(c) for w, f in self.parts.items()})

    def __mul__(self, other: GradedForm) -> GradedForm:
        out: dict[int, ModularForm] = {}
        for wf, f in self.parts.items():
            for wg, g in other.parts.items():
                p = f * g
                w = wf + wg
                out[w] = out[w] + p if w in out else p
        return GradedForm(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GradedForm) and self.weights() == other.weights() and all(
            self.parts[w].series == other.parts[w].series for w in self.parts
        )

    def __hash__(self) -> int:
        return hash(tuple((w, self.parts[w].series) for w in self.weights()))

    def truncate(self, prec: int) -> GradedForm:
        return GradedForm({w: f.truncate(prec) for w, f in self.parts.items()})

    def to_json_obj(self) -> dict:
        return {"parts": {str(w): self.parts[w].series.to_json_obj() for w in self.weights()}}

    def __str__(self) -> str:
        if not self.parts:
            return "0"
        return " + ".join(f"[wt {w}] {self.parts[w].series}" for w in self.weights())


def form_by_name(name: str, prec: int) -> ModularForm:
    """Small named catalogue used by the CLI and tests."""
    key = name.strip().lower()
    if key == "e4":
        return eisenstein_form(4, prec)
    if key == "e6":
        return eisenstein_form(6, prec)
    if key in ("delta", "d"):
        return delta(prec)
    if key == "phi":
        return phi_zagier(prec)
    if key in ("e4^2", "e8"):
        f = eisenstein_form(4, prec)
        return f * f
    if key in ("e4e6", "e10"):
        return eisenstein_form(4, prec) * eisenstein_form(6, prec)
    raise ValueError(f"unknown form name {name!r}; try E4, E6, Delta, Phi, E8, E10")
