"""Exact linear-algebraic determination of the deformation coefficients.

The unknowns are the values A_n(x, y) on a grid of even weights.  Level 0 is
identically 1 and level 1 is fixed to A_1(x, y) = x*y; the reduced
associativity identities (rclab.starprod.ident_residual) then become linear
constraints on each next level.  This module builds those systems, solves
them exactly, and packages the structural facts about the solution set:

  * level 2 has a one-dimensional affine solution set with kernel direction
    x*y/(x+y+1);
  * levels >= 3 are uniquely determined (nullity 0), with the 2x2 determinant
    certificate det2x2_lemma making the key elimination step explicit;
  * walking the level-2 parameter c through the chain, A_n(x0, y0) is a
    polynomial of degree floor(n/2) in c;
  * the classical coefficient family lands in the level-2 family at
    c = 4*kappa^2 - 8*kappa + 3 (kappa_c_report records how this differs
    from the historically quoted constant).

An ATable stores each value as a reduced (numerator, denominator) int pair.
The coefficients of a level-n identity system come only from
ident_numerators, so up to a positive scale of each row its matrix does not
depend on the lower-level table; only the right-hand side does, summed from
the table's pairs by rclab.starprod.table_sum.  Each row is its identity
scaled by the common denominator D and by the lcm of its right-hand-side
denominators, so its entries and right-hand sides are Python ints, with no
Fraction between the table and the eliminator.  The systems go through the
one sparse eliminator of rclab.exactcore (eliminate): solve is its
one-column case, and level_echelon eliminates a level-n system once for any
number of tables (chain_solve_many and `rc-lab solve an` both go through
it), computing each row's columns as the row is eliminated.  solve feeds its
staged rows last-first: the pairs a row touches grow with (k, l, m), and
eliminate clears each new pivot column from every stored row that holds it,
so first-to-last the level-2 kernel column, which every pivot row holds,
would move to each larger pair and be cleared from about 100 rows at a time
(3,628 row reductions at grid 6 against 178).  Only a certificate depends on
the order, so an inconsistent system is eliminated again first-to-last for
its first contradictory row.  The degree in c is read off Newton's divided
differences of the sampled values, with no expansion into monomials.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .exactcore import Echelon, Rat, RatLike, SolveResult, eliminate, pochhammer, rat
from .starprod import cmz_rule, eholzer_rule, ident_numerators, table_sum


class MissingEntryError(KeyError):
    """An A-table lookup outside the populated grid."""


Pair = tuple[int, int]


class ATable:
    """Values A_n(x, y) on even-weight pairs, with levels 0 and 1 built in.

    `values` is the one store: (n, x, y) -> A_n(x, y) as its reduced
    (numerator, denominator) int pair, so the identity kernels read it with
    one dict lookup and no Fraction.  Levels 0 and 1 (the ints 1 and x*y)
    and, through an optional filler (a family's rule, as starprod.cmz_rule),
    every other level are stored on first lookup, so a filler runs once per
    key.  A lookup that neither covers raises MissingEntryError naming the
    missing entry.  get returns an int at levels 0 and 1 and a Rat above.
    """

    def __init__(
        self,
        max_n: int,
        grid_bound: int,
        values: dict[tuple[int, int, int], tuple[int, int]] | None = None,
        filler: Callable[[int, int, int], Rat] | None = None,
        name: str = "table",
    ):
        self.max_n = max_n
        self.grid_bound = grid_bound
        self.values: dict[tuple[int, int, int], tuple[int, int]] = dict(values or {})
        self.filler = filler
        self.name = name

    def entry(self, key: tuple[int, int, int]) -> tuple[int, int]:
        """A_n(x, y) at key = (n, x, y) as (numerator, denominator), stored on first lookup."""
        v = self.values.get(key)
        if v is None:
            n, x, y = key
            if n == 0:
                v = (1, 1)
            elif n == 1:
                v = (x * y, 1)
            elif self.filler is not None:
                f = rat(self.filler(n, x, y))
                v = (f.numerator, f.denominator)
            else:
                raise MissingEntryError(f"{self.name}: no entry for A_{n}({x}, {y})")
            self.values[key] = v
        return v

    def get(self, n: int, x: int, y: int) -> Rat | int:
        num, den = self.entry((n, x, y))
        return num if n in (0, 1) else Fraction(num, den)

    def set(self, n: int, x: int, y: int, v: RatLike) -> None:
        v = rat(v)
        self.values[(n, x, y)] = (v.numerator, v.denominator)

    @staticmethod
    def from_kappa(kappa: RatLike, max_n: int, grid_bound: int) -> ATable:
        """The classical family's table, filled by rclab.starprod.cmz_rule."""
        kappa = rat(kappa)
        return ATable(max_n, grid_bound, filler=cmz_rule(kappa), name=f"induced(kappa={kappa})")

    @staticmethod
    def eholzer(max_n: int, grid_bound: int) -> ATable:
        return ATable(max_n, grid_bound, filler=eholzer_rule, name="eholzer")


def a2_family_assoc(c: RatLike) -> Callable[[int, int], Rat]:
    """Level-2 family whose members satisfy the degree-2 identities:

        A_2(x, y) = x(x+1) y(y+1) + c * x*y / (x+y+1)

    (c = 0 is the all-ones normalized product; the induced classical family
    sits at c = 4*kappa^2 - 8*kappa + 3).  The quoted family has the same
    kernel direction but half this particular part, and is not associative.
    """
    c = rat(c)

    def f(x: int, y: int) -> Rat:
        return Fraction(x * (x + 1) * y * (y + 1)) + c * Fraction(x * y, x + y + 1)

    return f


def kappa_to_c(kappa: RatLike) -> Rat:
    """The historically quoted kappa -> c constant, -3 + 4*kappa - kappa^2."""
    kappa = rat(kappa)
    return -3 + 4 * kappa - kappa**2


def induced_c_from_kappa(kappa: RatLike) -> Rat:
    """Kernel coordinate of the induced level-2 values against a2_family_assoc."""
    kappa = rat(kappa)
    return 4 * kappa**2 - 8 * kappa + 3


def kappa_c_report(kappa: RatLike, grid_bound: int = 4) -> dict:
    """Cross-check the quoted kappa -> c constant against the induced values.

    Fits the kernel coordinate c of the gauge-normalized induced A_2 against
    a2_family_assoc on the grid, checks it is constant, and compares the
    quoted constant with the fitted one in that coordinate.  Nothing is
    auto-corrected; the mismatch (present for every rational kappa, since
    5 kappa^2 - 12 kappa + 6 has no rational root) is returned as data.
    fit_witness is None for a constant fit, else the first grid point in loop
    order whose fitted c differs from the first point's, with both values.
    """
    kappa = rat(kappa)
    c_quoted = kappa_to_c(kappa)
    table = ATable.from_kappa(kappa, 2, grid_bound)
    base, unit = a2_family_assoc(0), a2_family_assoc(1)
    fits = [
        (x, y, (table.get(2, x, y) - base(x, y)) / (unit(x, y) - base(x, y)))
        for x in range(2, 2 * grid_bound + 1, 2)
        for y in range(2, 2 * grid_bound + 1, 2)
    ]
    first = fits[0][2]
    witness = next(({"x": x, "y": y, "c": c, "c_first": first} for x, y, c in fits if c != first), None)
    fit_consistent = witness is None
    c_fit = first if fit_consistent else None
    return {
        "kappa": kappa,
        "c_quoted": c_quoted,
        "quoted_family_matches_induced": c_quoted == c_fit,
        "c_fit": c_fit,
        "fit_consistent": fit_consistent,
        "fit_witness": witness,
        "c_fit_formula": induced_c_from_kappa(kappa),
        "fit_matches_formula": fit_consistent and c_fit == induced_c_from_kappa(kappa),
    }


# ---------------------------------------------------------------------------
# Exact sparse linear systems
# ---------------------------------------------------------------------------


@dataclass
class LinSystem:
    """Sparse exact system: rows are (coefficient dict keyed by the variables, rhs)."""

    variables: list
    rows: list[tuple[dict, Rat | int]] = field(default_factory=list)

    def add_row(self, coeffs: dict, rhs: RatLike) -> None:
        # ints stay ints, so that an all-int row reaches the eliminator as it is
        values = {i: c if isinstance(c, int) else rat(c) for i, c in coeffs.items()}
        self.rows.append(({i: v for i, v in values.items() if v}, rhs if isinstance(rhs, int) else rat(rhs)))


def solve(sys: LinSystem) -> SolveResult:
    """Exact reduced row echelon over the rationals: eliminate with one column.

    The rows go to eliminate last-first.  eliminate pivots at a row's smallest
    key and clears each new pivot column from every stored row that holds it,
    and build_ident_system emits rows whose pairs grow with (k, l, m).  In row
    order the level-2 kernel column, held by every pivot row, is the largest
    pair seen so far, so each late row that brings a larger pair clears it from
    about 100 stored rows (3,256 back-clears at grid 6); last-first, a new
    pivot column is held by few stored rows (46).  A row on pivot columns only
    is checked by evaluation, so that is 178 _clear calls in all against 3,628.
    Plain reversal needs no key comparison and gave the same counts as sorting
    by descending largest key.  The reduced row echelon form is unique, so the
    solution, rank and null basis do not depend on the order.  certificate_row
    does: it is the first row, in row order, that makes the system
    inconsistent, so an inconsistent system is eliminated again first-to-last.
    """
    rows = [(coeffs, (rhs,)) for coeffs, rhs in sys.rows]
    ech = eliminate(reversed(rows), 1)
    if ech.certificates[0] is not None:
        ech = eliminate(rows, 1)
    return ech.result(sys.variables)


# ---------------------------------------------------------------------------
# The identity systems on the A-values
# ---------------------------------------------------------------------------


def ident_row_points(n: int, grid_bound: int) -> Iterator[tuple[int, int, int, int]]:
    """The (k, l, m, p) of each level-n identity row, in row order (p innermost)."""
    return itertools.product(*[range(1, grid_bound + 1)] * 3, range(n + 1))


def _ident_rows(
    n: int, grid_bound: int, tables: Sequence[ATable], pairs: set[Pair]
) -> Iterator[tuple[dict[Pair, int], tuple[int, ...]]]:
    """The level-n identity rows in order, one right-hand side per table.

    One row per (k, l, m, p): (nonzero coefficients by level-n pair, values).
    Since A_0 = 1, the level-n unknowns are the end terms of each identity
    sum; the interior terms are known, read from each table by table_sum, and
    move to the right-hand side.  Each row is the identity scaled by the D of
    ident_numerators and by L, the lcm of its right-hand-side denominators,
    so its coefficients and right-hand sides are Python ints; the matrix is
    the same for every table up to the scale L of each row.  Every pair a row
    touches is added to `pairs`, also one whose coefficients sum to 0.
    """
    for k, l, m, p in ident_row_points(n, grid_bound):
        x, y, z = 2 * k, 2 * l, 2 * m
        left, right, _ = ident_numerators(n, p, x, y, z)
        coeffs: dict[Pair, int] = {}
        interior = []
        for r, c in enumerate(left):
            if 0 < r < n:
                interior.append((-c, (r, x, y), (n - r, x + y + 2 * r, z)))
            else:
                pair = (x + y, z) if r == 0 else (x, y)
                coeffs[pair] = coeffs.get(pair, 0) + c
        for s, c in enumerate(right):
            if 0 < s < n:
                interior.append((c, (s, y, z), (n - s, x, y + z + 2 * s)))
            else:
                pair = (x, y + z) if s == 0 else (y, z)
                coeffs[pair] = coeffs.get(pair, 0) - c
        pairs.update(coeffs)
        sums = [table_sum(interior, t) for t in tables]
        scale = math.lcm(*(den for _, den in sums))
        yield (
            {pair: v * scale for pair, v in coeffs.items() if v},
            tuple(num * (scale // den) for num, den in sums),
        )


def build_ident_system(n: int, grid_bound: int, known: ATable) -> LinSystem:
    """Linear system for the level-n values from all identities on the grid.

    One row per (k, l, m, p) of ident_row_points, in that order, with
    1 <= k, l, m <= grid_bound and 0 <= p <= n.  The variables are the sorted
    level-n pairs the rows touch (this auto-enlarges past the nominal grid,
    as the boundary terms reach weights up to twice the grid).  Lower-level
    lookups go through `known` and raise MissingEntryError if the table is
    too small.  Up to a positive scale of each row the matrix does not depend
    on `known`; only the right-hand side does.  Each row is its identity
    scaled by the D of ident_numerators and by the lcm of its right-hand-side
    denominators, so the coefficients and right-hand sides are integers; the
    reduced echelon form, and with it every solution, rank and null basis, is
    the same as for the unscaled identities.
    """
    if n < 1:
        raise ValueError("systems are built for levels n >= 1")
    pairs: set[Pair] = set()
    rows = [(coeffs, rhs) for coeffs, (rhs,) in _ident_rows(n, grid_bound, [known], pairs)]
    return LinSystem(sorted(pairs), rows)


def level_echelon(n: int, grid_bound: int, tables: Sequence[ATable]) -> tuple[list[Pair], Echelon]:
    """The level-n identity system on the grid, eliminated once for all tables.

    Returns the sorted level-n pairs the rows touch (the column keys) and the
    echelon, with one right-hand-side column per table.  Every row is built
    and eliminated in one pass, without staging the system.
    """
    pairs: set[Pair] = set()
    ech = eliminate(_ident_rows(n, grid_bound, tables, pairs), len(tables))
    return sorted(pairs), ech


def extended(known: ATable, n: int, pairs: Sequence[Pair], res: SolveResult) -> ATable:
    """`known` plus the level-n solution over `pairs`; raises unless it is one."""
    if not res.consistent:
        raise ValueError(f"level-{n} system inconsistent (row {res.certificate_row})")
    if res.nullity != 0:
        raise ValueError(f"level-{n} system has nullity {res.nullity}, expected 0")
    out = ATable(
        max(n, known.max_n),
        known.grid_bound,
        values=dict(known.values),
        filler=known.filler,
        name=known.name,
    )
    for pair, v in zip(pairs, res.solution):
        out.set(n, pair[0], pair[1], v)
    return out


def chain_solve_many(cs: Sequence[RatLike], upto_n: int, final_grid: int = 4) -> list[ATable]:
    """Solve levels 3..upto_n for every c in cs, seeding A_2 from a2_family_assoc(c).

    Level j is solved on grid final_grid + (upto_n - j), so each level covers
    every pair the next level's rows reference.  The level-j matrix does not
    depend on c: each level is one level_echelon with one right-hand side per
    c.  Raises unless every level is uniquely determined.
    """
    base_bound = final_grid + max(0, upto_n - 2)

    def base(c: RatLike) -> ATable:
        fam = a2_family_assoc(c)

        def fill(n: int, x: int, y: int) -> Rat:
            if n == 2:
                return fam(x, y)
            raise MissingEntryError(f"chain(c={c}): no entry for A_{n}({x}, {y})")

        return ATable(2, base_bound, filler=fill, name=f"chain(c={c})")

    tables = [base(c) for c in cs]
    for j in range(3, upto_n + 1):
        keys, ech = level_echelon(j, final_grid + (upto_n - j), tables)
        tables = [extended(t, j, keys, ech.result(keys, i)) for i, t in enumerate(tables)]
    return tables


def interpolant_degree(xs: Sequence[RatLike], ys: Sequence[RatLike]) -> int:
    """Degree of the least-degree polynomial through the points (xs[i], ys[i]).

    The i-th Newton divided difference is the coefficient of the i-th Newton
    basis polynomial, which is monic of degree i, so the degree is the index
    of the last nonzero one (0 when every value is 0).  With k points the
    degree is at most k - 1, so a curve of higher degree aliases to a lower
    one: pass at least one point more than the largest degree to be detected.
    """
    xs = [rat(x) for x in xs]
    if not xs or len(set(xs)) != len(xs):
        raise ValueError("need one or more samples at distinct abscissae")
    dd = [rat(y) for y in ys]
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - j])
    return max((i for i, d in enumerate(dd) if d), default=0)


def degree_in_c(n: int, pair: Pair, c_samples: Sequence[RatLike]) -> int:
    """Degree in c of A_n(pair) along the solved chain with A_2 from the family.

    All samples share one elimination per level (chain_solve_many; at n = 2
    its tables are the family itself).  With n + 1 samples the result is at
    most n; pass n + 2 or more so that a degree above n shows instead of
    aliasing to a lower one.
    """
    if len(c_samples) < n + 1:
        raise ValueError(f"need at least {n + 1} distinct c samples")
    cs = [rat(c) for c in c_samples]
    return interpolant_degree(cs, [table.get(n, *pair) for table in chain_solve_many(cs, n)])


# ---------------------------------------------------------------------------
# Determinant certificate
# ---------------------------------------------------------------------------


def _poch(a: int, n: int) -> int:
    """pochhammer at an integer a, as an int."""
    return pochhammer(a, n).numerator


def det2x2_direct(n: int, k: int, l: int, m: int) -> Rat:
    """Direct determinant of the p = 1, 2 unknown-coefficient matrix.

    With a_p = C(n,p) / [(x+y)_(n-p) (z)_p] and b_p = C(n,p) / [(x)_(n-p) (y+z)_p],
    this is a_1 b_2 - a_2 b_1, summed over the product of the four
    denominators in Python ints.  a_p and b_p are ident_numerators' r = s = 0
    terms at p, copied so that the fine suite builds no identity rows.
    """
    x, y, z = 2 * k, 2 * l, 2 * m
    da1 = _poch(x + y, n - 1) * _poch(z, 1)
    db1 = _poch(x, n - 1) * _poch(y + z, 1)
    da2 = _poch(x + y, n - 2) * _poch(z, 2)
    db2 = _poch(x, n - 2) * _poch(y + z, 2)
    return Fraction(n * math.comb(n, 2) * (da2 * db1 - da1 * db2), da1 * db1 * da2 * db2)


def det2x2_lemma(n: int, k: int, l: int, m: int) -> Rat:
    """Closed form of det2x2_direct.

    C(n,1) C(n,2) / [(x+y)_(n-2) z (x)_(n-2) (y+z)]
      * (-y^2 - y(x+z+n-1)) / [(x+y+n-2)(y+z+1)(z+1)(x+n-2)]

    The numerator and the denominator are Python ints; one Fraction is built.
    """
    if n < 3:
        raise ValueError("the elimination step needs n >= 3")
    if min(k, l, m) < 1:
        raise ValueError("k, l, m must be >= 1")
    x, y, z = 2 * k, 2 * l, 2 * m
    return Fraction(
        n * math.comb(n, 2) * (-y * y - y * (x + z + n - 1)),
        _poch(x + y, n - 2) * z * _poch(x, n - 2) * (y + z)
        * (x + y + n - 2) * (y + z + 1) * (z + 1) * (x + n - 2),
    )
