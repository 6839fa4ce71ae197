"""The integer identity kernels against the Fraction kernels they replaced.

reference_ident_residual and reference_ident_rows are starprod.ident_residual
and coeffsolve._ident_rows as they were before the identities were summed in
integers, kept verbatim as oracles: every coefficient is a Fraction and every
sum a Fraction sum.  single_table_ident_residual is the integer
starprod.ident_residual as it was before ident_residuals evaluated one
identity for several tables, kept verbatim as the oracle of that sweep, and
_ident_sum is the sum it ran over (int, Fraction, Fraction) triples read
through ATable.get, kept verbatim as the oracle of starprod.table_sum, which
reads the table's int pairs by key.  reference_get is ATable.get as it was
when the table stored Fractions.
"""

import functools
import math
import random
from fractions import Fraction
from fractions import Fraction as F
from itertools import chain
from typing import Iterable, Iterator, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import a2_family

from rclab import coeffsolve
from rclab.coeffsolve import ATable, MissingEntryError, Pair, chain_solve_many, eliminate, level_echelon
from rclab.exactcore import Rat, pochhammer, rat
from rclab.starprod import ident_numerators, ident_residual, ident_residuals, table_sum


def ident_coefficients(n: int, p: int, x: int, y: int, z: int):
    """ident_numerators as Fractions: (left, right), the pairs (r, c_r) and (s, c_s)."""
    left, right, d = ident_numerators(n, p, x, y, z)
    return [(r, F(c, d)) for r, c in enumerate(left)], [(s, F(c, d)) for s, c in enumerate(right)]


def reference_ident_residual(atable, k: int, l: int, m: int, n: int, p: int) -> Rat:
    """Residual of the degree-n, index-p associativity identity at (k, l, m).

    k, l, m are half-weights; x = 2k, y = 2l, z = 2m.  The identity equates
    the coefficient of dtil^(n-p) f * g * dtil^p h in the two bracketings
    (see ident_coefficients).  Returns LHS - RHS; the table must cover every
    referenced pair.
    """
    x, y, z = 2 * k, 2 * l, 2 * m
    left, right = ident_coefficients(n, p, x, y, z)
    lhs = sum((c * atable.get(r, x, y) * atable.get(n - r, x + y + 2 * r, z) for r, c in left),
              Fraction(0))
    rhs = sum((c * atable.get(s, y, z) * atable.get(n - s, x, y + z + 2 * s) for s, c in right),
              Fraction(0))
    return lhs - rhs


def _ident_sum(terms: Iterable[tuple[int, Rat, Rat]]) -> tuple[int, int]:
    """sum c * u * v over (int c, rational u, rational v), as (numerator, denominator).

    Sums in Python ints over a running common denominator.  A term whose
    denominator equals it is added as is; any other term moves it to the lcm
    of the two.  The pair is not reduced.
    """
    num, den = 0, 1
    for c, u, v in terms:
        tnum = c * u.numerator * v.numerator
        tden = u.denominator * v.denominator
        if tden == den:
            num += tnum
        else:
            g = math.gcd(den, tden)
            num = num * (tden // g) + tnum * (den // g)
            den = den // g * tden
    return num, den


def reference_get(filler, name: str, n: int, x: int, y: int) -> Rat | int:
    """ATable.get, as it was when the table stored Fractions, on an entry not stored yet."""
    if n == 0:
        return 1
    if n == 1:
        return x * y
    if filler is not None:
        return rat(filler(n, x, y))
    raise MissingEntryError(f"{name}: no entry for A_{n}({x}, {y})")


def single_table_ident_residual(atable, k: int, l: int, m: int, n: int, p: int) -> Rat:
    """Residual of the degree-n, index-p associativity identity at (k, l, m).

    k, l, m are half-weights; x = 2k, y = 2l, z = 2m.  The identity equates
    the coefficient of dtil^(n-p) f * g * dtil^p h in the two bracketings
    (see ident_numerators).  Returns LHS - RHS as a Fraction; the table must
    cover every referenced pair.  The sum runs in integers and the one
    Fraction is built at the end.
    """
    x, y, z = 2 * k, 2 * l, 2 * m
    left, right, d = ident_numerators(n, p, x, y, z)
    get = atable.get
    num, den = _ident_sum(
        chain(
            ((c, get(r, x, y), get(n - r, x + y + 2 * r, z)) for r, c in enumerate(left)),
            ((-c, get(s, y, z), get(n - s, x, y + z + 2 * s)) for s, c in enumerate(right)),
        )
    )
    return Fraction(num, den * d)


def reference_ident_rows(
    n: int, grid_bound: int, tables: Sequence[ATable], pairs: set[Pair]
) -> Iterator[tuple[dict[Pair, Rat], tuple[Rat, ...]]]:
    """The level-n identity rows in order, one right-hand side per table.

    One row per (k, l, m, p): (nonzero coefficients by level-n pair, values).
    Since A_0 = 1, the level-n unknowns are the end terms of each identity
    sum; the interior terms are known, read from each table, and move to the
    right-hand side.  The coefficients come only from ident_coefficients, so
    they are the same for every table.  Every pair a row touches is added to
    `pairs`, also one whose coefficients sum to 0.
    """
    for k in range(1, grid_bound + 1):
        for l in range(1, grid_bound + 1):
            for m in range(1, grid_bound + 1):
                x, y, z = 2 * k, 2 * l, 2 * m
                for p in range(n + 1):
                    left, right = ident_coefficients(n, p, x, y, z)
                    coeffs: dict[Pair, Rat] = {}
                    interior = []
                    for r, c in left:
                        if 0 < r < n:
                            interior.append((-c, (r, x, y), (n - r, x + y + 2 * r, z)))
                        else:
                            pair = (x + y, z) if r == 0 else (x, y)
                            coeffs[pair] = coeffs.get(pair, Fraction(0)) + c
                    for s, c in right:
                        if 0 < s < n:
                            interior.append((c, (s, y, z), (n - s, x, y + z + 2 * s)))
                        else:
                            pair = (x, y + z) if s == 0 else (y, z)
                            coeffs[pair] = coeffs.get(pair, Fraction(0)) - c
                    pairs.update(coeffs)
                    yield (
                        {pair: v for pair, v in coeffs.items() if v != 0},
                        tuple(
                            sum((c * t.get(*a) * t.get(*b) for c, a, b in interior), Fraction(0))
                            for t in tables
                        ),
                    )


@functools.cache
def _chain_tables() -> tuple[ATable, ...]:
    """Levels 3 and 4 solved from the level-2 family, at three c values."""
    return tuple(chain_solve_many([F(0), F(-5, 4), F(7, 5)], 4))


def _planted(c: Rat) -> ATable:
    """A wrong level-2 family (the quoted one, half the particular part) under
    the constant-coefficient levels, so its residuals do not vanish."""
    quoted = a2_family(c)

    def fill(n: int, x: int, y: int) -> Rat:
        return quoted(x, y) if n == 2 else pochhammer(x, n) * pochhammer(y, n)

    return ATable(5, 40, filler=fill, name=f"planted(c={c})")


def _table(rng) -> ATable:
    """Eholzer's table, one induced at a drawn kappa, a chain-solved one or one
    planted at a drawn c, in equal shares; the tables fill their entries lazily."""
    r = F(rng.randint(-9, 9), rng.randint(1, 5))
    tables = (ATable.eholzer(5, 40), ATable.from_kappa(r, 5, 40), _chain_tables()[rng.randrange(3)], _planted(r))
    return rng.choice(tables)


def test_ident_residual_sweep_matches_fraction_oracle():
    tables = [ATable.eholzer(4, 40), ATable.from_kappa(F(-7, 3), 4, 40), _chain_tables()[2], _planted(F(3, 2))]
    nonzero = {}
    for table in tables:
        for n in range(5):
            for p in range(n + 1):
                for k, l, m in ((1, 1, 1), (1, 2, 1), (2, 1, 2), (2, 2, 2), (4, 3, 1)):
                    got = ident_residual(table, k, l, m, n, p)
                    assert type(got) is Fraction and got == reference_ident_residual(table, k, l, m, n, p)
                    nonzero[table.name] = nonzero.get(table.name, 0) + (got != 0)
    # only the planted family breaks the identities, and it does at every level >= 2
    assert [nonzero[t.name] for t in tables[:3]] == [0, 0, 0]
    assert nonzero[tables[3].name] > 0


def _identity_case(seed):
    """(tables, k, l, m, n, p): one table half the time, else 1-4; half-weights
    1-4 and an identity every table covers."""
    rng = random.Random(seed)
    tables = [_table(rng) for _ in range(rng.randint(1, 4) if rng.random() < 0.5 else 1)]
    n = rng.randint(0, min(t.max_n for t in tables))
    return (tables, *(rng.randint(1, 4) for _ in range(3)), n, rng.randint(0, n))


@settings(max_examples=500)
@given(st.integers(0, 2**32).map(_identity_case))
def test_ident_residuals_match_the_per_table_residual(case):
    tables, *args = case
    got = ident_residuals(tables, *args)
    assert all(type(r) is Fraction for r in got)
    assert got == [single_table_ident_residual(t, *args) for t in tables]
    assert got == [reference_ident_residual(t, *args) for t in tables]
    singles = [ident_residual(t, *args) for t in tables]
    assert singles == got and all(type(r) is Fraction for r in singles)


def _level_case(seed):
    """(n, grid, tables): levels 0-4, since at n = 0 the end terms r = 0 and r = n are one term."""
    rng = random.Random(seed)
    return rng.randint(0, 4), rng.randint(1, 3), [_table(rng) for _ in range(rng.randint(1, 3))]


@settings(max_examples=60)
@given(st.integers(0, 2**32).map(_level_case))
def test_level_echelon_matches_eliminating_the_oracle_rows(case):
    n, grid, tables = case
    keys, got = level_echelon(n, grid, tables)
    pairs: set[Pair] = set()
    want = eliminate(reference_ident_rows(n, grid, tables, pairs), len(tables))
    assert keys == sorted(pairs)
    assert got.pivots == want.pivots
    assert got.certificates == want.certificates
    # each integer row is its oracle row times one positive scale, the D of the identity
    rows = list(coeffsolve._ident_rows(n, grid, tables, set()))
    reference = list(reference_ident_rows(n, grid, tables, set()))
    assert len(rows) == len(reference)
    for (coeffs, rhs), (ref_coeffs, ref_rhs) in zip(rows, reference):
        assert all(type(v) is int for v in coeffs.values()) and coeffs.keys() == ref_coeffs.keys()
        assert all(type(v) is int for v in rhs) and all(not v for v, w in zip(rhs, ref_rhs) if not w)
        scales = {v / ref_coeffs[key] for key, v in coeffs.items()} | {v / w for v, w in zip(rhs, ref_rhs) if w}
        assert len(scales) <= 1 and all(scale > 0 for scale in scales)


def _key(rng, table: ATable, solved: bool = True):
    """A key (n, x, y) the table covers: at a level its filler covers (up to 2
    for a chain), or with `solved`, half the time, at a level a chain solved."""
    top = 2 if table.name.startswith("chain") else table.max_n
    keys = sorted(key for key in table.values if key[0] > top) if solved else []
    if keys and rng.random() < 0.5:
        return rng.choice(keys)
    return rng.randint(0, top), 2 * rng.randint(1, 10), 2 * rng.randint(1, 10)


def _sum_case(seed):
    rng = random.Random(seed)
    table = _table(rng)
    return table, [(rng.randint(-10**6, 10**6), _key(rng, table), _key(rng, table)) for _ in range(rng.randint(0, 8))]


@settings(max_examples=300)
@given(st.integers(0, 2**32).map(_sum_case))
def test_table_sum_matches_the_fraction_triple_sum(case):
    # levels 0 and 1 read back as ints and the others as Fractions, so the
    # oracle sees both kinds of entry; the pairs agree exactly, unreduced
    table, terms = case
    want = _ident_sum((c, table.get(*a), table.get(*b)) for c, a, b in terms)
    assert table_sum(terms, table) == want


def _get_case(seed):
    rng = random.Random(seed)
    table = _table(rng)
    return table, _key(rng, table, solved=False)


@settings(max_examples=300)
@given(st.integers(0, 2**32).map(_get_case))
def test_get_returns_the_values_and_types_of_the_fraction_table(case):
    table, (n, x, y) = case
    want = reference_get(table.filler, table.name, n, x, y)
    for _ in range(2):  # the first lookup may fill the entry, the second reads it back
        got = table.get(n, x, y)
        assert type(got) is type(want) and got == want
    assert table.entry((n, x, y)) == (got.numerator, got.denominator)


def test_a_missing_entry_raises_the_same_message():
    tiny, chained = ATable(2, 3, values={}, name="tiny"), _chain_tables()[0]
    for table, key in ((tiny, (2, 4, 6)), (chained, (5, 2, 2)), (chained, (3, 200, 2))):
        with pytest.raises(MissingEntryError) as want:
            reference_get(table.filler, table.name, *key)
        for read in (lambda: table.get(*key), lambda: table_sum([(1, (0, 2, 2), key)], table)):
            with pytest.raises(MissingEntryError) as got:
                read()
            assert str(got.value) == str(want.value)
    # the first term of the n = 2, p = 0 identity at (1, 1, 1) reads A_0(2, 2) A_2(4, 2)
    with pytest.raises(MissingEntryError, match=r"^'tiny: no entry for A_2\(4, 2\)'$"):
        ident_residual(tiny, 1, 1, 1, 2, 0)
