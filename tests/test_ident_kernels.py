"""The integer identity kernels against the identity reference.

The library stores and solves for t_n(x, y) = A_n(x, y) / ((x)_n (y)_n), in
which every identity coefficient is an integer; the references of
tests/oracles.py stay in the A-values.  ident_residual(s), table_sum, the
level rows of coeffsolve and ATable.get are checked against the definition
of the associativity identities there (ref_ident_residual, ref_ident_rows),
which reads the A-values through a plain callable, and the level rows'
echelon, solutions and null bases, which come out in the A-values, against
the Gauss-Jordan reference (ref_rref) on the reference rows.
"""

import functools
import random
from fractions import Fraction
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import a2_family, ref_ident_residual, ref_ident_rows, ref_normalization, ref_rref

from rclab import coeffsolve
from rclab.coeffsolve import ATable, MissingEntryError, build_ident_system, chain_solve_many, level_echelon, solve
from rclab.exactcore import Rat
from rclab.starprod import ident_residual, ident_residuals, table_sum


@functools.cache
def _chain_tables() -> tuple[ATable, ...]:
    """Levels 3 and 4 solved from the level-2 family, at three c values."""
    return tuple(chain_solve_many([F(0), F(-5, 4), F(7, 5)], 4))


def _planted(c: Rat) -> ATable:
    """A wrong level-2 family (the quoted one, half the particular part) under
    the constant-coefficient levels, so its residuals do not vanish."""
    quoted = a2_family(c)

    def fill(n: int, x: int, y: int) -> Rat:
        return quoted(x, y) / ref_normalization(2, x, y) if n == 2 else 1

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
                    assert type(got) is Fraction and got == ref_ident_residual(table.get, k, l, m, n, p)
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
    assert got == [ref_ident_residual(t.get, *args) for t in tables]
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
    reference = ref_ident_rows(n, grid, [t.get for t in tables])
    assert keys == sorted(set().union(*(coeffs for coeffs, _ in reference)))
    pivots, certificates = ref_rref(reference, len(tables))
    assert (got.pivots, got.certificates) == (pivots, certificates)
    # the solutions and null bases, in the A-values, are the reference's, and so are solve's
    for j, table in enumerate(tables):
        want = _reference_result(pivots, certificates[j], keys, j)
        assert _result(got.result(keys, j)) == want
        if n:  # systems are built from level 1 on
            system = build_ident_system(n, grid, table)
            assert system.variables == keys and _result(solve(system)) == want
    # each integer row is in the t-unknowns: its reference row, with the coefficient of each
    # level-n pair times that pair's (X)_n (Z)_n, times one positive scale
    rows = list(coeffsolve._ident_rows(n, grid, tables, set()))
    assert len(rows) == len(reference)
    for (coeffs, rhs), (ref_coeffs, ref_rhs) in zip(rows, reference):
        assert all(type(v) is int for v in coeffs.values()) and coeffs.keys() == ref_coeffs.keys()
        assert all(type(v) is int for v in rhs) and all(not v for v, w in zip(rhs, ref_rhs) if not w)
        scales = {v / (ref_coeffs[key] * ref_normalization(n, *key)) for key, v in coeffs.items()}
        scales |= {v / w for v, w in zip(rhs, ref_rhs) if w}
        assert len(scales) <= 1 and all(scale > 0 for scale in scales)


def _result(res):
    """The comparable fields of a SolveResult."""
    return res.consistent, res.rank, res.nullity, res.solution, res.null_basis


def _reference_result(pivots, certificate, keys, j):
    """The solution of right-hand side j over keys read from the reference echelon: the free
    entries 0, and one null vector per free key, 1 there, 0 at the other free keys."""
    rank, nullity = len(pivots), len(keys) - len(pivots)
    if certificate is not None:
        return False, rank, nullity, None, []
    solution = [pivots[key][1][j] if key in pivots else 0 for key in keys]
    null_basis = [[1 if key == free else 0 if key not in pivots else -pivots[key][0].get(free, 0) for key in keys]
                  for free in keys if free not in pivots]
    return True, rank, nullity, solution, null_basis


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
    # table_sum sums the stored t-values, t = A / ((x)_n (y)_n) with A read by get; levels 0
    # and 1 read back as ints and the others as Fractions, so the sum meets both kinds of entry
    table, terms = case
    num, den = table_sum(terms, table)

    def t(key):
        return table.get(*key) / F(ref_normalization(*key))

    assert den > 0 and F(num, den) == sum((c * t(a) * t(b) for c, a, b in terms), F(0))


def _get_case(seed):
    rng = random.Random(seed)
    table = _table(rng)
    return table, _key(rng, table, solved=False)


@settings(max_examples=300)
@given(st.integers(0, 2**32).map(_get_case))
def test_get_returns_the_values_and_types_of_the_fraction_table(case):
    table, (n, x, y) = case
    # levels 0 and 1 are the ints 1 and x y, every other level the filler's t-value times
    # (x)_n (y)_n as a Fraction; the store holds t in lowest terms, 1 at levels 0 and 1
    want = 1 if n == 0 else x * y if n == 1 else F(table.filler(n, x, y)) * ref_normalization(n, x, y)
    for _ in range(2):  # the first lookup may fill the entry, the second reads it back
        got = table.get(n, x, y)
        assert type(got) is type(want) and got == want
    t = F(got) / ref_normalization(n, x, y)
    assert table.entry((n, x, y)) == (t.numerator, t.denominator)


def test_a_missing_entry_raises_the_same_message():
    tiny, chained = ATable(2, 3, name="tiny"), _chain_tables()[0]
    for table, key in ((tiny, (2, 4, 6)), (chained, (5, 2, 2)), (chained, (3, 200, 2))):
        want = "{}: no entry for A_{}({}, {})".format(table.name, *key)
        for read in (lambda: table.get(*key), lambda: table_sum([(1, (0, 2, 2), key)], table)):
            with pytest.raises(MissingEntryError) as got:
                read()
            assert got.value.args == (want,)
    # the first term of the n = 2, p = 0 identity at (1, 1, 1) reads A_0(2, 2) A_2(4, 2)
    with pytest.raises(MissingEntryError, match=r"^'tiny: no entry for A_2\(4, 2\)'$"):
        ident_residual(tiny, 1, 1, 1, 2, 0)
