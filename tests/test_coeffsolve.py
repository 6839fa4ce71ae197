import itertools
import random
import sys
from fractions import Fraction
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import _pochhammer_doubled_at_five, a2_family, ref_ident_rows, ref_normalization, ref_rref

from rclab import coeffsolve, exactcore
from rclab.cli import _inconsistency
from rclab.coeffsolve import (
    ATable,
    LinSystem,
    MissingEntryError,
    a2_family_assoc,
    build_ident_system,
    chain_solve_many,
    degree_in_c,
    det2x2_direct,
    det2x2_lemma,
    extended,
    ident_row_points,
    induced_c_from_kappa,
    interpolant_degree,
    kappa_c_report,
    kappa_to_c,
    level_echelon,
    solve,
)
from rclab.exactcore import binom, eliminate, pochhammer
from rclab.starprod import ident_coefficients, ident_residual, table_sum


def test_atable_builtin_levels_and_missing():
    t = ATable(3, 4)
    assert t.get(0, 2, 8) == 1 and type(t.get(0, 2, 8)) is int
    assert t.get(1, 4, 6) == 24 and type(t.get(1, 4, 6)) is int
    with pytest.raises(MissingEntryError):
        t.get(2, 4, 6)
    t.set(2, 4, 6, F(7, 2))
    assert t.get(2, 4, 6) == F(7, 2)


def test_atable_set_rejects_the_built_in_levels():
    # levels 0 and 1 are built in: a set A_1(2, 2) = 1/2 read back as 1 from get (an int, the
    # numerator alone) but as (1, 2) from table_sum, so the two readers of one table disagreed
    t = ATable(1, 4)
    for n in (0, 1):
        with pytest.raises(ValueError, match="built in"):
            t.set(n, 2, 2, F(1, 2))
    # table_sum reads t, and get returns A = t (x)_n (y)_n
    assert table_sum([(1, (1, 2, 2), (0, 2, 2))], t) == (1, 1)
    assert t.get(1, 2, 2) == 4 == F(*table_sum([(1, (1, 2, 2), (0, 2, 2))], t)) * ref_normalization(1, 2, 2)
    assert t.values == {(1, 2, 2): (1, 1), (0, 2, 2): (1, 1)}


def test_atable_levels_zero_and_one_store_t_equal_to_one():
    for table in (ATable(1, 4), ATable.eholzer(3, 10), ATable.from_kappa(F(-7, 3), 3, 10)):
        for x, y in ((2, 2), (4, 10), (1, 7), (0, 6), (-3, 5)):
            assert (table.get(0, x, y), table.get(1, x, y)) == (1, x * y)
            assert [type(table.get(n, x, y)) for n in (0, 1)] == [int, int]
            assert table.values[(0, x, y)] == table.values[(1, x, y)] == (1, 1)


@pytest.mark.parametrize("seed", range(4))
def test_atable_set_then_get_returns_the_value_and_type(seed):
    # A is stored as t = A / ((x)_n (y)_n) and read back as t (x)_n (y)_n, a Fraction at every
    # level >= 2, integral or not; the stored pair is t in lowest terms
    rng = random.Random(seed)
    t = ATable(5, 40)
    for _ in range(200):
        n, x, y = rng.randint(2, 5), 2 * rng.randint(1, 20), 2 * rng.randint(1, 20)
        v = F(rng.randint(-10**6, 10**6), rng.choice((1, 1, 2, 3, 7, 10**9 + 7)))
        t.set(n, x, y, v)
        got = t.get(n, x, y)
        assert type(got) is F and got == v
        w = v / ref_normalization(n, x, y)
        assert t.values[(n, x, y)] == (w.numerator, w.denominator)
    t.set(3, 4, 6, 12)  # an int is taken as its Fraction
    assert type(t.get(3, 4, 6)) is F and t.get(3, 4, 6) == 12


def test_atable_where_the_normalization_vanishes():
    # (x)_n (y)_n = 0 for a weight in 1-n..0: t is undetermined there and A = 0 for every
    # family, so get returns 0 whatever t the filler gives, and set, which divides by it,
    # raises ZeroDivisionError for any A, zero or not, and stores nothing
    t = ATable(3, 10, filler=lambda n, x, y: F(5, 3))
    for n, x, y in ((2, 0, 4), (2, -1, 6), (3, 4, -2), (2, 0, 0)):
        assert ref_normalization(n, x, y) == 0
        assert t.get(n, x, y) == 0 and type(t.get(n, x, y)) is F
        for v in (F(1, 2), 0):
            with pytest.raises(ZeroDivisionError):
                t.set(n, x, y, v)
        assert t.values[(n, x, y)] == (5, 3)
        blank = ATable(3, 10)
        with pytest.raises(ZeroDivisionError):
            blank.set(n, x, y, 1)
        assert not blank.values
    # at level 1, A_1 = x y is 0 at a zero weight as built in
    assert t.get(1, 0, 4) == 0 and type(t.get(1, 0, 4)) is int


def test_atable_from_kappa_matches_direct_formula():
    t = ATable.from_kappa(F(1, 2), 4, 20)
    for n in range(5):
        for x, y in ((2, 2), (4, 10), (8, 6)):
            assert t.get(n, x, y) == pochhammer(x, n) * pochhammer(y, n)


def test_a2_family_values():
    fam0 = a2_family(0)
    assert fam0(2, 2) == 18
    for c in (F(0), F(-5, 4), F(3, 7)):
        fam = a2_family(c)
        for x, y in ((2, 6), (4, 10)):
            assert fam(x, y) == fam(y, x)


def test_a2_family_assoc_is_doubled_family():
    # the value is one Fraction over (x+y+1) times the denominator of c, so the c values include
    # ones whose denominator or numerator shares a factor with x+y+1 (7/3 at (2, 4), 5/3 and -9/7
    # at (3, 5)), which the Fraction must reduce; plain ints, negative c and odd weights too
    for c in (F(0), F(-5, 2), F(4), F(7, 3), F(5, 3), F(-9, 7), F(-14, 9), 0, 3, -6):
        fa = a2_family_assoc(c)
        fq = a2_family(F(c) / 2)
        for x, y in ((2, 2), (4, 6), (8, 2), (2, 4), (1, 1), (3, 5), (1, 6), (5, 2), (7, 7)):
            got = fa(x, y)
            assert type(got) is Fraction and got == 2 * fq(x, y)


def test_a2_families_against_induced_values():
    # the associativity-normalized family matches the induced coefficients at
    # c = 4k^2-8k+3; the quoted family (half the particular part) never does
    induced = ATable.from_kappa(F(1, 2), 2, 12)
    assoc = a2_family_assoc(0)
    quoted = a2_family(kappa_to_c(F(1, 2)))
    hits_assoc = all(assoc(2 * a, 2 * b) == induced.get(2, 2 * a, 2 * b) for a in range(1, 5) for b in range(1, 5))
    hits_quoted = any(quoted(2 * a, 2 * b) == induced.get(2, 2 * a, 2 * b) for a in range(1, 5) for b in range(1, 5))
    assert hits_assoc
    assert not hits_quoted


def test_solve_basics():
    sys = LinSystem([0, 1])
    sys.add_row({0: F(1)}, 3)
    sys.add_row({1: F(1)}, -2)
    res = solve(sys)
    assert res.consistent and res.nullity == 0 and res.solution == [F(3), F(-2)]

    sys = LinSystem([0, 1])
    sys.add_row({0: F(1), 1: F(1)}, 0)
    res = solve(sys)
    assert res.nullity == 1
    assert len(res.null_basis) == 1

    sys = LinSystem([0])
    sys.add_row({0: F(1)}, 1)
    sys.add_row({0: F(1)}, 2)
    res = solve(sys)
    assert not res.consistent and res.certificate_row == 1


def test_certificate_is_the_first_contradictory_row_in_row_order():
    # a wrong A_2(18, 8) is read only by the last rows, (k, l, m) = (4, 4, 4), of the level-3
    # system on grid 4; eliminated last-first, another row is the first to contradict
    table = ATable.eholzer(2, 36)
    table.set(2, 18, 8, table.get(2, 18, 8) + 1)
    system = build_ident_system(3, 4, table)
    rows = [(coeffs, (rhs,)) for coeffs, rhs in system.rows]
    want = eliminate(iter(rows), 1).certificates[0]
    last_first = eliminate(reversed(rows), 1).certificates[0]
    assert want is not None and want not in (last_first, len(rows) - 1 - last_first)
    res = solve(system)
    assert not res.consistent and res.certificate_row == want
    k, l, m, p = list(ident_row_points(3, 4))[want]
    assert (k, l, m) == (4, 4, 4)
    assert _inconsistency(3, 4, res) == {
        "witness": {"level": 3, "certificate_row": want, "k": k, "l": l, "m": m, "p": p}
    }


def test_add_row_keeps_ints(monkeypatch):
    sys = LinSystem([0, 1])
    sys.add_row({0: 2, 1: 3}, 3)
    sys.add_row({1: F(1, 2)}, "5/3")
    assert [type(rhs) for _, rhs in sys.rows] == [int, F]
    # only the row that holds a Fraction is scaled; the int row is used as given
    scaled = []
    scaled_row = exactcore._scaled_row
    monkeypatch.setattr(exactcore, "_scaled_row", lambda c, r: scaled.append(dict(c)) or scaled_row(c, r))
    assert solve(sys).consistent and scaled == [{1: F(1, 2)}]


def _entry(rng):
    return F(rng.randint(-4, 4), rng.choice((1, 3))) if rng.random() < 0.5 else F(0)


def _column(rng, rows, keys):
    if rng.random() < 0.5:
        x = {k: _entry(rng) for k in keys}
        return [sum((v * x[k] for k, v in row.items()), F(0)) for row in rows]
    return [_entry(rng) for _ in rows]


def _dense_case(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
    a = [[_entry(rng) for _ in range(ncols)] for _ in range(nrows)]
    rows = [dict(enumerate(row)) for row in a]
    return a, [_column(rng, rows, range(ncols)) for _ in range(rng.randint(1, 4))]


@settings(max_examples=150)
@given(st.integers(0, 2**32).map(_dense_case))
def test_solve_matches_sympy_rank_and_nullspace(case):
    sympy = pytest.importorskip("sympy")
    a, (b, *_) = case
    ncols = len(a[0])
    sys = LinSystem(list(range(ncols)))
    for row, rhs in zip(a, b):
        sys.add_row(dict(enumerate(row)), rhs)
    res = solve(sys)
    m = sympy.Matrix(a)
    rank = m.rank()
    assert res.rank == rank and res.nullity == ncols - rank
    aug_rank = sympy.Matrix.hstack(m, sympy.Matrix(b)).rank()
    assert res.consistent == (aug_rank == rank)
    if res.consistent:
        assert list(m * sympy.Matrix(res.solution)) == b
        assert len(res.null_basis) == len(m.nullspace())
        if res.null_basis:
            kernel = sympy.Matrix.hstack(*map(sympy.Matrix, res.null_basis))
            assert (m * kernel).is_zero_matrix and kernel.rank() == res.nullity
    else:
        # the certificate is the first row that makes the system inconsistent
        k = res.certificate_row
        head = sympy.Matrix(a[: k + 1])
        assert sympy.Matrix.hstack(head, sympy.Matrix(b[: k + 1])).rank() > head.rank()
        if k:
            head = sympy.Matrix(a[:k])
            assert sympy.Matrix.hstack(head, sympy.Matrix(b[:k])).rank() == head.rank()


@settings(max_examples=150)
@given(st.integers(0, 2**32).map(_dense_case))
def test_multi_column_elimination_matches_per_column_solve(system):
    a, columns = system
    ncols = len(a[0])
    rows = [
        ({j: v for j, v in enumerate(row) if v != 0}, tuple(col[i] for col in columns))
        for i, row in enumerate(a)
    ]
    ech = eliminate(iter(rows), len(columns))
    for j, col in enumerate(columns):
        sys = LinSystem(list(range(ncols)))
        for row, rhs in zip(a, col):
            sys.add_row(dict(enumerate(row)), rhs)
        want = solve(sys)
        got = ech.result(range(ncols), j)
        assert (got.rank, got.nullity, got.consistent) == (want.rank, want.nullity, want.consistent)
        assert got.solution == want.solution
        assert got.certificate_row == want.certificate_row
        assert got.null_basis == want.null_basis


def _same_echelon(got, rows, width):
    """got is the echelon of rows by the Gauss-Jordan reference, with Fraction entries."""
    assert (got.pivots, got.certificates) == ref_rref(rows, width)
    assert all(
        type(v) is F for row, r in got.pivots.values() for v in [*row.values(), *r]
    )


def _keyed_case(seed):
    """(rows, width): sparse rows over tuple keys, up to about 12x12, 1-4 columns.

    Half the cases are chain-shaped: each row touches keys i and i + 1, in a
    drawn order, plus up to four repeated supports; these made the old
    eliminator fill in.  Each column lies in the column space or not.  The
    rows are all Fractions, all ints or a drawn mix, in equal shares; an int
    row is its rational row times the lcm of its denominators and a drawn
    factor, so it need not be primitive and may change sign.
    """
    rng = random.Random(seed)
    keys = sorted(rng.sample([(i, j) for i in range(4) for j in range(6)], rng.randint(2, 12)))
    if rng.random() < 0.5:
        chain = [keys[i : i + 2] for i in range(len(keys) - 1)]
        supports = rng.sample(chain, len(chain)) + rng.choices(chain, k=rng.randint(0, 4))
    else:
        supports = [rng.sample(keys, rng.randint(1, min(4, len(keys)))) for _ in range(rng.randint(1, 12))]
    a = [{k: F(rng.choice((-1, 1)) * rng.randint(1, 6), rng.choice((1, 2, 3, 5, 7))) for k in support}
         for support in supports]
    columns = [_column(rng, a, keys) for _ in range(rng.randint(1, 4))]
    int_share = rng.choice((0, 1, rng.random()))
    rows = []
    for i, coeffs in enumerate(a):
        rhs = [col[i] for col in columns]
        if rng.random() < int_share:
            d = lcm(*(v.denominator for v in [*coeffs.values(), *rhs])) * rng.choice((1, 2, -3, 6))
            coeffs, rhs = {c: int(v * d) for c, v in coeffs.items()}, [int(v * d) for v in rhs]
        rows.append((coeffs, rhs))
    return rows, len(columns)


@settings(max_examples=400)
@given(st.integers(0, 2**32).map(_keyed_case))
def test_eliminate_takes_int_rows_as_given(system):
    rows, width = system
    snapshot = [(dict(coeffs), list(rhs)) for coeffs, rhs in rows]
    types = [[type(v) for v in [*coeffs.values(), *rhs]] for coeffs, rhs in rows]
    got = eliminate(iter(rows), width)
    # the int rows are used as they are, but never modified
    assert rows == snapshot
    assert [[type(v) for v in [*coeffs.values(), *rhs]] for coeffs, rhs in rows] == types
    _same_echelon(got, rows, width)
    pivots, _ = exactcore._integer_rref(iter(rows), width)
    for col, (row, r) in pivots.items():
        assert all(type(v) is int for v in [*row.values(), *r])
        assert gcd(*row.values(), *r) == 1
        assert min(row) == col and not (set(row) - {col}) & set(pivots)


def _settled_case(seed):
    """(rows, width, late): a full-rank block, then `late` rows that are exact combinations of it.

    The hidden reduced rows E_p are e_p plus a free part on the non-pivot keys above p: none,
    lam_p * u for a shared vector u, or one of their own.  The block mixes them by a unit
    triangular matrix in a drawn order, so it has the pivots of E.  Each later row combines
    rows of E with no free part and rows lam_p * u with weights summing to zero against lam,
    so it lies on pivot columns only and leaves nothing in a free column; some of them get a
    right-hand side moved off by a nonzero amount in a drawn column.  A last row on pivot
    columns only, one of them holding a free part, may follow: it leaves a free column, so it
    is cleared.  Rows are Fractions or ints in drawn shares.
    """
    rng = random.Random(seed)
    keys = sorted(rng.sample([(i, j) for i in range(4) for j in range(5)], rng.randint(2, 10)))
    pivots = sorted(rng.sample(keys, rng.randint(1, len(keys))))
    width = rng.randint(1, 4)
    free = [k for k in keys if k not in pivots]
    shared = [p for p in pivots if free and p < free[-1] and rng.random() < 0.6]
    u = {f: F(rng.choice((-1, 1)) * rng.randint(1, 4), 3) for f in free if shared and f > max(shared)}
    lam, e = {}, {}
    for p in pivots:
        if p in shared:
            lam[p] = F(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 3))
            part = {f: lam[p] * v for f, v in u.items()}
        elif rng.random() < 0.5:
            part = {f: _entry(rng) for f in free if f > p}
        else:
            part = {}
        e[p] = ({p: F(1), **{f: v for f, v in part.items() if v}}, [_entry(rng) for _ in range(width)])

    def combine(weights):
        row, rhs = {}, [F(0)] * width
        for p, c in weights.items():
            for k, v in e[p][0].items():
                row[k] = row.get(k, F(0)) + c * v
            rhs = [r + c * s for r, s in zip(rhs, e[p][1])]
        return {k: v for k, v in row.items() if v}, rhs

    order = rng.sample(pivots, len(pivots))
    block = [combine({p: F(1), **{q: _entry(rng) for q in order[i + 1:] if rng.random() < 0.4}})
             for i, p in enumerate(order)]
    plain = [p for p in pivots if not e[p][0].keys() - {p}]
    late = []
    for _ in range(rng.randint(1, 8)):
        weights = {p: _entry(rng) for p in plain if rng.random() < 0.6}
        if len(shared) > 1 and rng.random() < 0.7:
            group = rng.sample(shared, rng.randint(2, len(shared)))
            weights.update({p: _entry(rng) for p in group[1:]})
            weights[group[0]] = -sum(weights[p] * lam[p] for p in group[1:]) / lam[group[0]]
        row, rhs = combine(weights)
        if rng.random() < 0.3:
            j = rng.randrange(width)
            rhs[j] += rng.choice((-1, 1)) * F(rng.randint(1, 5), rng.randint(1, 3))
        late.append((row, rhs))
    holding = [p for p in pivots if p not in plain]
    extra = []
    if holding and rng.random() < 0.3:
        extra.append(({p: F(rng.randint(1, 5)) for p in [rng.choice(holding), *rng.sample(plain, len(plain) // 2)]},
                      [_entry(rng) for _ in range(width)]))
    int_share = rng.choice((0, 1, rng.random()))
    rows = []
    for coeffs, rhs in block + late + extra:
        if rng.random() < int_share:
            d = lcm(*(v.denominator for v in [*coeffs.values(), *rhs])) * rng.choice((1, 2, -3, 6))
            coeffs, rhs = {c: int(v * d) for c, v in coeffs.items()}, [int(v * d) for v in rhs]
        rows.append((coeffs, rhs))
    return rows, width, len(late)


@settings(max_examples=300)
@given(st.integers(0, 2**32).map(_settled_case))
def test_rows_on_pivot_columns_are_checked_by_evaluation(case):
    rows, width, late = case
    snapshot = [(dict(coeffs), list(rhs)) for coeffs, rhs in rows]
    types = [[type(v) for v in [*coeffs.values(), *rhs]] for coeffs, rhs in rows]
    settled = exactcore._settled
    dropped = 0

    def counted(row, rhs, pivots):
        nonlocal dropped
        left = settled(row, rhs, pivots)
        dropped += left is not None
        return left

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactcore, "_settled", counted)
        got = eliminate(iter(rows), width)
    # every later row is settled by evaluation, not cleared
    assert dropped >= late
    assert rows == snapshot
    assert [[type(v) for v in [*coeffs.values(), *rhs]] for coeffs, rhs in rows] == types
    _same_echelon(got, rows, width)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_grid_six_systems_eliminate_as_the_reference(n):
    sys = build_ident_system(n, 6, ATable.eholzer(n - 1, 40))
    # add_row keeps the int coefficients
    assert all(type(v) is int for coeffs, _ in sys.rows for v in coeffs.values())
    rows = [(coeffs, (rhs,)) for coeffs, rhs in sys.rows]
    _same_echelon(eliminate(iter(rows), 1), rows, 1)


def test_chain_levels_eliminate_as_the_reference(monkeypatch):
    checked = []

    def both(rows, width, scale):
        # the rows are in the t-unknowns, and scale(c) takes column c to the A-values: the
        # echelon is the reference's of the rows with each column c divided by scale(c)
        rows = list(rows)
        _same_echelon(eliminate(iter(rows), width), rows, width)
        got = eliminate(iter(rows), width, scale)
        _same_echelon(got, [({c: F(v, scale(c)) for c, v in coeffs.items()}, rhs) for coeffs, rhs in rows], width)
        checked.append(width)
        return got

    monkeypatch.setattr(coeffsolve, "eliminate", both)
    chain_solve_many([F(0), F(-5, 4), F(1, 2)], 4)
    assert checked == [3, 3]


def _reference_chain(cs, upto_n, final_grid=4):
    """Levels 3..upto_n from A_2(x, y) = x(x+1) y(y+1) + c x y / (x+y+1) by the references, for each
    c in cs: level j from its identity rows on grid final_grid + (upto_n - j), eliminated by
    Gauss-Jordan with one right-hand side per c, where it must be unique.  Returns one dict
    (n, x, y) -> A_n(x, y), n >= 3, per c."""
    solved = [{} for _ in cs]

    def family(c, values):
        def A(n, x, y):
            return [1, x * y, x * (x + 1) * y * (y + 1) + c * F(x * y, x + y + 1)][n] if n < 3 else values[n, x, y]
        return A

    As = [family(c, values) for c, values in zip(cs, solved)]
    for j in range(3, upto_n + 1):
        rows = ref_ident_rows(j, final_grid + (upto_n - j), As)
        pivots, certificates = ref_rref(rows, len(cs))
        assert set(pivots) == set().union(*(coeffs for coeffs, _ in rows)) and certificates == [None] * len(cs)
        for i, values in enumerate(solved):
            values.update({(j, *pair): rhs[i] for pair, (_, rhs) in pivots.items()})
    return solved


@pytest.mark.parametrize("n", [3, 4, 5])
def test_several_c_chain_matches_separate_chains(n):
    cs = [F(0), F(-5, 4), F(1, 2), F(3), F(7, 5)]
    tables = chain_solve_many(cs, n)
    for c, got, solved in zip(cs, tables, _reference_chain(cs, n)):
        assert solved and {key: got.get(*key) for key in solved} == solved
        assert {key for key in got.values if key[0] >= 3} == set(solved)
        assert (got.max_n, got.grid_bound, got.name) == (n, 4 + n - 2, f"chain(c={c})")
        # table_sum reads t of every stored entry, and get returns A = t (x)_n (y)_n
        for key in list(got.values):
            assert F(*table_sum([(1, key, (0, 2, 2))], got)) * ref_normalization(*key) == got.get(*key)


def test_level_one_system_kernel_is_product_direction():
    known = ATable.eholzer(0, 30)
    sys1 = build_ident_system(1, 4, known)
    res = solve(sys1)
    assert res.consistent and res.nullity == 1
    assert all(v == 0 for v in res.solution)  # homogeneous at level 1
    vec = res.null_basis[0]
    i22 = sys1.variables.index((2, 2))
    scale = F(4) / vec[i22]
    assert all(vec[i] * scale == F(p[0] * p[1]) for i, p in enumerate(sys1.variables))


def test_level_two_system_kernel_and_affine_set():
    known = ATable.eholzer(1, 30)
    sys2 = build_ident_system(2, 4, known)
    res = solve(sys2)
    assert res.consistent and res.nullity == 1
    vec = res.null_basis[0]
    i22 = sys2.variables.index((2, 2))
    scale = F(4, 5) / vec[i22]
    assert all(
        vec[i] * scale == F(p[0] * p[1], p[0] + p[1] + 1) for i, p in enumerate(sys2.variables)
    )
    # the affine solution set is exactly the associativity-normalized family
    for c in (F(0), F(-5, 2), F(9, 4)):
        fam = a2_family_assoc(c)
        lam = (fam(2, 2) - res.solution[i22]) / vec[i22]
        assert all(
            res.solution[j] + lam * vec[j] == fam(p[0], p[1])
            for j, p in enumerate(sys2.variables)
        )


@pytest.mark.parametrize("n", [3, 4, 5])
def test_higher_levels_unique_on_grid_six(n):
    known = ATable.eholzer(n - 1, 40)
    res = solve(build_ident_system(n, 6, known))
    assert res.consistent and res.nullity == 0


def test_solved_table_satisfies_identities():
    known = ATable.eholzer(2, 40)
    pairs, ech = level_echelon(3, 4, [known])
    res = ech.result(pairs)
    assert res.nullity == 0
    table = extended(known, 3, pairs, res)
    for k in range(1, 4):
        for l in range(1, 4):
            for m in range(1, 4):
                for p in range(4):
                    assert ident_residual(table, k, l, m, 3, p) == 0
    assert all(table.get(3, 2 * a, 2 * b) == table.get(3, 2 * b, 2 * a) for a in range(1, 5) for b in range(1, 5))


def test_chain_solve_matches_induced_chains():
    # c = 0 is the constant-coefficient chain; c = 3 the kappa = 2 chain
    (t0,) = chain_solve_many([F(0)], 4)
    eh = ATable.eholzer(4, 40)
    assert all(t0.get(n, x, y) == eh.get(n, x, y) for n in (3, 4) for x in (2, 6) for y in (4, 8))
    (t3,) = chain_solve_many([F(3)], 3)
    ind = ATable.from_kappa(2, 3, 40)
    assert all(t3.get(3, x, y) == ind.get(3, x, y) for x in (2, 4, 8) for y in (2, 6))


def test_chain_solved_table_is_associative():
    # closing the loop: a table solved from the identity systems at a c value
    # no closed form covers must itself define an associative product, both in
    # the free expansion and on concrete q-series
    from rclab.forms import GradedForm, eisenstein_form
    from rclab.starprod import StarCoefficients, assoc_residual, free_assoc_residual

    c = F(7, 5)
    (table,) = chain_solve_many([c], 3)
    coeffs = StarCoefficients(table.get)
    assert free_assoc_residual((2, 2, 2), coeffs, 3) == {}
    prec = 12
    e4 = GradedForm.from_form(eisenstein_form(4, prec))
    e6 = GradedForm.from_form(eisenstein_form(6, prec))
    assert assoc_residual(e4, e4, e6, coeffs, 3).is_zero()


def test_grid_too_small_raises():
    known = ATable(2, 3, name="tiny")
    with pytest.raises(MissingEntryError):
        build_ident_system(3, 4, known)


def test_interpolant_degree():
    assert interpolant_degree([0, 1, 2, 3], [F(3), F(6), F(11), F(18)]) == 2  # 3 + 2c + c^2
    assert interpolant_degree([F(1, 2)], [F(0)]) == 0
    # d + 1 samples of a degree d + 1 curve alias to a lower degree; d + 2 show it
    cubic = [F(x**3 - x) for x in range(5)]
    assert interpolant_degree(range(3), cubic[:3]) == 2
    assert interpolant_degree(range(4), cubic[:4]) == 3
    with pytest.raises(ValueError):
        interpolant_degree([0, 1, 2, 0], [F(0), F(1), F(3), F(5)])
    with pytest.raises(ValueError):
        interpolant_degree([], [])
    # two points show no degree above 1, and one ordinate per abscissa is needed
    for ys in ([F(0), F(1), F(4)], [F(0)]):
        with pytest.raises(ValueError):
            interpolant_degree([0, 1], ys)


def _rational(rng):
    return F(rng.randint(-12, 12), rng.randint(1, 6))


def _samples_case(seed):
    """(xs, ys): 1-7 distinct rational abscissae; values random, all zero, or on a low-degree curve."""
    rng = random.Random(seed)
    xs = list(dict.fromkeys(_rational(rng) for _ in range(rng.randint(1, 7))))
    curve = [_rational(rng) for _ in range(rng.randint(1, len(xs)))]
    on_curve = [sum((c * x**d for d, c in enumerate(curve)), F(0)) for x in xs]
    return xs, rng.choice(([_rational(rng) for _ in xs], [F(0)] * len(xs), on_curve))


@settings(max_examples=300)
@given(st.integers(0, 2**32).map(_samples_case))
def test_interpolant_degree_matches_reference_interpolation(samples):
    xs, ys = samples
    # at distinct abscissae the Vandermonde rows have full rank: their one solution is the
    # interpolant's coefficients, the degree the last nonzero one
    pivots, certificates = ref_rref([({d: x**d for d in range(len(xs))}, (y,)) for x, y in zip(xs, ys)], 1)
    assert len(pivots) == len(xs) and certificates == [None]
    assert interpolant_degree(xs, ys) == max((d for d, (_, (a,)) in pivots.items() if a), default=0)


@pytest.mark.parametrize("n,deg", [(2, 1), (3, 1), (4, 2)])
def test_degree_in_c(n, deg):
    assert degree_in_c(n, (4, 4), list(range(n + 1))) == deg
    assert degree_in_c(n, (4, 4), list(range(n + 2))) == deg


def test_degree_in_c_needs_enough_samples():
    with pytest.raises(ValueError):
        degree_in_c(3, (4, 4), [0, 1])


def test_det2x2_closed_form():
    assert det2x2_lemma(3, 1, 1, 1) == det2x2_direct(3, 1, 1, 1)
    for n in range(3, 7):
        for k in (1, 2, 5):
            for l in (1, 3, 5):
                for m in (1, 4, 5):
                    v = det2x2_lemma(n, k, l, m)
                    assert v == det2x2_direct(n, k, l, m)
                    assert v < 0
    with pytest.raises(ValueError):
        det2x2_lemma(2, 1, 1, 1)


def test_det2x2_direct_is_the_solver_rows_at_p1_and_p2():
    # a_p and b_p are the r = 0 and s = 0 coefficients of the index-p identity on the A-values:
    # the t-value coefficients L_0 and R_0 over the normalizations of their level-n unknowns,
    # (x+y)_n (z)_n and (x)_n (y+z)_n
    for n, k, l, m in itertools.product(range(3, 9), *[range(1, 5)] * 3):
        x, y, z = 2 * k, 2 * l, 2 * m
        (l1, r1), (l2, r2) = (ident_coefficients(n, p, x, y, z) for p in (1, 2))
        a1, a2 = (F(left[0], ref_normalization(n, x + y, z)) for left in (l1, l2))
        b1, b2 = (F(right[0], ref_normalization(n, x, y + z)) for right in (r1, r2))
        assert det2x2_direct(n, k, l, m) == a1 * b2 - a2 * b1, (n, k, l, m)


# det2x2_direct and det2x2_lemma as they were before they summed in ints,
# kept as oracles; the lemma's checks are the fine suite's


def fraction_det2x2_direct(n: int, k: int, l: int, m: int):
    """Direct determinant of the p = 1, 2 unknown-coefficient matrix."""
    x, y, z = 2 * k, 2 * l, 2 * m
    a1 = binom(n, 1) / (pochhammer(x + y, n - 1) * pochhammer(z, 1))
    b1 = binom(n, 1) / (pochhammer(x, n - 1) * pochhammer(y + z, 1))
    a2 = binom(n, 2) / (pochhammer(x + y, n - 2) * pochhammer(z, 2))
    b2 = binom(n, 2) / (pochhammer(x, n - 2) * pochhammer(y + z, 2))
    return a1 * b2 - a2 * b1


def fraction_det2x2_lemma(n: int, k: int, l: int, m: int):
    if n < 3:
        raise ValueError("the elimination step needs n >= 3")
    if min(k, l, m) < 1:
        raise ValueError("k, l, m must be >= 1")
    x, y, z = 2 * k, 2 * l, 2 * m
    return (
        binom(n, 1)
        * binom(n, 2)
        / (pochhammer(x + y, n - 2) * z * pochhammer(x, n - 2) * (y + z))
        * Fraction(-y * y - y * (x + z + n - 1))
        / ((x + y + n - 2) * (y + z + 1) * (z + 1) * (x + n - 2))
    )


@pytest.mark.parametrize("planted", [False, True])
def test_det2x2_matches_the_fraction_oracle(monkeypatch, planted):
    # every n in 3..10 and k, l, m in 1..7; planted, the closed form and the direct determinant
    # disagree at n = 6 and 7, the two n whose determinants read a length-5 pochhammer (as n - 1 or n - 2)
    if planted:
        for module in (coeffsolve, sys.modules[__name__]):
            monkeypatch.setattr(module, "pochhammer", _pochhammer_doubled_at_five)
    disagreements = 0
    for point in itertools.product(range(3, 11), *[range(1, 8)] * 3):
        lemma, direct = det2x2_lemma(*point), det2x2_direct(*point)
        assert type(lemma) is type(direct) is Fraction, point
        assert (lemma, direct) == (fraction_det2x2_lemma(*point), fraction_det2x2_direct(*point)), point
        assert lemma < 0, point
        disagreements += lemma != direct
    assert disagreements == (2 * 7**3 if planted else 0)


def test_kappa_to_c_values():
    assert kappa_to_c(1) == 0
    assert kappa_to_c(3) == 0
    assert kappa_to_c(F(1, 2)) == F(-5, 4)


def test_kappa_c_report_fits_symmetric_quadratic():
    for kappa in (F(1, 2), F(3, 2), 1, 2, F(5, 2)):
        rep = kappa_c_report(kappa, 4)
        assert rep["fit_consistent"]
        assert rep["c_fit"] == induced_c_from_kappa(kappa)
        assert rep["fit_matches_formula"]
        # the quoted constant never reproduces the induced coefficients
        assert not rep["quoted_family_matches_induced"]
    # the induced coefficients are symmetric about kappa = 1, the quoted
    # constant is not: the two cannot agree for both members of a mirror pair
    assert induced_c_from_kappa(F(1, 2)) == induced_c_from_kappa(F(3, 2))
    assert kappa_to_c(F(1, 2)) != kappa_to_c(F(3, 2))
