"""Deterministic work counts: each suite builds its identities and chains once.

The chain and coefficient functions are wrapped at every binding and counted
while one suite runs.  Call counts do not depend on the host, so a suite that
starts recomputing shared objects again fails here, not only in a timing.
"""

import io
import random
import sys
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from oracles import _patch_every_binding

from rclab import coeffsolve, exactcore, forms, nearlyholo, starprod, uniq
from rclab.cli import main
from rclab.coeffsolve import ATable, build_ident_system, solve
from rclab.exactcore import MPoly, QSeries
from rclab.forms import GradedForm, ModularForm

# the rclab modules that bind each counted function, each binding a call site: the package
# re-exported every one of them, which was one binding more of each
BINDINGS = {"eliminate": 3, "shimura_X": 1, "rc_bracket": 3, "zagier_sequence": 1, "ident_numerators": 2}


@pytest.mark.parametrize(
    "suite,function,calls",
    [
        # one set of numerators per (n, p, k, l, m), shared by the four kappa tables
        ("ident", starprod.ident_numerators, 1344),
        # one chain per form and phi sign, shared by the pairs: 3 forms x 2 signs (a chain per
        # form of each pair made 12)
        ("canonical", nearlyholo.zagier_sequence, 6),
        # one raising chain per form and pair up to n_max = 5, every degree reading its prefix:
        # 2 pairs x 2 forms x 5 (a chain per degree made 60)
        ("combi", nearlyholo.shimura_X, 20),
        # one raising chain X^1..X^5 f per form, every order reading its prefix: 3 forms x 5
        # (a chain per order made 45)
        ("der", nearlyholo.shimura_X, 15),
        # one normalized chain of E4 and one of E6 up to n = 4, every degree reading its prefix:
        # 2 x 4 (chains per degree made 2n raises for each n <= 4, 20 in all)
        ("propasso", nearlyholo.shimura_X, 8),
        # the xi-kernel checks: per triple one chain of each of f, g and h up to n_max = 3, and
        # one of each w_nu up to 3 - nu, so 3 x 3 + 3 + 2 + 1 + 0 = 15 per triple (a chain per
        # (n, p) made nu raises of each of f and g and p of each of w and h, 40 per triple)
        ("triple", nearlyholo.shimura_X, 30),
        # the search's table: one walk n = 0..3 per ordered pair of the 9 generator monomials of
        # weights 4..16, 81 x 4 (the table memoized per (pair, n) made 309, the misses among them)
        ("uniqueness", nearlyholo.rc_bracket, 324),
    ],
)
def test_suite_builds_each_object_once(monkeypatch, suite, function, calls):
    count = 0

    def counted(*args, **kwargs):
        nonlocal count
        count += 1
        return function(*args, **kwargs)

    assert _patch_every_binding(monkeypatch, function, counted) == BINDINGS[function.__name__]
    with redirect_stdout(io.StringIO()):
        assert main(["verify", suite, "--json"]) == 0
    assert count == calls


@pytest.mark.parametrize(
    "suite,builds",
    [
        # E2 for the chains' one precision, E4 for the catalogue and for phi, E6 once
        ("canonical", 3),
        # E2, E4 and E6 at prec 20; E4 and E6 at the 15 of triple and uniqueness and the 14 of fine
        ("all", 7),
    ],
)
def test_suite_builds_each_eisenstein_series_once(suite, builds):
    forms.eisenstein.cache_clear()  # so that the count does not depend on the tests run before
    with redirect_stdout(io.StringIO()):
        assert main(["verify", suite, "--json"]) == 0
    assert forms.eisenstein.cache_info().misses == builds


def test_verify_all_builds_delta_once_per_precision(monkeypatch):
    # the run's Suite holds the catalogue: Delta at prec 20, at the 15 of triple and at the 14
    # of fine (8 with every suite building its own catalogue)
    precs = []
    delta = forms.delta

    def counted(prec):
        precs.append(prec)
        return delta(prec)

    assert _patch_every_binding(monkeypatch, delta, counted) == 1
    with redirect_stdout(io.StringIO()):
        assert main(["verify", "all", "--json"]) == 0
    assert sorted(precs) == [14, 15, 20]


def test_binary_power_products(monkeypatch):
    # bit_length(e) - 1 squares and popcount(e) - 1 products into the result: none by one and
    # no square past the top bit (the padded loop made bit_length(e) + popcount(e) products)
    count = 0

    def counting(mul):
        def counted(a, b):
            nonlocal count
            count += 1
            return mul(a, b)
        return counted

    monkeypatch.setattr(QSeries, "__mul__", counting(QSeries.__mul__))
    monkeypatch.setattr(MPoly, "__mul__", counting(MPoly.__mul__))
    series = QSeries.from_numerators([1, -1, 0, 2], 3)
    poly = MPoly(("x", "y"), {(1, 0): Fraction(1, 2), (0, 1): 3})
    for e in range(41):
        want = e.bit_length() + e.bit_count() - 2 if e else 0
        for base in (series, poly):
            count = 0
            base.pow(e)
            assert count == want
    count = 0
    forms.delta(20)  # the Euler product to the 24th power
    assert count == 5


@pytest.mark.parametrize("suite", ["solve-unique", "ident"])
def test_each_filler_runs_once_per_key(monkeypatch, suite):
    # every filler handed to an ATable is wrapped once and counted per key;
    # extended tables share their filler with the table they extend
    fills = Counter()
    init = ATable.__init__

    def counting_init(self, max_n, grid_bound, values=None, filler=None, name="table"):
        if filler is not None and not hasattr(filler, "counted"):
            original = filler

            def filler(n, x, y):
                fills[original, (n, x, y)] += 1
                return original(n, x, y)

            filler.counted = True
        init(self, max_n, grid_bound, values, filler, name)

    monkeypatch.setattr(ATable, "__init__", counting_init)
    with redirect_stdout(io.StringIO()):
        assert main(["verify", suite, "--json"]) == 0
    assert fills and max(fills.values()) == 1


def test_solve_unique_eliminates_each_chain_level_once(monkeypatch):
    # one chain for the three degrees: level 3 on grid 5 and level 4 on grid 4, six c each;
    # a chain per degree eliminated level 3 twice (three calls)
    count = 0
    level_echelon = coeffsolve.level_echelon

    def counted(*args):
        nonlocal count
        count += 1
        return level_echelon(*args)

    assert _patch_every_binding(monkeypatch, level_echelon, counted) == 1
    with redirect_stdout(io.StringIO()):
        assert main(["verify", "solve-unique", "--json"]) == 0
    assert count == 2


@pytest.mark.parametrize(
    "n,clears",
    [
        # a row whose columns are all pivot columns is checked by evaluation, not cleared, and
        # most rows of these systems are such checks: clearing every row made 1,618, 2,052,
        # 2,484 and 2,916 calls.  What is left is the rows that bring a new pivot column and the
        # back-clears of the stored rows.  Fed last-first, a new level-2 pivot column is held by
        # few stored rows; first-to-last the kernel column moves to each larger pair and is
        # cleared from every pivot row (3,628 in all)
        (2, 178),
        # at levels 3..5 every pivot row ends with one entry (199 first-to-last)
        (3, 174),
        (4, 174),
        (5, 174),
    ],
)
def test_solve_reductions_per_level(monkeypatch, n, clears):
    system = build_ident_system(n, 6, ATable.eholzer(n - 1, 36))
    count = 0
    clear = exactcore._clear

    def counted(*args):
        nonlocal count
        count += 1
        return clear(*args)

    monkeypatch.setattr(exactcore, "_clear", counted)
    res = solve(system)
    assert res.consistent and res.nullity == (1 if n == 2 else 0)
    assert count == clears


def test_verify_all_ledger(monkeypatch):
    # the whole-run counts of `verify all`: a change anywhere that eliminates more often, clears
    # rows that evaluation settles (11,205 _clear calls before it did), raises a chain again
    # (205 shimura_X calls with a chain per degree, 135 with chains per (n, p) in triple and per
    # degree in propasso), builds a Zagier chain per pair (12), makes more brackets or series
    # products, or builds more identity rows fails here.  The search's table now lives in the
    # search, so it makes 453 rc_bracket calls, one walk per monomial pair (438 with the table
    # memoized per (pair, n), 309 of them misses).  It makes 1,203 series products: 1,268 with a
    # binary power that multiplied into a series of ones and squared past the top bit (Delta's
    # 24th power took 7 products, now 5) and a catalogue built per suite (Delta built 8 times,
    # now once per precision, 3 times); 1,765 with the memoized table, a chain per (n, p) and a
    # Zagier chain per pair.  It makes 1,847 series additions and subtractions: 1,909 with the
    # search's bracket terms summing zero monomial brackets (such as [m, m]_n for odd n), and
    # 3,059 when Y-polynomial sums, products and raises padded with zero series and isobaric
    # sums started from zero, 1,458 of them with a zero operand.  The caches are emptied first,
    # so that the counts do not depend on the tests run before
    for cached in (exactcore.binom, exactcore.pochhammer, nearlyholo._product_coeffs, uniq.fine_det3_mpoly,
                   uniq._monomial, forms.eisenstein):
        cached.cache_clear()
    monkeypatch.setattr(nearlyholo, "_last_pair", None)
    counts = Counter()

    def counting(name, function):
        def counted(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return counted

    for function in (exactcore.eliminate, nearlyholo.shimura_X, nearlyholo.rc_bracket, nearlyholo.zagier_sequence,
                     starprod.ident_numerators):
        name = function.__name__
        assert _patch_every_binding(monkeypatch, function, counting(name, function)) == BINDINGS[name]
    monkeypatch.setattr(exactcore, "_clear", counting("_clear", exactcore._clear))
    monkeypatch.setattr(QSeries, "__mul__", counting("QSeries products", QSeries.__mul__))
    monkeypatch.setattr(QSeries, "_combine", counting("QSeries additions and subtractions", QSeries._combine))
    monkeypatch.setattr(Fraction, "__new__", counting("Fraction constructions", Fraction.__new__))
    ident_rows = coeffsolve._ident_rows

    def counted_rows(*args, **kwargs):
        for row in ident_rows(*args, **kwargs):
            counts["identity rows"] += 1
            yield row

    monkeypatch.setattr(coeffsolve, "_ident_rows", counted_rows)
    with redirect_stdout(io.StringIO()):
        assert main(["verify", "all", "--json"]) == 0
    fractions = counts.pop("Fraction constructions")
    assert counts == {"eliminate": 15, "_clear": 1089, "shimura_X": 73, "rc_bracket": 453,
                      "zagier_sequence": 6, "ident_numerators": 6052, "identity rows": 4708,
                      "QSeries products": 1203, "QSeries additions and subtractions": 1847}
    # how many Fractions an operation builds is up to the fractions module, so this count is
    # pinned for CPython 3.11 only.  Each zero series cost a Fraction(0) and each padded power
    # a Fraction(1): the run built 41,347 before Y-polynomial arithmetic, isobaric sums and
    # powers stopped building them, and 40,175 while the search scaled its zero brackets
    if sys.implementation.name == "cpython" and sys.version_info[:2] == (3, 11):
        assert fractions == 40001


def test_the_uniqueness_search_scales_no_zero_bracket(monkeypatch):
    # a zero monomial bracket, such as [m, m]_n for odd n, adds nothing to a bracket term, so it
    # is skipped before it is scaled: summing them scaled 174 zero series
    scales = Counter()
    scale = QSeries.scale

    def counted(self, c):
        scales[self.is_zero()] += 1
        return scale(self, c)

    monkeypatch.setattr(QSeries, "scale", counted)
    with redirect_stdout(io.StringIO()):
        assert main(["verify", "uniqueness", "--json"]) == 0
    assert scales[False] > 0 and scales[True] == 0


@pytest.mark.parametrize("suite,scaled", [("solve-unique", False), ("triple", True)])
def test_only_rows_holding_a_fraction_are_scaled(monkeypatch, suite, scaled):
    # the identity rows reach the eliminator as ints and are used as given;
    # the lowering rows of triple_kernel_dim hold Fractions
    count = 0
    scaled_row = exactcore._scaled_row

    def counted(coeffs, rhs):
        nonlocal count
        count += 1
        return scaled_row(coeffs, rhs)

    monkeypatch.setattr(exactcore, "_scaled_row", counted)
    with redirect_stdout(io.StringIO()):
        assert main(["verify", suite, "--json"]) == 0
    assert (count > 0) == scaled


def test_bracket_walks_share_their_products(monkeypatch):
    # [f, g]_n reads the products D^t f * g, t <= n, of the most recent pair
    count = 0
    mul = QSeries.__mul__

    def counted(a, b):
        nonlocal count
        count += 1
        return mul(a, b)

    monkeypatch.setattr(QSeries, "__mul__", counted)

    def pair(seed):
        rng = random.Random(seed)
        return tuple(ModularForm(w, QSeries.from_numerators([rng.randint(-99, 99) for _ in range(20)], 7))
                     for w in (4, 6))

    def walk(f, g, degrees):
        before = count
        for n in degrees:
            nearlyholo.rc_bracket(f, g, n)
        return count - before

    a, b, c = pair(1), pair(2), pair(3)
    assert walk(*a, range(7)) == 7  # one product per term of each bracket made 28
    assert walk(*b, range(7)) == 7
    assert walk(*c, [6]) == 7
    assert walk(*c, range(6, -1, -1)) == 0
    # the table holds one pair: going back to a or b makes their products again
    assert nearlyholo._last_pair.key == (c[0].series, c[1].series)
    assert walk(*a, range(7)) == 7
    assert walk(*b, [6]) == 7
    assert walk(*c, [0]) == 1


def test_assoc_residual_series_products(monkeypatch, catalogue):
    # the pair products f*g and g*h, then each term of f*g times h and f times each term of g*h
    f, g, h = (GradedForm.from_form(catalogue[k]) for k in ("E4", "E6", "Delta"))
    count = 0
    mul = QSeries.__mul__

    def counted(a, b):
        nonlocal count
        count += 1
        return mul(a, b)

    monkeypatch.setattr(QSeries, "__mul__", counted)
    monkeypatch.setattr(nearlyholo, "_last_pair", None)  # so that no product is left from an earlier pair
    assert starprod.assoc_residual(f, g, h, starprod.StarCoefficients.cmz(Fraction(-7, 3)), 4).is_zero()
    assert count == 37


def test_star_product_walks_the_degrees_of_each_pair_of_parts(monkeypatch):
    # the degrees n <= 3 of one pair of parts share its products D^t f * g, t <= 3: (E4 + E6, E6)
    # has two pairs of parts, so 8 products, and the two series of rc_uniqueness_check make 16
    e4, e6 = (GradedForm.from_form(forms.eisenstein_form(w, 15)) for w in (4, 6))
    f1, g1 = e4 + e6, e6
    count = 0
    mul = QSeries.__mul__

    def counted(a, b):
        nonlocal count
        count += 1
        return mul(a, b)

    monkeypatch.setattr(QSeries, "__mul__", counted)
    monkeypatch.setattr(nearlyholo, "_last_pair", None)
    starprod.rc_series(f1, g1, 3)
    assert count == 8
    count = 0
    res = uniq.rc_uniqueness_check(f1, g1, f1.scale(Fraction(2, 7)), g1.scale(Fraction(7, 2)), 3, 15)
    assert res["C"] == Fraction(7, 2) and count == 16
