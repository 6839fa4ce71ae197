"""Deterministic work counts: each suite builds its identities and chains once.

The chain and coefficient functions are wrapped at every binding and counted
while one suite runs.  Call counts do not depend on the host, so a suite that
starts recomputing shared objects again fails here, not only in a timing.
"""

import io
import random
from collections import Counter
from contextlib import redirect_stdout

import pytest
from oracles import _patch_every_binding

from rclab import exactcore, forms, nearlyholo, starprod
from rclab.cli import main
from rclab.coeffsolve import ATable
from rclab.exactcore import QSeries
from rclab.forms import ModularForm


@pytest.mark.parametrize(
    "suite,function,calls",
    [
        # one set of numerators per (n, p, k, l, m), shared by the four kappa tables
        ("ident", starprod.ident_numerators, 1344),
        # one chain per form, per pair and per phi sign: 3 pairs x 2 signs x 2 forms
        ("canonical", nearlyholo.zagier_sequence, 12),
        # X^1..X^m f once per m: 3 forms x (1 + 2 + 3 + 4 + 5)
        ("der", nearlyholo.shimura_X, 45),
        # one normalized chain per factor: per (E4, E6) realization 2n raises for n <= 4
        ("propasso", nearlyholo.shimura_X, 20),
        # the xi-kernel checks: per triple and (n, p), nu raises of each of f and g, then p of
        # each of w and h, so 2n per (n, p), 40 per triple for n <= 3
        ("triple", nearlyholo.shimura_X, 80),
    ],
)
def test_suite_builds_each_object_once(monkeypatch, suite, function, calls):
    count = 0

    def counted(*args, **kwargs):
        nonlocal count
        count += 1
        return function(*args, **kwargs)

    assert _patch_every_binding(monkeypatch, function, counted) >= 2
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
