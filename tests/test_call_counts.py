"""Deterministic work counts: each suite builds its identities and chains once.

The chain and coefficient functions are wrapped at every binding and counted
while one suite runs.  Call counts do not depend on the host, so a suite that
starts recomputing shared objects again fails here, not only in a timing.
"""

import io
from contextlib import redirect_stdout

import pytest
from test_planted_defects import _patch_every_binding

from rclab import nearlyholo, starprod
from rclab.cli import main


@pytest.mark.parametrize(
    "suite,function,calls",
    [
        # one set of numerators per (n, p, k, l, m), shared by the four kappa tables
        ("ident", starprod.ident_numerators, 1344),
        # one chain per form, per pair and per phi sign: 3 pairs x 2 signs x 2 forms
        ("canonical", nearlyholo.zagier_sequence, 12),
        # X^1..X^m f once per m: 3 forms x (1 + 2 + 3 + 4 + 5)
        ("der", nearlyholo.shimura_X, 45),
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
