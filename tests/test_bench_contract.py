"""The benchmark's contract with the library.

bench/child.py imports rclab from this checkout's src/, builds a workload's
seed-0 inputs, runs it and compares every output digest with bench/golden.json.
With --digest-only it skips the checks that recompute the outputs; with
--trace 1 --setup-only it installs the span tracer, which raises unless every
traced function still has a binding, and stops after set-up.  Neither mode
writes under bench/.  A change that removes or renames a name the benchmark
calls or traces, or changes a recorded output, fails here.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _python(*argv: str) -> subprocess.CompletedProcess:
    # -B: no bytecode cache is written under bench/
    return subprocess.run([sys.executable, "-B", *argv], capture_output=True, text=True, timeout=300)


def _workload_names() -> list[str]:
    code = "import sys; sys.path.insert(0, sys.argv[1]); from workloads import WORKLOADS; print(*WORKLOADS)"
    return _python("-c", code, str(BENCH)).stdout.split()


def _child(*args: str) -> subprocess.CompletedProcess:
    return _python(str(BENCH / "child.py"), *args, "--seed", "0", "--t0", repr(time.monotonic()))


WORKLOADS = _workload_names()


def test_every_workload_has_a_golden_record():
    # also keeps the cases below from going vacuous if the listing breaks
    assert WORKLOADS and sorted(WORKLOADS) == sorted(json.loads((BENCH / "golden.json").read_text()))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_matches_its_golden_digests(workload):
    proc = _child("--workload", workload, "--digest-only")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["error"] is None
    assert result["attempted"] > 0 and result["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_traced_name_still_binds(workload):
    proc = _child("--workload", workload, "--trace", "1", "--setup-only")
    assert proc.returncode == 0, proc.stderr
