"""Self-test of the benchmark itself: its counts repeat and its gate can fail.

    python3 bench/selftest.py [--workload NAME ...] [--seed N]

1. Two traced runs at one seed must give identical per-layer counts (every
   layer metric that is not a time and not trace.overhead_frac).
2. A deliberately wrong golden digest must make fail_frac > 0, and the true
   golden file must give fail_frac = 0 at the recorded seed.

Exits 0 when both hold for every workload tested.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

from child import BENCH, GOLDEN, OUT
from run import layer_unit, run_child
from workloads import WORKLOADS


def counts_repeat(workload: str, seed: int) -> bool:
    runs = [run_child(workload, seed, 1, time.monotonic() + 175) for _ in range(2)]
    for r in runs:
        if r.get("error"):
            print(f"FAIL {workload}: traced run failed: {r['error']}")
            return False
    a, b = ({k: v for k, v in r["layers"].items() if layer_unit(k) != "s"} for r in runs)
    diff = sorted(k for k in a if a[k] != b.get(k))
    if diff or a.keys() != b.keys():
        print(f"FAIL {workload}: counts differ between traced runs: {diff}")
        return False
    print(f"ok   {workload}: {len(a)} counts identical across two traced runs at seed {seed}")
    return True


def gate_fails_on_wrong_digest(workload: str) -> bool:
    golden = json.loads(GOLDEN.read_text())
    seed = golden[workload]["seed"]
    wrong = json.loads(json.dumps(golden))
    first = sorted(wrong[workload]["units"])[0]
    wrong[workload]["units"][first] = "0" * 64
    OUT.mkdir(parents=True, exist_ok=True)
    wrong_path = OUT / "golden-wrong.json"
    wrong_path.write_text(json.dumps(wrong))
    fails = {}
    for label, path in (("true", GOLDEN), ("wrong", wrong_path)):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), "--workload", workload, "--seed", str(seed),
             "--t0", repr(time.monotonic()), "--golden", str(path)],
            capture_output=True, text=True, check=True)
        res = json.loads(proc.stdout.splitlines()[-1])
        fails[label] = res["failed"] / res["attempted"]
    ok = fails["true"] == 0 and fails["wrong"] > 0
    print(f"{'ok  ' if ok else 'FAIL'} {workload}: fail_frac {fails['true']:.4g} with the true golden "
          f"digests, {fails['wrong']:.4g} with unit {first!r} corrupted")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    ok = True
    for name in args.workload or list(WORKLOADS):
        ok &= counts_repeat(name, args.seed)
        ok &= gate_fails_on_wrong_digest(name)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
