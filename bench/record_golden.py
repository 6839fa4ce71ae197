"""Record the golden output digests of every workload at seed 0.

    python3 bench/record_golden.py

Run this only on a commit whose outputs are known good: the digests are the
invariant later runs are held to, so re-recording them after a change would
hide exactly the output drift they exist to catch.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

from child import BENCH, OUT
from workloads import WORKLOADS

SEED = 0


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    empty = OUT / "golden-empty.json"
    empty.write_text("{}")
    golden = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), "--workload", name, "--seed", str(SEED),
             "--t0", repr(time.monotonic()), "--golden", str(empty)],
            capture_output=True, text=True, check=True)
        res = json.loads(proc.stdout.splitlines()[-1])
        if res["error"] or res["failed"]:
            print(f"{name}: {res['failed']} failed operations, not recording\n{res['error'] or ''}",
                  file=sys.stderr)
            return 1
        golden[name] = {"seed": SEED, "digest": res["digest"], "units": res["units"]}
        print(f"{name}: {len(res['units'])} units, digest {res['digest']}")
    (BENCH / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
