"""One cold benchmark run: a fresh interpreter runs one workload once.

    python3 bench/child.py --workload NAME --seed S --t0 T [--trace 0|1]
                           [--setup-only | --digest-only]

T is the parent's time.monotonic() taken just before it started this
process, so setup_s covers interpreter start, `import rclab` and building
the seeded inputs.  The run prints one JSON object on its last stdout line.
bench/run.py starts these one at a time and aggregates them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
OUT = BENCH / "out"


def import_rclab():
    """Import rclab from this checkout's src/, never from an installed copy."""
    if not (SRC / "rclab" / "__init__.py").is_file():
        raise SystemExit(f"no rclab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rclab

    if Path(rclab.__file__).resolve().parent != (SRC / "rclab").resolve():
        raise SystemExit(f"imported rclab from {rclab.__file__}, not from {SRC}")
    return rclab


def apply_golden(units, workload: str, seed: int, golden_path: Path) -> None:
    """At the recorded seed, a unit whose digest differs fails all its operations."""
    golden = json.loads(golden_path.read_text()).get(workload)
    if golden is None or golden["seed"] != seed:
        return
    want = golden["units"]
    for u in units:
        if want.get(u.name) != u.digest:
            u.failed = max(u.attempted, 1)
    # a recorded unit that no longer appears fails one operation of the last unit
    units[-1].failed += len(set(want) - {u.name for u in units})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--digest-only", action="store_true",
                    help="skip checks that recompute the outputs; the caller compares digests")
    ap.add_argument("--golden", type=Path, default=GOLDEN)
    args = ap.parse_args(argv)

    rclab = import_rclab()
    sys.path.insert(0, str(BENCH))
    import tracing as bench_trace
    from hostspeed import SpeedClock, local_probe
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](rclab)
    tracer = None
    if args.trace:
        tracer = bench_trace.Tracer()
        bench_trace.install(tracer, rclab)
        root = tracer.name_id(bench_trace.ROOT)
        sid = tracer.open(tracer.name_id(bench_trace.SETUP))
    inputs = workload.setup(args.seed)
    if tracer:
        tracer.close(sid)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "setup_probe_s": local_probe()}
    if args.setup_only:
        if tracer:
            tracer.uninstall()
        print(json.dumps(result))
        return 0

    attempted = workload.planned_ops(inputs)
    clock = SpeedClock()
    error = None
    try:
        if tracer:
            sid = tracer.open(root)
        clock.start()
        try:
            outputs = workload.run(inputs)
        finally:
            clock.stop()
        wall_s = clock.raw_s
        if tracer:
            tracer.close(sid)
            tracer.uninstall()
        units = workload.check(inputs, outputs, recompute=not args.digest_only)
        apply_golden(units, args.workload, args.seed, args.golden)
    except Exception:
        error = traceback.format_exc(limit=5)
        wall_s, units = None, []
    result.update({
        "wall_s": wall_s,
        "clock": clock.record(),
        "attempted": max(attempted, sum(u.attempted for u in units)),
        "failed": attempted if error else sum(u.failed for u in units),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": hashlib.sha256("".join(f"{u.name}={u.digest};" for u in units).encode()).hexdigest(),
        "units": {u.name: u.digest for u in units},
        "error": error,
    })
    if tracer and not error:
        result["layers"] = bench_trace.layer_metrics(tracer)
        result["trace"] = bench_trace.diagnostics(tracer)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
