"""rc-lab benchmark: cold-process runs of three workloads, end-to-end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N] [--seconds S]      # every workload, untraced

Closed loop, one client: each run of a workload is a fresh interpreter
(bench/child.py), started only after the previous one has exited; no
threads, no pool.  Runs are cold on purpose, because every real `rc-lab`
invocation is, so a cache the library fills is paid inside the run.

--trace 0 starts runs until the next one, and the set-up-only runs still
owed, would end after S seconds (at least two runs), then set-up-only runs
until nine set-ups are measured, and reports medians.  The first run makes
every check; later runs skip the checks that recompute the outputs and must
instead reproduce the first run's output digest.

  setup_s      interpreter start until the seeded inputs are built, in
               reference seconds (scaled by a probe timed just after it)
  wall_s       first library call until the verdict is in hand, in reference
               seconds (hostspeed.py: each 0.2 s slice is scaled by
               REFERENCE_PROBE_S / the probe times at its ends)
  ops_per_s    operations of the timed region / wall_s
  peak_rss_mb  ru_maxrss of the run's process

The time as measured, less the probes, is printed beside wall_s and kept in
the run records as raw_wall_s; it is not a metric, because on a shared host
it moves by up to 1.8x with the other tenants' load.

--trace 1 makes one untraced and one traced run and reports the per-layer
metrics of the traced one (see tracing.py), plus trace.overhead_frac.

fail_frac (failed / attempted operations) is printed with the metrics and
carried by the `failed` and `attempted` fields of the last line, a JSON
object.  Any failed operation makes the command exit 1.  Each invocation also
prints the host it ran on; nothing pins CPUs or changes the machine, so that
record is how run-to-run noise is read.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

from child import BENCH, OUT, ROOT, SRC
from hostspeed import REFERENCE_PROBE_S, corrected_seconds
from workloads import WORKLOADS

MIN_RUNS = 2
MIN_SETUPS = 9
# a run must finish within 180 s: start no child that would end after this
START_LIMIT_S = 150.0
CHILD_TIMEOUT_S = 175.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "ops/s", "peak_rss_mb": "MB"}


def host_record() -> dict:
    return {
        "python": sys.version,
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


def run_child(workload: str, seed: int, trace: int, deadline: float, mode: str | None = None) -> dict:
    """One cold run; mode is None, "setup-only" or "digest-only" (see child.py)."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--t0", repr(t0)]
    if mode:
        cmd.append(f"--{mode}")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"error": "timed out", "elapsed_s": time.monotonic() - t0}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}",
                "elapsed_s": time.monotonic() - t0}
    res = json.loads(lines[-1])
    res["elapsed_s"] = time.monotonic() - t0
    return res


def tally(children: list[dict], planned: int) -> tuple[int, int, list[str]]:
    """Attempted and failed operations over full runs, plus the problems seen.

    A run that crashed counts `planned` failed operations.  A run whose output
    digest differs from the first run's at the same seed fails all of its
    operations: the outputs must be deterministic, and later runs skip the
    checks that recompute outputs, so their digest is what vouches for them.
    """
    attempted = failed = 0
    problems = []
    first = next((c.get("digest") for c in children if not c.get("error")), None)
    for c in children:
        if "wall_s" not in c or c.get("error"):
            attempted += c.get("attempted", planned)
            failed += c.get("attempted", planned)
            problems.append(c.get("error") or "no result")
            continue
        attempted += c["attempted"]
        failed += c["failed"]
        if c["digest"] != first:
            failed += c["attempted"] - c["failed"]
            problems.append("output digest differs between runs at one seed")
    return attempted, failed, problems


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    start = time.monotonic()
    deadline = start + CHILD_TIMEOUT_S
    children: list[dict] = []
    if trace:
        children.append(run_child(workload, seed, 0, deadline))
        children.append(run_child(workload, seed, 1, deadline))
    else:
        while True:
            children.append(run_child(workload, seed, 0, deadline, "digest-only" if children else None))
            if children[-1].get("error"):
                break
            elapsed = time.monotonic() - start
            est = statistics.median(c["elapsed_s"] for c in children[1:] or children)
            # the set-up-only runs still owed if this were the last full run
            owed = max(0, MIN_SETUPS - len(children) - 1) * statistics.median(
                c["setup_s"] for c in children)
            if elapsed + est > START_LIMIT_S:
                break
            if len(children) >= MIN_RUNS and elapsed + est + owed > seconds:
                break
    probes: list[dict] = []
    if not trace and not any(c.get("error") for c in children):
        while len(children) + len(probes) < MIN_SETUPS:
            probes.append(run_child(workload, seed, 0, deadline, "setup-only"))
            if probes[-1].get("error"):
                break
    planned = max((c.get("attempted", 0) for c in children), default=1) or 1
    attempted, failed, problems = tally(children, planned)
    for p in probes:
        if p.get("error"):
            attempted, failed = attempted + 1, failed + 1
            problems.append(p["error"])
    good = [c for c in children if "wall_s" in c and not c.get("error")]
    for c in good:
        c["raw_wall_s"] = c.pop("wall_s")
        c["wall_s"] = corrected_seconds(c["clock"])
    for c in good + probes:
        if "setup_probe_s" in c:
            c["raw_setup_s"] = c["setup_s"]
            c["setup_s"] *= REFERENCE_PROBE_S / c["setup_probe_s"]
    metrics: dict[str, dict] = {}
    if trace and len(good) == 2:
        # tally() has already failed the traced run if its digest differs
        untraced, traced = good
        layers = dict(traced["layers"])
        layers["trace.overhead_frac"] = traced["wall_s"] / untraced["wall_s"] - 1
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(layers.items())}
    elif not trace and good:
        setups = [c["setup_s"] for c in good + probes if "setup_s" in c]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(c["wall_s"] for c in good),
            "ops_per_s": statistics.median(c["attempted"] / c["wall_s"] for c in good),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in good),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    if not metrics:
        problems.append("no complete run")
        failed = max(failed, 1)
        attempted = max(attempted, failed)
    return {"workload": workload, "seed": seed, "trace": trace, "attempted": attempted,
            "failed": failed, "metrics": metrics, "problems": problems,
            "runs": [{k: v for k, v in c.items() if k not in ("units", "layers")} for c in children],
            "raw_wall_s": statistics.median(c["raw_wall_s"] for c in good) if good and not trace else None,
            "setup_probes": [{k: p.get(k) for k in ("setup_s", "raw_setup_s", "setup_probe_s")}
                             for p in probes]}


def layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[-1]
    if stat in ("self_s", "wall_s"):
        return "s"
    if stat in ("distinct_frac", "integral_frac", "overhead_frac", "brackets_per_trial"):
        return "ratio"
    if stat == "operand_bits":
        return "bits"
    return "count"


def report(result: dict) -> None:
    name = result["workload"]
    for key, m in result["metrics"].items():
        print(f"{name:<17} {key:<42} {m['value']:.6g} {m['unit']}")
    if result["raw_wall_s"] is not None:
        print(f"{name:<17} {'(wall as measured, not a metric)':<42} {result['raw_wall_s']:.6g} s, "
              f"median of {len(result['runs'])} cold runs")
    frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"{name:<17} {'fail_frac':<42} {frac:.6g} ratio ({result['failed']}/{result['attempted']})")
    for p in result["problems"]:
        print(f"{name:<17} problem: {p.strip().splitlines()[-1] if p.strip() else p}")


def default_seconds() -> float:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    except (OSError, ValueError, KeyError):
        return 10


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "rclab" / "__init__.py").is_file():
        print(f"rc-lab sources not found under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else default_seconds()
    # the build: byte-compile the sources once, so no run pays for it
    compileall.compile_dir(str(SRC), quiet=2)

    names = [args.workload] if args.workload else list(WORKLOADS)
    host = {"before": host_record()}
    results = [measure(name, args.seed, seconds, args.trace) for name in names]
    host["after"] = host_record()
    OUT.mkdir(parents=True, exist_ok=True)
    for r in results:
        r["host"] = host
        (OUT / f"run-{r['workload']}-seed{r['seed']}-trace{r['trace']}.json").write_text(
            json.dumps(r, indent=1, sort_keys=True))
        report(r)
    print("host", json.dumps(host, sort_keys=True))
    correct = all(r["failed"] == 0 and r["metrics"] for r in results)
    if args.workload:
        r = results[0]
        line = {"correct": correct, "attempted": r["attempted"], "failed": r["failed"],
                "metrics": r["metrics"]}
    else:
        line = {r["workload"]: {"correct": r["failed"] == 0, "attempted": r["attempted"],
                                "failed": r["failed"], "metrics": r["metrics"]} for r in results}
    print(json.dumps(line, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
