"""The repo benchmark: one command, four workloads, exact and timed metrics.

Run from the repository root::

    python3 perfbench/run.py --workload uts --seed 1 --seconds 10 --trace 0

One process runs the named workload as a closed loop: one caller, one
run at a time, the default engine, no worker processes and no extra
threads.  It prints a table of every metric with its unit, then, as the
last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.

Other modes:

* ``--determinism``: run every workload (or ``--workload``) twice per
  trace setting with one seed, in fresh interpreters, and require every
  exact count to be identical.  Exit 1 on any difference.
* ``--seed-ref PATH``: time the ``uts`` workload against the source
  tree at ``PATH`` (for example a checkout of an older commit),
  interleaved rep for rep with this tree, and report the ratio of
  tasks per second.

See ``perfbench/README.md`` for the metrics and why each workload is in
the set.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh interpreters started per run to time set-up; the median counts.
SETUP_PROBES = 9
#: Timed reps per run at least, however long they take.
MIN_REPS = 3
#: Share of traced host time the layers must account for.
MIN_NAMED_SHARE = 0.95
#: Per-layer metrics that are timings, not exact counts.
INEXACT = ("sim.events_per_s", "trace.named_share", "trace.overhead_x")
PROBE_MARK = "first-event"


class FirstEvent(BaseException):
    """Raised at the first simulated event of a set-up probe.

    A ``BaseException`` so that no runtime error handler swallows it.
    """


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile of ``values`` (0 <= q <= 1)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def probe(name: str, seed: int) -> int:
    """Child side of the set-up timing: build, then stop at the first event."""
    from repro.sim.engine import Engine
    from workloads import WORKLOADS

    def stop(_engine):
        raise FirstEvent

    Engine.run = stop
    workload = WORKLOADS[name](seed)
    try:
        workload.rep()
    except FirstEvent:
        print(PROBE_MARK, flush=True)
        return 0
    return 1


def setup_seconds(name: str, seed: int) -> list[float]:
    """Seconds from a fresh interpreter to the first simulated event."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            times.append(time.perf_counter() - t0)
            try:
                _, err = child.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                child.kill()
                child.communicate()
                raise
        if line.strip() != PROBE_MARK or child.returncode != 0:
            raise RuntimeError(f"set-up probe for {name} failed:\n{err}")
    return times


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int, int]:
    """Run one workload; return ``(metrics, attempted, failed)``."""
    import layers
    from workloads import WORKLOADS

    setups = setup_seconds(name, seed)
    workload = WORKLOADS[name](seed)
    workload.reference()
    first = workload.rep()  # warm-up: lazy set-up and caches, untimed
    attempted, failed = first.attempted, first.failed

    def check(rep) -> None:
        # one more check per rep: a deterministic simulator repeats every
        # virtual-time result of the first rep exactly
        nonlocal attempted, failed
        attempted += rep.attempted + 1
        failed += rep.failed
        failed += (rep.events, rep.makespan, rep.counts) != (
            first.events, first.makespan, first.counts)

    reps, rep_walls = [], []
    spent = 0.0
    while spent < seconds or len(reps) < MIN_REPS:
        gc.collect()
        t0 = time.perf_counter()
        rep = workload.rep()
        wall = time.perf_counter() - t0
        spent += wall
        reps.append(rep)
        rep_walls.append(wall)
        check(rep)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    c = first.counts
    metrics = {
        "setup_s": statistics.median(setups),
        "tasks_per_s": statistics.median(r.tasks / sum(r.walls) for r in reps),
        "schedules_per_s": statistics.median(len(r.walls) / sum(r.walls) for r in reps),
        # latency percentiles within each rep, median over reps: a burst of
        # host noise that slows one rep moves neither
        "schedule_ms_p50": statistics.median(percentile(r.walls, 0.5) for r in reps) * 1e3,
        "schedule_ms_p90": statistics.median(percentile(r.walls, 0.9) for r in reps) * 1e3,
        "sim_makespan_s": first.makespan,
        "peak_rss_mb": peak_rss_mb,
        "sim.events": first.events,
        "sim.events_per_s": statistics.median(r.events / sum(r.walls) for r in reps),
        "core.tasks_executed": c["core.tasks_executed"],
        "core.steals_attempted": c["core.steals_attempted"],
        "core.steal_success_ratio": _ratio(c["core.steals_successful"],
                                           c["core.steals_attempted"]),
        "core.tasks_stolen": c["core.tasks_stolen"],
        "core.tasks_released": c["core.tasks_released"],
        "core.tasks_reacquired": c["core.tasks_reacquired"],
        "core.efficiency": _ratio(c["core.time_working"], c["core.time_total"]),
        "core.waves": c["core.waves"],
        "core.td_msgs": c["core.td_msgs"],
        "core.dirty_msgs": c["core.dirty_msgs"],
        "core.dirty_skip_ratio": _ratio(c["core.dirty_msgs_skipped"],
                                        c["core.dirty_msgs"] + c["core.dirty_msgs_skipped"]),
        "armci.get_remote": c["armci.get_remote"],
        "armci.put_remote": c["armci.put_remote"],
        "armci.acc_remote": c["armci.acc_remote"],
        "armci.rmw": c["armci.rmw"],
        "armci.bytes": c["armci.bytes"],
        "armci.msg_posted": c["armci.msg_posted"],
        "check.decisions_per_schedule": c["check.decisions"] / len(first.walls),
        "check.violations": c["check.violations"],
        "obs.spans": c["obs.spans"],
    }
    schedules = sum(len(r.walls) for r in reps)
    print(f"# {name}: seed {seed}, {len(reps)} timed reps, {schedules} timed schedules, "
          f"{SETUP_PROBES} set-up probes")
    if trace:
        rep, traced_wall, stats = layers.traced(workload.rep)
        table = layers.attribute(stats, str(SRC / "repro"), rep.events)
        table["trace.overhead_x"] = traced_wall / statistics.median(rep_walls)
        metrics.update(table)
        check(rep)
        attempted += 1
        failed += table["trace.named_share"] < MIN_NAMED_SHARE
    return metrics, attempted, failed


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def report(spec: dict, metrics: dict, trace: bool, attempted: int, failed: int) -> dict:
    """Print the metric table; return the result object for the last line."""
    declared = spec["per_layer" if trace else "end_to_end"]
    out = {}
    for m in declared:
        value = metrics[m["name"]]
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<32} {value:>16.6g} {m['unit']:<8} ({m['better']} is better)")
    print(f"  {'failed_ratio':<32} {failed / attempted:>16.6g} {'ratio':<8} (lower is better)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}


def _child_result(name: str, seed: int, trace: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def determinism(spec: dict, names: list[str], seed: int) -> int:
    """Require identical exact counts from two fresh runs of each workload."""
    exact = [m["name"] for m in spec["per_layer"]
             if not m["name"].endswith(".self_s") and m["name"] not in INEXACT]
    bad = 0
    for name in names:
        diffs = []
        for trace, keys in ((0, ["sim_makespan_s"]), (1, exact)):
            a, b = (_child_result(name, seed, trace, 1) for _ in range(2))
            if not (a["correct"] and b["correct"]):
                diffs.append(f"trace {trace}: a run failed its output checks")
            diffs += [f"{k}: {a['metrics'][k]['value']!r} != {b['metrics'][k]['value']!r}"
                      for k in keys if a["metrics"][k]["value"] != b["metrics"][k]["value"]]
        status = "identical" if not diffs else "NONDETERMINISTIC"
        print(f"{name}: {len(exact) + 1} exact metrics {status}")
        for d in diffs:
            print(f"  {d}")
        bad += bool(diffs)
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="workload name from BENCHMARK.json")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="host seconds of timed reps, at least %d reps "
                         "(default: run_seconds of BENCHMARK.json)" % MIN_REPS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--determinism", action="store_true",
                    help="check that exact counts repeat across two runs")
    ap.add_argument("--seed-ref", metavar="PATH",
                    help="compare uts tasks/s against the source tree at PATH")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.seed_ref is not None:
        import seedref

        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        return seedref.compare(ROOT, Path(args.seed_ref), args.seed, seconds, MIN_REPS)
    if args.determinism:
        return determinism(spec, [args.workload] if args.workload else names, args.seed)
    if args.workload not in names:
        ap.error(f"--workload must be one of {names}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return probe(args.workload, args.seed)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    metrics, attempted, failed = measure(args.workload, args.seed, seconds, bool(args.trace))
    result = report(spec, metrics, bool(args.trace), attempted, failed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
