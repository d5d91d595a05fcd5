"""Wall-clock perf harness: events/second per scenario.

Everything else in ``repro.bench`` measures *virtual* time — what the
simulated machine would do.  This module measures the *host*: how fast
the engine itself turns over scheduling events, which is what bounds the
paper-figure sweeps, the ``repro.check`` explorer, and the test suite.

``python -m repro.bench perf`` runs every perf scenario (the six
``repro.check`` scenarios plus the UTS/SCF/TCE application presets) and
writes ``BENCH_wall.json`` (schema ``repro-bench-wall/1``) at the repo
root, so engine throughput is tracked commit to commit alongside the
virtual-time record ``BENCH_sim.json``.

Scenario runs go through :func:`repro.obs.scenarios.run_target` with
recording off, so the measured work is exactly what ``repro.obs
verify`` fingerprints.

The committed record also carries a ``baselines`` section — reference
measurements (e.g. the pre-redesign engine at its seed commit) that
regeneration preserves rather than re-measures, so speedup claims stay
anchored to the numbers they were made against.  ``--profile`` adds a
``notes.profile`` section: per-scenario host wall-time attribution by
runtime subsystem from the sampling self-profiler
(:mod:`repro.bench.selfprof`).  See ``docs/performance.md`` for how to
read the record.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from typing import Any

from repro.obs.scenarios import run_target
from repro.util.io import atomic_write_text

__all__ = [
    "WALL_SCHEMA",
    "PERF_SCENARIOS",
    "QUICK_SCENARIOS",
    "MICRO_BENCHMARKS",
    "PROFILE_MIN_SAMPLES",
    "measure_scenario",
    "measure_micro_switch",
    "run_micro",
    "run_perf",
    "write_wall_json",
    "validate_wall_json",
    "main",
]

#: Schema tag stamped into every ``BENCH_wall.json`` document.
WALL_SCHEMA = "repro-bench-wall/1"

#: Full scenario set: every check scenario plus the application presets.
PERF_SCENARIOS = (
    "queue",
    "queue-wf",
    "termination",
    "steals",
    "waitfree",
    "graph",
    "uts-tiny",
    "uts-small",
    "scf",
    "tce",
)

#: ``--quick`` subset: enough to validate the schema without paying for
#: the big presets (CI runs this).
QUICK_SCENARIOS = ("queue", "steals", "uts-tiny")

#: Microbenchmarks selectable with ``--micro``.
MICRO_BENCHMARKS = ("switch",)

#: Fewest samples a persisted ``notes.profile`` table may rest on.
#: ``perf --only uts-small --reps 1 --profile`` collects 276-393 samples
#: (median 325, ten runs on a 2-CPU x86-64 Linux host, CPython 3.11.7);
#: a GIL-starved sampler collected 31-52, too few for stable shares.
PROFILE_MIN_SAMPLES = 100


def measure_scenario(
    name: str, reps: int = 3, nprocs: int = 4, seed: int = 0,
    profile: bool = False, profile_interval: float = 0.001,
) -> dict[str, Any]:
    """Measure one scenario; return a record entry.

    Runs ``reps`` times and reports the best wall time (least
    interference from the host) alongside the mean.  Events/second uses
    the best run.  The run itself is virtual-time deterministic, so
    ``events`` is identical across reps by construction.

    With ``profile=True`` an *extra*, untimed run executes under the
    sampling self-profiler (:mod:`repro.bench.selfprof`) and its
    subsystem attribution table rides along as ``entry["profile"]`` —
    kept out of the timed reps so sampling overhead never pollutes the
    recorded walls.  One untimed warm-up run precedes the timed reps,
    so a single-rep measurement does not pay first-run costs (imports,
    caches) in its wall time.
    """
    run_target(name, nprocs=nprocs, seed=seed, record=False)
    walls = []
    events = None
    for _ in range(reps):
        # Sanctioned wall-clock site: measuring host throughput is the
        # entire point of this harness.
        t0 = time.perf_counter()  # repro: lint-disable=RPR002
        run = run_target(name, nprocs=nprocs, seed=seed, record=False)
        walls.append(time.perf_counter() - t0)  # repro: lint-disable=RPR002
        if events is None:
            events = run.events
        elif events != run.events:
            raise RuntimeError(
                f"{name}: event count changed across reps "
                f"({events} vs {run.events}); engine is nondeterministic"
            )
    best = min(walls)
    entry = {
        "scenario": name,
        "nprocs": nprocs,
        "seed": seed,
        "reps": reps,
        "events": events,
        "best_wall_s": best,
        "mean_wall_s": sum(walls) / len(walls),
        "events_per_sec": events / best if best > 0 else 0.0,
    }
    if profile:
        from repro.bench.selfprof import SubsystemProfiler

        prof = SubsystemProfiler(interval=profile_interval).start()
        try:
            run_target(name, nprocs=nprocs, seed=seed, record=False)
        finally:
            entry["profile"] = prof.stop()
    return entry


def measure_micro_switch(switches: int = 20000, reps: int = 3) -> dict[str, Any]:
    """Measure the raw cost of one trampoline event.

    Two simulated processes ping-pong: each loop iteration advances the
    local clock by one microsecond and syncs, which always finds the
    peer globally earliest — so sync elision never fires and *every*
    event is a genuine switch.  The reported ``ns_per_switch`` therefore
    prices one end-to-end scheduling event: heap push + pop,
    bookkeeping, and the generator ``send`` that resumes the process.
    """
    from repro.sim.engine import Engine

    def micro_main(proc):
        for _ in range(switches):
            yield from proc.co_sleep(1e-6)

    walls = []
    events = None
    for _ in range(reps):
        engine = Engine(2)
        engine.spawn_all(micro_main)
        # Sanctioned wall-clock site (see measure_scenario).
        t0 = time.perf_counter()  # repro: lint-disable=RPR002
        engine.run()
        walls.append(time.perf_counter() - t0)  # repro: lint-disable=RPR002
        if events is None:
            events = engine.events
        elif events != engine.events:
            raise RuntimeError(
                f"micro-switch: event count changed across reps "
                f"({events} vs {engine.events}); engine is nondeterministic"
            )
    best = min(walls)
    return {
        "scenario": "micro-switch",
        "nprocs": 2,
        "seed": 0,
        "reps": reps,
        "events": events,
        "best_wall_s": best,
        "mean_wall_s": sum(walls) / len(walls),
        "events_per_sec": events / best if best > 0 else 0.0,
        "ns_per_switch": best / events * 1e9 if events else 0.0,
    }


def run_micro(
    switches: int = 20000, reps: int = 3, verbose: bool = True
) -> list[dict[str, Any]]:
    """Measure the switch microbenchmark."""
    entry = measure_micro_switch(switches=switches, reps=reps)
    if verbose:
        print(
            f"  micro-switch {entry['events']:>8} events  "
            f"best {entry['best_wall_s'] * 1e3:8.1f} ms  "
            f"{entry['ns_per_switch']:>8,.0f} ns/switch"
        )
    return [entry]


def run_perf(
    scenarios: tuple[str, ...] | list[str] = PERF_SCENARIOS,
    reps: int = 3,
    nprocs: int = 4,
    seed: int = 0,
    verbose: bool = True,
    profile: bool = False,
    profile_interval: float = 0.001,
) -> list[dict[str, Any]]:
    """Measure ``scenarios`` and return record entries."""
    entries = []
    for name in scenarios:
        entry = measure_scenario(
            name, reps=reps, nprocs=nprocs, seed=seed,
            profile=profile, profile_interval=profile_interval,
        )
        entries.append(entry)
        if verbose:
            print(
                f"  {name:<12} {entry['events']:>8} events  "
                f"best {entry['best_wall_s'] * 1e3:8.1f} ms  "
                f"{entry['events_per_sec']:>10,.0f} ev/s"
            )
            if "profile" in entry:
                from repro.bench.selfprof import render_attribution

                print(render_attribution(entry["profile"], indent="      "))
    return entries


def _host_info() -> dict[str, Any]:
    import os

    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }


def write_wall_json(
    entries: list[dict[str, Any]],
    path: str | Path,
    baselines: list[dict[str, Any]] | None = None,
    notes: dict[str, Any] | None = None,
) -> Path:
    """Write ``BENCH_wall.json``, preserving any committed baselines.

    If ``path`` already exists and carries a ``baselines`` section,
    those entries survive regeneration verbatim (unless ``baselines``
    is passed explicitly) — they are reference points measured once,
    not part of the sweep.  A ``notes`` section is preserved the same
    way; per-entry self-profiler tables (``--profile``) are lifted out
    of the entries into ``notes.profile`` keyed by scenario, so the
    entry schema stays purely measurements.  An existing ``path`` that
    cannot be read as JSON raises ``ValueError`` rather than being
    overwritten along with its baselines and notes.
    """
    path = Path(path)
    existing: dict[str, Any] = {}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise ValueError(
                f"{path}: existing record is unreadable ({exc}); refusing to "
                f"overwrite its baselines and notes"
            ) from None
    if baselines is None:
        baselines = existing.get("baselines")
    if notes is None:
        notes = existing.get("notes")
    profiles: dict[str, Any] = {}
    cleaned = []
    for e in entries:
        if "profile" in e:
            e = dict(e)
            profiles[e["scenario"]] = e.pop("profile")
        cleaned.append(e)
    entries = cleaned
    if profiles:
        notes = {**(notes or {}), "profile": profiles}
    doc = {
        "schema": WALL_SCHEMA,
        "host": _host_info(),
        "entries": entries,
    }
    if baselines:
        doc["baselines"] = baselines
    if notes:
        doc["notes"] = notes
    validate_wall_json(doc)
    # Atomic write: a run interrupted mid-emission (or racing a fleet
    # campaign) can never leave a torn record behind.
    return atomic_write_text(path, json.dumps(doc, indent=2) + "\n")


def validate_wall_json(doc: dict) -> None:
    """Raise ``ValueError`` unless ``doc`` is a valid wall-clock record.

    Checked: the schema tag, for every entry (and baseline) a
    scenario name, a positive event count, and a positive throughput —
    zero throughput means the measurement is broken, so it fails
    validation rather than being recorded — and for every
    ``notes.profile`` table at least :data:`PROFILE_MIN_SAMPLES` samples.
    """
    if doc.get("schema") != WALL_SCHEMA:
        raise ValueError(f"bad schema tag {doc.get('schema')!r}; want {WALL_SCHEMA!r}")
    entries = doc.get("entries")
    if not isinstance(entries, list) or not entries:
        raise ValueError("entries must be a non-empty list")
    for e in entries + list(doc.get("baselines") or []):
        where = repr(e.get("scenario"))
        if not e.get("scenario"):
            raise ValueError(f"entry missing scenario: {e!r}")
        if not isinstance(e.get("events"), int) or e["events"] <= 0:
            raise ValueError(f"{where}: bad events {e.get('events')!r}")
        eps = e.get("events_per_sec")
        if not isinstance(eps, (int, float)) or eps <= 0:
            raise ValueError(f"{where}: bad events_per_sec {eps!r}")
        wall = e.get("best_wall_s")
        if not isinstance(wall, (int, float)) or wall <= 0:
            raise ValueError(f"{where}: bad best_wall_s {wall!r}")
    for scenario, table in ((doc.get("notes") or {}).get("profile") or {}).items():
        samples = table.get("samples")
        if not isinstance(samples, int) or samples < PROFILE_MIN_SAMPLES:
            raise ValueError(
                f"notes.profile[{scenario!r}]: {samples!r} samples, below "
                f"the floor of {PROFILE_MIN_SAMPLES}"
            )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench perf",
        description="measure engine events/second per scenario",
    )
    parser.add_argument("--quick", action="store_true",
                        help=f"small scenario subset {QUICK_SCENARIOS} with 1 rep "
                             "(CI schema validation)")
    parser.add_argument("--only", nargs="*", choices=PERF_SCENARIOS,
                        help="measure only these scenarios")
    parser.add_argument("--micro", nargs="*", choices=MICRO_BENCHMARKS,
                        metavar="NAME",
                        help="measure only these microbenchmarks "
                             f"(choices: {', '.join(MICRO_BENCHMARKS)}); "
                             "the full sweep always includes them")
    parser.add_argument("--switches", type=int, default=20000,
                        help="ping-pong iterations per rank for the switch "
                             "microbenchmark (default: %(default)s)")
    parser.add_argument("--profile", action="store_true",
                        help="also run each scenario once under the sampling "
                             "self-profiler and persist the subsystem "
                             "attribution under notes.profile in the record")
    parser.add_argument("--profile-interval", type=float, default=0.001,
                        metavar="SEC",
                        help="host-time sampling interval for --profile "
                             "(default: %(default)s)")
    parser.add_argument("--reps", type=int, default=None,
                        help="repetitions per measurement (default: 3, quick: 1)")
    parser.add_argument("--nprocs", type=int, default=4,
                        help="rank count for application presets")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", default="BENCH_wall.json", metavar="PATH",
                        help="record path (default: %(default)s)")
    parser.add_argument("--no-json", action="store_true",
                        help="skip writing the JSON record")
    args = parser.parse_args(argv)

    scenarios = tuple(args.only) if args.only else (
        QUICK_SCENARIOS if args.quick else PERF_SCENARIOS
    )
    reps = args.reps if args.reps is not None else (1 if args.quick else 3)
    print("# engine wall-clock perf\n")
    if args.micro is not None:
        # --micro alone measures just the microbenchmarks.
        entries = run_micro(switches=args.switches, reps=reps)
    else:
        entries = run_perf(scenarios, reps=reps,
                           nprocs=args.nprocs, seed=args.seed,
                           profile=args.profile,
                           profile_interval=args.profile_interval)
        if not args.only and not args.quick:
            # The full sweep carries the switch microbenchmark too, so
            # the regenerated record always prices the raw primitive
            # alongside end-to-end scenario throughput.
            entries += run_micro(switches=args.switches, reps=reps)
    if not args.no_json:
        out = write_wall_json(entries, args.json)
        print(f"\nwall-clock record -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
