"""Sampling self-profiler: host wall-time attribution by runtime subsystem.

Per-event host cost is dominated by "runtime work"; this module breaks
it down with a stdlib-only sampling profiler: a daemon thread snapshots
the main thread's Python stack (``sys._current_frames()``) at a fixed
host-time interval and buckets each sample into a named subsystem — the
map that directs the next round of hot-path work.

Bucketing walks the sampled stack innermost-out: a stack inside
``heapq`` is the event heap; otherwise the innermost ``repro`` frame
decides (engine core and trampoline, cost model, task queue, steal
protocol, termination waves, observability hooks, application body,
ARMCI layer), so time spent in stdlib helpers is charged to the
runtime layer that called them.  Samples with no ``repro`` frame at all
(interpreter housekeeping, thread startup) fall into ``other`` —
attribution of everything else to a *named* subsystem is the acceptance
bar, and fractions always sum to 1 over the recorded samples.

The sampler works because every generator main runs on the host main
thread, inside the engine's trampoline; it observes wall time, so it
lives in ``repro.bench`` next to the other sanctioned wall-clock sites
and is never active during virtual-time measurement.

The sampling thread only runs when the interpreter hands it the GIL,
which a busy main thread does every ``sys.getswitchinterval()``
(5 ms by default) — far coarser than a millisecond sampling interval.
While sampling, :meth:`SubsystemProfiler.start` therefore lowers the
switch interval to half the sampling interval (never raising it), and
:meth:`SubsystemProfiler.stop` restores it.

Use ``python -m repro.bench perf --profile`` to run it per scenario and
persist the tables into ``BENCH_wall.json`` under ``notes.profile``.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter
from typing import Any

__all__ = ["SUBSYSTEMS", "SubsystemProfiler", "attribute_stack", "render_attribution"]

#: Ordered (subsystem, module-path fragments) — first match on the
#: innermost repro frame wins; ``repro/`` last as the catch-all so every
#: runtime frame lands in a named bucket.
SUBSYSTEMS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("engine", ("repro/sim/engine",)),
    ("cost-model", ("repro/sim/machines", "repro/sim/resources")),
    ("queue", ("repro/core/queue", "repro/core/collection")),
    ("task", ("repro/core/task", "repro/core/capi")),
    ("steal", ("repro/core/stealing", "repro/core/scheduler")),
    ("termination", ("repro/core/termination",)),
    ("obs-hooks", ("repro/obs/", "repro/sim/probe")),
    ("app-body", ("repro/apps/",)),
    ("armci", ("repro/armci/", "repro/ga/")),
    ("runtime-other", ("repro/",)),
)

#: Stdlib modules whose innermost frames get their own bucket even
#: though they are not repro code: the event heap is a first-class
#: subsystem in the per-event cost story.
_HEAP_MODULES = ("heapq.py",)


def attribute_stack(frame: Any) -> str:
    """Name the subsystem owning one sampled stack (see module doc)."""
    filename = frame.f_code.co_filename
    if filename.endswith(_HEAP_MODULES):
        return "heap"
    f = frame
    while f is not None:
        fn = f.f_code.co_filename.replace("\\", "/")
        pos = fn.rfind("repro/")
        if pos != -1:
            tail = fn[pos:]
            for name, fragments in SUBSYSTEMS:
                if any(tail.startswith(frag) for frag in fragments):
                    return name
        f = f.f_back
    return "other"


class SubsystemProfiler:
    """Samples the main thread's stack from a daemon thread.

    Usage::

        prof = SubsystemProfiler()
        prof.start()
        ...workload on the main thread...
        table = prof.stop()   # {"samples": N, "fractions": {...}}
    """

    def __init__(self, interval: float = 0.001) -> None:
        if interval <= 0:
            raise ValueError("sampling interval must be > 0")
        self.interval = interval
        self.counts: Counter[str] = Counter()
        self._target_ident = threading.get_ident()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._saved_switch: float | None = None

    def _sample_loop(self) -> None:
        # Host-time pacing for a host-time profiler (wall-clock sampling
        # is the point; the simulation's virtual clocks are untouched).
        # Event.wait doubles as the sleep so stop() never blocks a full
        # interval.
        while not self._stop.wait(self.interval):
            frame = sys._current_frames().get(self._target_ident)
            if frame is not None:
                self.counts[attribute_stack(frame)] += 1

    def start(self) -> "SubsystemProfiler":
        """Begin sampling the *calling* thread from a daemon thread."""
        self._target_ident = threading.get_ident()
        self._stop.clear()
        current = sys.getswitchinterval()
        if self.interval / 2 < current:
            self._saved_switch = current
            sys.setswitchinterval(self.interval / 2)
        self._thread = threading.Thread(
            target=self._sample_loop, name="repro-selfprof", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> dict[str, Any]:
        """Stop sampling and return the attribution table."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        if self._saved_switch is not None:
            sys.setswitchinterval(self._saved_switch)
            self._saved_switch = None
        return self.table()

    def table(self) -> dict[str, Any]:
        """``{"samples": N, "fractions": {subsystem: share}}`` (sums to 1)."""
        total = sum(self.counts.values())
        fractions = {
            name: self.counts[name] / total
            for name in sorted(self.counts, key=lambda n: -self.counts[n])
        } if total else {}
        named = sum(f for n, f in fractions.items() if n != "other")
        return {"samples": total, "fractions": fractions, "named": named}


def render_attribution(table: dict[str, Any], indent: str = "  ") -> str:
    """One aligned text block per attribution table."""
    fractions = table.get("fractions") or {}
    if not fractions:
        return f"{indent}(no samples)"
    width = max(len(n) for n in fractions)
    lines = [
        f"{indent}{name.ljust(width)}  {frac:7.1%}"
        for name, frac in fractions.items()
    ]
    lines.append(
        f"{indent}{'named subsystems'.ljust(width)}  "
        f"{table.get('named', 0.0):7.1%} of {table.get('samples', 0)} samples"
    )
    return "\n".join(lines)
