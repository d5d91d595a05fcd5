"""Per-layer attribution of one traced workload rep, measured from outside.

The traced rep runs under the stdlib :mod:`cProfile` hook, installed
here and not in the runtime, so ``src/`` carries no tracing code.  Every
Python function the profiler sees is mapped to a layer by the module it
was defined in (``repro/sim/engine.py`` -> ``sim.engine``,
``repro/sim/machines.py`` -> ``sim``).  Builtins, stdlib and numpy
functions belong to no layer; their self time is charged to the layer
that called them, through chains of non-repo callers by call-count
weights.

Counts are exact: cProfile counts every call and every generator resume
(a resume is a profiler call event), so ``calls``, ``entries``, heap
operations and generator switches repeat bit for bit for one seed.
Times are host seconds with the profiler's overhead included, so they
are only comparable with other traced runs.
"""

from __future__ import annotations

import cProfile
import gc
import os
import time
from collections import defaultdict

__all__ = ["LAYERS", "traced", "attribute"]

#: The repo's modules, as layers.  ``sim`` and ``core`` catch every
#: module of those packages without an entry of its own.
LAYERS = (
    "sim.engine",
    "sim.backends",
    "sim.resources",
    "sim",
    "core.queue",
    "core.task",
    "core.collection",
    "core.scheduler",
    "core.stealing",
    "core.termination",
    "core",
    "armci",
    "ga",
    "mpi",
    "apps",
    "baselines",
    "check",
    "obs",
    "analyze",
    "util",
)

#: Time and calls outside every layer: the benchmark's own frames, the
#: profiler, and non-repo code with no repo caller.
UNNAMED = "-"

_HEAP_OPS = ("<built-in method _heapq.heappush>", "<built-in method _heapq.heappop>")
_SEND = "<method 'send' of 'generator' objects>"


def traced(fn):
    """Run ``fn()`` under cProfile; return ``(result, wall_s, stats)``.

    A full collection first puts the collector in the same state on
    every run, so a collection cannot fire at a different point of the
    traced rep and add calls to it.
    """
    gc.collect()
    prof = cProfile.Profile()
    t0 = time.perf_counter()
    prof.enable()
    try:
        result = fn()
    finally:
        prof.disable()
    wall = time.perf_counter() - t0
    prof.create_stats()
    return result, wall, prof.stats


def _layer_of(filename: str, pkg_prefix: str) -> str | None:
    if not filename.startswith(pkg_prefix):
        return None
    parts = filename[len(pkg_prefix):].removesuffix(".py").split(os.sep)
    if len(parts) >= 2 and f"{parts[0]}.{parts[1]}" in LAYERS:
        return f"{parts[0]}.{parts[1]}"
    return parts[0] if parts[0] in LAYERS else None


def attribute(stats: dict, pkg_dir: str, events: int) -> dict[str, float]:
    """Turn cProfile ``stats`` into the per-layer table.

    ``pkg_dir`` is the ``repro`` package directory whose files define
    the layers; ``events`` the simulated events of the traced rep.
    """
    prefix = os.path.join(pkg_dir, "")
    own: dict = {f: _layer_of(f[0], prefix) for f in stats}
    memo: dict = {}

    def share(func, stack=()):
        """Layer distribution of the code that runs ``func``: its own
        layer, or for non-repo code its callers' distribution weighted
        by how often each called it."""
        if own.get(func) is not None:
            return {own[func]: 1.0}
        if func in memo:
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        total = sum(c[0] for c in callers.values())
        if func in stack or total == 0:
            return {UNNAMED: 1.0}
        dist: dict[str, float] = defaultdict(float)
        for caller in sorted(callers):
            for layer, w in share(caller, stack + (func,)).items():
                dist[layer] += w * callers[caller][0] / total
        memo[func] = dict(dist)
        return memo[func]

    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    entries: dict[str, float] = defaultdict(float)
    total_time = 0.0
    for func in sorted(stats):
        _cc, nc, tt, _ct, callers = stats[func]
        total_time += tt
        layer = own[func]
        if layer is not None:
            self_s[layer] += tt
            calls[layer] += nc
            for caller in sorted(callers):
                outside = 1.0 - share(caller).get(layer, 0.0)
                entries[layer] += callers[caller][0] * outside
            continue
        charged = 0.0
        for caller in sorted(callers):
            ctt = callers[caller][2]
            charged += ctt
            for lay, w in share(caller).items():
                self_s[lay] += ctt * w
        self_s[UNNAMED] += max(tt - charged, 0.0)

    named_time = sum(v for k, v in self_s.items() if k != UNNAMED)
    repo_calls = sum(calls.values())
    heap_ops = sum(v[1] for f, v in stats.items() if f[0] == "~" and f[2] in _HEAP_OPS)
    switches = sum(v[1] for f, v in stats.items() if f[0] == "~" and f[2] == _SEND)
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{layer}.entries"] = round(entries.get(layer, 0.0))
    out["sim.heap_ops"] = heap_ops
    out["sim.switches"] = switches
    out["sim.switch_ratio"] = switches / events if events else 0.0
    out["trace.calls_per_event"] = repo_calls / events if events else 0.0
    out["trace.named_share"] = named_time / total_time if total_time > 0 else 0.0
    return out
