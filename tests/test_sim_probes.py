"""The probe stream costs nothing when off, and the runtime does not
depend on its observers.

* An unobserved run makes no call into ``repro/analyze/``, into
  ``repro/obs/tracing.py`` or into the recorder's edge and instant
  helpers, and never emits a per-task probe.
* No module of the runtime packages (``sim``, ``core``, ``armci``,
  ``ga``, ``mpi``) imports the analysis tools or the tracer: they emit
  probes, and the observers subscribe.
"""

from __future__ import annotations

import ast
import cProfile
import pstats
from pathlib import Path

from repro.apps.uts.presets import preset
from repro.apps.uts.scioto_uts import run_uts_scioto

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
RUNTIME = ("sim", "core", "armci", "ga", "mpi")
#: The recorder's former per-site edge and instant helpers.
RECORD_HELPERS = {"causal_edge", "edge_mark", "edge_here", "edge_send",
                  "edge_recv", "_edge_recorder", "instant"}


#: The per-task sites: each tests ``engine.probes`` before emitting.
PER_TASK = {("repro/core/collection.py", "co_add"),
            ("repro/core/queue.py", "co_push_local"),
            ("repro/core/queue.py", "co_pop_local"),
            ("repro/core/scheduler.py", "co_run_process")}


def _key(func: tuple[str, int, str]) -> tuple[str, str]:
    path = func[0].replace("\\", "/")
    return (path[path.rfind("repro/"):] if "repro/" in path else path, func[2])


def test_unobserved_run_never_calls_an_observer():
    prof = cProfile.Profile()
    prof.enable()
    try:
        run_uts_scioto(4, preset("tiny"), seed=1)
    finally:
        prof.disable()
    stats = pstats.Stats(prof).stats
    called = {_key(func) for func in stats}
    observer = sorted(
        key for key in called
        if key[0].startswith("repro/analyze/")
        or key[0] == "repro/obs/tracing.py"
        or (key[0] == "repro/obs/record.py" and key[1] in RECORD_HELPERS)
    )
    assert observer == []
    # Only the rarer sync sites (steals, locks, tokens) reach emit().
    emitters = {
        _key(caller)
        for func, row in stats.items() if _key(func) == ("repro/sim/probe.py", "emit")
        for caller in row[4]
    }
    assert emitters and not emitters & PER_TASK


def _imports(path: Path) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_runtime_packages_do_not_import_their_observers():
    offenders = {}
    for pkg in RUNTIME:
        for path in sorted((SRC / pkg).rglob("*.py")):
            bad = sorted(
                name for name in _imports(path)
                if name == "repro.analyze" or name.startswith("repro.analyze.")
                or name.startswith("repro.obs.tracing")
            )
            if bad:
                offenders[str(path.relative_to(SRC))] = bad
    assert offenders == {}
