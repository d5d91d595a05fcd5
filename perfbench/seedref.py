"""Same-host reference: ``uts`` tasks/s of this tree against another tree.

Two worker interpreters, one per source tree, each import ``repro``
from their own tree and run the ``uts`` workload's traversal (the
tree and ranks of :class:`workloads.Uts`) when told to.  The reps
alternate between the trees, and which tree goes first alternates too,
so drift in the host's speed falls on both sides alike.  Only one worker
runs at a time.

The other tree only needs ``repro.apps.uts.presets.preset`` and
``run_uts_scioto(nprocs, params, seed=...)``, which every commit since
the seed has.  Run as a worker::

    python3 perfbench/seedref.py --src TREE/src --seed 0
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

__all__ = ["compare"]


def _worker(src: Path, seed: int) -> int:
    from workloads import Uts

    sys.path.insert(0, str(src))
    from repro.apps.uts.presets import preset
    from repro.apps.uts.scioto_uts import run_uts_scioto

    params = preset(Uts.TREE)
    for line in sys.stdin:
        if line.strip() != "rep":
            break
        t0 = time.perf_counter()
        r = run_uts_scioto(Uts.NPROCS, params, seed=seed)
        wall = time.perf_counter() - t0
        print(json.dumps({"wall": wall, "nodes": r.stats.nodes, "events": r.sim.events}),
              flush=True)
    return 0


class _Tree:
    def __init__(self, label: str, root: Path, seed: int) -> None:
        self.label = label
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--src", str(root / "src"), "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=root,
        )
        self.reps: list[dict] = []

    def rep(self) -> dict:
        self.proc.stdin.write("rep\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.label} tree worker exited early")
        out = json.loads(line)
        self.reps.append(out)
        return out

    def close(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def tasks_per_s(self) -> float:
        return statistics.median(r["nodes"] / r["wall"] for r in self.reps)


def compare(root: Path, other: Path, seed: int, seconds: float, min_reps: int) -> int:
    """Interleave uts reps of the two trees; print the tasks/s ratio.

    Pairs of reps run until both trees together have spent ``seconds``
    of host time, and at least ``min_reps`` pairs.
    """
    if not (other / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {other / 'src'}", file=sys.stderr)
        return 2
    current, reference = _Tree("current", root, seed), _Tree("reference", other.resolve(), seed)
    try:
        for side in (current, reference):
            side.rep()  # warm-up
            side.reps.clear()
        spent, i = 0.0, 0
        while spent < seconds or i < min_reps:
            for side in ((current, reference) if i % 2 == 0 else (reference, current)):
                r = side.rep()
                spent += r["wall"]
                print(f"  rep {i} {side.label:<9} {r['wall']:.3f} s  {r['events']} events")
            i += 1
    finally:
        current.close()
        reference.close()
    nodes = {r["nodes"] for side in (current, reference) for r in side.reps}
    result = {
        "workload": "uts",
        "seed": seed,
        "reps": i,
        "reference": str(other),
        "current_tasks_per_s": current.tasks_per_s(),
        "reference_tasks_per_s": reference.tasks_per_s(),
        "ratio": current.tasks_per_s() / reference.tasks_per_s(),
        "same_output": len(nodes) == 1,
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
    }
    print(json.dumps(result))
    return 0 if result["same_output"] else 1


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="uts worker for one source tree")
    ap.add_argument("--src", type=Path, required=True)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    sys.exit(_worker(args.src, args.seed))
