"""The benchmark's four workloads, each a closed loop of identical reps.

A workload is built from the benchmark seed alone.  The seed drives the
engine seed (victim-selection RNG) of every run, the engine and strategy
seeds of the ``explore`` schedules (one pair per schedule, so that the
campaign averages over them) and the sparsity pattern of the TCE problem;
the UTS tree and the SCF problem are fixed.  :meth:`rep` runs one unit
of work (one UTS traversal, one check campaign, one SCF+TCE round) on
the default engine in this process and checks its outputs against
references that :meth:`reference` computes once, outside every timed
region.

Host time is taken per *schedule*: one traversal on the UTS workloads,
one check schedule on ``explore``, and one round of the four application
runs on ``ga-apps``.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Rep", "WORKLOADS"]

#: TaskCollection counter keys summed into the modelled ``core`` counts.
_TC_KEYS = {
    "local_pop": "core.tasks_executed",
    "steal_attempt": "core.steals_attempted",
    "steal_success": "core.steals_successful",
    "tasks_stolen": "core.tasks_stolen",
    "tasks_released": "core.tasks_released",
    "tasks_reacquired": "core.tasks_reacquired",
    "waves": "core.waves",
    "td_msgs": "core.td_msgs",
    "dirty_msgs": "core.dirty_msgs",
    "dirty_msgs_skipped": "core.dirty_msgs_skipped",
}

#: ARMCI counter keys summed into the modelled ``armci`` counts.
_ARMCI_KEYS = {
    "get_remote": "armci.get_remote",
    "put_remote": "armci.put_remote",
    "acc_remote": "armci.acc_remote",
    "rmw": "armci.rmw",
    "bytes_get": "armci.bytes",
    "bytes_put": "armci.bytes",
    "bytes_acc": "armci.bytes",
    "msg_posted": "armci.msg_posted",
}


@dataclass
class Rep:
    """One rep: host time per schedule, output size and exact counts."""

    walls: list[float] = field(default_factory=list)
    tasks: int = 0
    makespan: float = 0.0
    events: int = 0
    counts: Counter = field(default_factory=Counter)
    attempted: int = 0
    failed: int = 0

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def _armci_counts(snapshot: dict, counts: Counter) -> None:
    for key, name in _ARMCI_KEYS.items():
        counts[name] += snapshot.get(key, 0.0)


def _engine_counts(engine, counts: Counter) -> None:
    """Add the task-collection and ARMCI counters of one finished run."""
    from repro.armci.runtime import Armci
    from repro.core.collection import TaskCollection

    registry = engine.state.get(TaskCollection._KEY)
    for shared in registry["shared"] if registry else ():
        for key, name in _TC_KEYS.items():
            counts[name] += shared.counters.total(key)
    _armci_counts(Armci.attach(engine).counters.snapshot(), counts)


def _stats_counts(per_rank, counts: Counter) -> None:
    counts["core.time_working"] += sum(s.time_working for s in per_rank)
    counts["core.time_total"] += sum(s.time_total for s in per_rank)


class Uts:
    """Scioto UTS on the geometric T-series ``medium`` tree, 4 ranks."""

    name = "uts"
    NPROCS = 4
    TREE = "medium"

    def __init__(self, seed: int) -> None:
        from repro.apps.uts.presets import preset
        from repro.apps.uts.scioto_uts import run_uts_scioto

        self.seed = seed
        self.params = preset(self.TREE)
        self._run = run_uts_scioto
        self.expected = None

    def reference(self) -> None:
        from repro.apps.uts.tree import count_tree

        self.expected = count_tree(self.params)

    def rep(self) -> Rep:
        engines: list = []
        t0 = time.perf_counter()
        r = self._run(self.NPROCS, self.params, seed=self.seed, engine_hook=engines.append)
        out = Rep(walls=[time.perf_counter() - t0], tasks=r.stats.nodes,
                  makespan=r.elapsed, events=r.sim.events)
        out.check(r.stats == self.expected)
        _engine_counts(engines[0], out.counts)
        _stats_counts(r.per_rank, out.counts)
        return out


class UtsObserved(Uts):
    """The ``uts`` run under the in-memory recorder, as ``repro.obs run``."""

    name = "uts-observed"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro.obs.scenarios import fingerprint, run_target

        self._target = run_target
        self._fingerprint = fingerprint
        self.expected_fp = None

    def reference(self) -> None:
        super().reference()
        plain = self._target(f"uts-{self.TREE}", nprocs=self.NPROCS, seed=self.seed,
                             record=False)
        self.expected_fp = self._fingerprint(plain)

    def rep(self) -> Rep:
        t0 = time.perf_counter()
        run = self._target(f"uts-{self.TREE}", nprocs=self.NPROCS, seed=self.seed,
                           record=True)
        out = Rep(walls=[time.perf_counter() - t0], tasks=run.extra["nodes"],
                  makespan=run.elapsed, events=run.events)
        out.check(run.extra["nodes"] == self.expected.nodes)
        out.check(self._fingerprint(run) == self.expected_fp)
        _engine_counts(run.engine, out.counts)
        _stats_counts(run.process_stats, out.counts)
        out.counts["obs.spans"] += run.recorder.span_count
        return out


class Explore:
    """A clean ``repro.check`` campaign: random walk and PCT, all scenarios."""

    name = "explore"
    STRATEGIES = ("random", "pct")
    PER_STRATEGY = 100

    def __init__(self, seed: int) -> None:
        from repro.check.runner import run_once
        from repro.check.scenarios import SCENARIOS, make_scenario
        from repro.check.strategies import make_strategy

        self.seed = seed
        self._run_once = run_once
        self._make_strategy = make_strategy
        self.cases = [
            (make_scenario(name), strategy, seed * 10_000 + i)
            for name in SCENARIOS
            for strategy in self.STRATEGIES
            for i in range(self.PER_STRATEGY)
        ]

    def reference(self) -> None:
        """Nothing to precompute: a schedule is correct when it ends with
        no invariant violation, deadlock or error."""

    def rep(self) -> Rep:
        out = Rep()
        for scenario, strategy_name, strategy_seed in self.cases:
            strategy = self._make_strategy(strategy_name, seed=strategy_seed)
            engines: list = []
            t0 = time.perf_counter()
            outcome = self._run_once(scenario, strategy, engine_seed=strategy_seed,
                                     engine_hook=engines.append)
            out.walls.append(time.perf_counter() - t0)
            engine = engines[0]
            out.check(not outcome.failed)
            out.events += outcome.events
            out.makespan += max(p.now for p in engine.procs)
            _engine_counts(engine, out.counts)
            out.counts["check.decisions"] += len(outcome.decisions)
            out.counts["check.violations"] += len(outcome.violations)
        out.tasks = int(out.counts["core.tasks_executed"])
        return out


class GaApps:
    """The Figure 5/6 point: SCF and TCE, Scioto and Original, 16 ranks."""

    name = "ga-apps"
    NPROCS = 16
    ITERATIONS = 2
    #: Real TCE tasks a sparsity pattern must have.  The seed picks the
    #: first pattern in its stream with this many nonzero triples (the
    #: expected count is 16**3 * 0.4**2 = 655), so every seed gives the
    #: same input size and only the placement of the blocks varies.
    TCE_TASKS = range(645, 666)

    def __init__(self, seed: int) -> None:
        from repro.apps.scf import SCFProblem, run_scf_original, run_scf_scioto
        from repro.apps.tce import TCEProblem, run_tce_original, run_tce_scioto
        from repro.sim.machines import heterogeneous_cluster

        self.seed = seed
        # The full-scale problem sizes of repro.bench.figure56.
        self.scf = SCFProblem(nblocks=40, blocksize=5)
        for k in itertools.count():
            self.tce = TCEProblem(nblocks=16, blocksize=64, density=0.4, seed=seed * 1000 + k)
            if len(self.tce.nonzero_triples()) in self.TCE_TASKS:
                break
        machine = heterogeneous_cluster(self.NPROCS)
        scf_kw = dict(iterations=self.ITERATIONS, machine=machine, seed=seed)
        tce_kw = dict(machine=machine, seed=seed)
        self.runs = (
            ("scf", lambda hook: run_scf_scioto(self.NPROCS, self.scf, engine_hook=hook, **scf_kw)),
            ("scf", lambda hook: run_scf_original(self.NPROCS, self.scf, engine_hook=hook, **scf_kw)),
            ("tce", lambda hook: run_tce_scioto(self.NPROCS, self.tce, engine_hook=hook, **tce_kw)),
            # run_tce_original takes no hook; its result carries the counters.
            ("tce", lambda hook: run_tce_original(self.NPROCS, self.tce, **tce_kw)),
        )
        # Real tasks per round: every significant Fock pair each
        # iteration and every nonzero triple, in both versions.
        self.tasks = 2 * (self.ITERATIONS * len(self.scf.significant_pairs())
                          + len(self.tce.nonzero_triples()))
        self.expected = None

    def reference(self) -> None:
        from repro.apps.scf.reference import run_scf_sequential
        from repro.apps.tce.reference import contract_sequential

        self.expected = {
            "scf": run_scf_sequential(self.scf, iterations=self.ITERATIONS),
            "tce": contract_sequential(self.tce),
        }

    def rep(self) -> Rep:
        out = Rep(tasks=self.tasks, walls=[0.0])
        for app, run in self.runs:
            engines: list = []
            t0 = time.perf_counter()
            r = run(engines.append)
            out.walls[0] += time.perf_counter() - t0
            got = r.energies if app == "scf" else r.result
            out.check(np.allclose(got, self.expected[app], atol=1e-10))
            out.makespan += r.elapsed
            out.events += r.sim.events
            if engines:
                _engine_counts(engines[0], out.counts)
            else:
                _armci_counts(r.comm, out.counts)
        return out


#: Workload name -> class, in ``BENCHMARK.json`` order.
WORKLOADS = {w.name: w for w in (Uts, UtsObserved, Explore, GaApps)}
