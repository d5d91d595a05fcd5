"""Generator mains vs blocking mains: the engine's two execution paths.

The engine runs a generator main as a coroutine on its trampoline and a
plain blocking main on a compat thread.  Its contract is that the path
is unobservable: the same mains must produce bit-for-bit identical
results either way — same event counts, finish times, counters,
recorded span streams, live feeds and exploration traces.

These tests run every workload twice: once as written (every runtime
main is a generator function) and once with generator mains forced onto
compat threads by wrapping each as ``lambda proc, *a: drive(fn(proc,
*a))``.  The wrapper is a test-only monkeypatch of
:meth:`Engine.spawn`; the engine has no switch for it.  Teardown
robustness for both kinds of context is checked at the end.

The equivalence tests run in two modes, whose case ids keep the names
of the switch backends the cases replaced: ``coro`` forces every main
onto a compat thread, and ``thread-sem`` forces only the odd ranks, so
trampoline coroutines and compat threads hand off to each other inside
one run.
"""

from __future__ import annotations

import contextlib
import inspect
import itertools
import threading

import pytest

from repro.check.runner import run_once
from repro.check.scenarios import SCENARIOS, make_scenario
from repro.check.strategies import (
    DelayInjector,
    PctStrategy,
    RandomWalk,
    ReplayStrategy,
)
from repro.obs.scenarios import fingerprint, run_target
from repro.sim.engine import Engine, drive, run_spmd
from repro.util.errors import SimDeadlockError, SimShutdown

_real_spawn = Engine.spawn
_feeds = itertools.count()


def _every_rank(rank):
    return True


def _odd_ranks(rank):
    return rank % 2 == 1


# (case id, ranks whose generator mains are forced onto compat threads)
MODES = [
    pytest.param(_every_rank, id="coro"),
    pytest.param(_odd_ranks, id="thread-sem"),
]


@contextlib.contextmanager
def blocking_mains(force=_every_rank):
    """Force the generator mains of ranks picked by ``force`` onto
    compat threads for every engine spawned inside.

    Yields a list that collects the rank of every forced main, so a
    test can check the blocking path actually ran.
    """
    forced = []

    def spawn(self, rank, fn, *args):
        if inspect.isgeneratorfunction(fn) and force(rank):
            gen_fn = fn
            forced.append(rank)
            fn = lambda proc, *a: drive(gen_fn(proc, *a))  # noqa: E731
        _real_spawn(self, rank, fn, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Engine, "spawn", spawn)
        yield forced


def both_paths(fn, force=_every_rank):
    """``(fn() with generator mains, fn() with forced blocking mains)``."""
    generator = fn()
    with blocking_mains(force) as forced:
        blocking = fn()
    assert forced, "no generator main was forced onto a compat thread"
    return generator, blocking


def _span_stream(recorder):
    return [
        (s.rank, s.name, s.category, s.start, s.end, s.depth, s.parent)
        for s in recorder.spans
    ]


def _observed(name, tmp_path, **kw):
    """Fingerprint, span stream, ``extra`` and live-feed bytes of a run."""
    feed = tmp_path / f"live-{next(_feeds)}.jsonl"
    run = run_target(name, seed=0, record=True, live_path=feed, **kw)
    return (
        fingerprint(run), _span_stream(run.recorder), run.extra,
        feed.read_bytes(),
    )


# --------------------------------------------------------------------- #
# Bit-for-bit equivalence of the two paths
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("force", MODES)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_check_scenarios_fingerprint_equivalence(scenario, force, tmp_path):
    generator, blocking = both_paths(
        lambda: _observed(scenario, tmp_path), force
    )
    assert blocking == generator
    assert generator[3], "live feed is empty"


@pytest.mark.parametrize("force", MODES)
def test_uts_fingerprint_equivalence(force, tmp_path):
    generator, blocking = both_paths(
        lambda: _observed("uts-tiny", tmp_path, nprocs=4), force
    )
    assert blocking == generator  # includes extra: node counts, throughput


@pytest.mark.slow
def test_uts_small_fingerprint_equivalence():
    """The headline preset: generator mains vs forced blocking mains."""
    generator, blocking = both_paths(
        lambda: fingerprint(run_target("uts-small", nprocs=4, seed=0, record=False))
    )
    assert blocking == generator


@pytest.mark.parametrize("force", MODES)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_check_exploration_traces_equivalent(scenario, force):
    """A random walk records the identical decision trace on both paths,
    and a trace recorded on one path replays the run on the other."""

    def explore():
        walk = RandomWalk(seed=7)
        result = run_once(make_scenario(scenario), walk, engine_seed=0)
        return result.events, list(walk.decisions)

    (events, decisions), blocking = both_paths(explore, force)
    assert blocking == (events, decisions)
    with blocking_mains(force):
        replayed = run_once(
            make_scenario(scenario), ReplayStrategy(list(decisions)),
            engine_seed=0,
        )
    assert replayed.events == events
    replayed = run_once(
        make_scenario(scenario), ReplayStrategy(list(blocking[1])),
        engine_seed=0,
    )
    assert replayed.events == blocking[0]


@pytest.mark.parametrize(
    "make_strat",
    [
        lambda: RandomWalk(seed=11),
        lambda: PctStrategy(seed=11),
        lambda: DelayInjector(seed=11),
    ],
    ids=["random-walk", "pct", "delay"],
)
@pytest.mark.parametrize("scenario", ["steals", "termination"])
def test_exploration_strategies_on_coro_match_thread(scenario, make_strat):
    """Every exploring strategy must drive generator mains on the
    trampoline through the identical schedule it drives the same mains
    through on compat threads."""

    def explore():
        strat = make_strat()
        result = run_once(make_scenario(scenario), strat, engine_seed=0)
        return result.events, list(strat.decisions)

    generator, blocking = both_paths(explore)
    assert blocking == generator


def test_replay_on_coro_reproduces_coro_recorded_trace():
    """A trace recorded on the trampoline replays on the trampoline."""
    walk = RandomWalk(seed=23)
    base = run_once(make_scenario("steals"), walk, engine_seed=0)
    replay = ReplayStrategy(list(walk.decisions))
    replayed = run_once(make_scenario("steals"), replay, engine_seed=0)
    assert replayed.events == base.events


@pytest.mark.parametrize("force", MODES)
def test_finish_times_and_returns_equivalent(force):
    def main(proc):
        for _ in range(10):
            proc.compute(1e-6 * (proc.rank + 1))
            yield from proc.co_sync()
        return proc.now

    def run():
        r = run_spmd(4, main)
        return r.finish_times, r.returns, r.events, r.elapsed

    generator, blocking = both_paths(run, force)
    assert blocking == generator


@pytest.mark.parametrize("force", MODES)
def test_deadlock_identical_across_backends(force):
    def main(proc):
        if proc.rank:
            yield from proc.co_park(where=f"stuck-{proc.rank}")

    def run():
        with pytest.raises(SimDeadlockError) as ei:
            run_spmd(3, main)
        return str(ei.value), ei.value.parked

    generator, blocking = both_paths(run, force)
    assert blocking == generator


# --------------------------------------------------------------------- #
# Teardown robustness
# --------------------------------------------------------------------- #
def test_teardown_survives_thread_start_failure(monkeypatch):
    """If a compat thread never starts, teardown must not handshake
    against it forever."""
    real_start = threading.Thread.start
    started = []

    def failing_start(self):
        if self.name.startswith("simproc-") and len(started) >= 2:
            raise RuntimeError("out of threads")
        started.append(self.name)
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", failing_start)
    eng = Engine(4)
    eng.spawn_all(lambda proc: proc.sync())
    with pytest.raises(RuntimeError, match="out of threads"):
        eng.run()  # must raise promptly, not hang in teardown


@pytest.mark.parametrize("force", MODES)
def test_teardown_after_proc_failure(force):
    """A raising proc unwinds the other (parked and running) contexts,
    identically on both paths."""

    def main(proc):
        if proc.rank == 0:
            proc.compute(1e-6)
            yield from proc.co_sync()
            raise ValueError("boom")
        if proc.rank == 1:
            yield from proc.co_park(where="forever")
        while True:
            proc.compute(1e-6)
            yield from proc.co_sync()

    def run():
        eng = Engine(3)
        eng.spawn_all(main)
        with pytest.raises(ValueError, match="boom"):
            eng.run()
        assert all(p.finished for p in eng.procs)
        return eng.events, [p.now for p in eng.procs]

    generator, blocking = both_paths(run, force)
    assert blocking == generator


def test_teardown_is_idempotent_after_success():
    eng = Engine(2)
    eng.spawn_all(lambda proc: proc.rank)
    result = eng.run()
    assert result.returns == [0, 1]
    eng._teardown()  # second teardown must be a no-op


class _CountingExplorer:
    """Minimal exploring strategy: picks the engine-default candidate."""

    explores = True

    def __init__(self):
        self.chooses = 0

    def begin(self, engine):
        pass

    def choose(self, candidates):
        self.chooses += 1
        return 0

    def delay(self, proc, site):
        return 0.0

    def on_park(self, proc, where):
        pass


def test_explores_disables_sync_elision():
    """An exploring strategy must see every sync as a decision point:
    the engine turns elision off so no handoff is skipped."""

    def main(proc):
        for _ in range(5):
            proc.advance(1e-6 * (proc.rank + 1))
            yield from proc.co_sync()

    plain = Engine(2)
    plain.spawn_all(main)
    plain.run()
    assert plain._elide is True  # default path keeps eliding

    strat = _CountingExplorer()
    eng = Engine(2, strategy=strat)
    eng.spawn_all(main)
    eng.run()
    assert eng._explores is True
    assert eng._elide is False
    assert strat.chooses > 0
    # Elided events are still counted, so a default-order explorer
    # reproduces the plain run's event count exactly.
    assert eng.events == plain.events


def test_teardown_survives_unstarted_generators():
    """Ranks whose coroutines were never resumed (the generator analogue
    of a thread whose start() failed) must close cleanly, not hang."""

    def main(proc):
        if proc.rank == 0:
            raise RuntimeError("immediate failure")
        yield from proc.co_sleep(1e-6)

    eng = Engine(4)
    eng.spawn_all(main)
    with pytest.raises(RuntimeError, match="immediate failure"):
        eng.run()  # must raise promptly, not hang in teardown
    for proc in eng.procs[1:]:
        assert inspect.getgeneratorstate(proc._coro) == inspect.GEN_CLOSED


def test_teardown_kills_half_finished_generators():
    """Procs suspended mid-generator when another rank fails are unwound
    via SimShutdown thrown at their suspension point."""

    def main(proc):
        if proc.rank == 0:
            yield from proc.co_sleep(1e-6)
            raise ValueError("boom")
        yield from proc.co_park("forever")

    eng = Engine(3)
    eng.spawn_all(main)
    with pytest.raises(ValueError, match="boom"):
        eng.run()
    for proc in eng.procs[1:]:
        assert proc.finished
        assert inspect.getgeneratorstate(proc._coro) == inspect.GEN_CLOSED


def test_coro_kill_runs_user_cleanup():
    """A generator may catch SimShutdown for cleanup; the kill loop keeps
    control until it actually finishes."""
    cleaned = []

    def main(proc):
        if proc.rank == 0:
            yield from proc.co_sleep(1e-6)
            raise ValueError("boom")
        try:
            yield from proc.co_park("parked-for-shutdown")
        except SimShutdown:
            cleaned.append(proc.rank)
            raise

    eng = Engine(2)
    eng.spawn_all(main)
    with pytest.raises(ValueError, match="boom"):
        eng.run()
    assert cleaned == [1]
    assert eng.procs[1].finished


# --------------------------------------------------------------------- #
# Wake-delay validation (strategy-injected delays)
# --------------------------------------------------------------------- #
class _BadDelay:
    """Strategy stub injecting an invalid delay at one site."""

    explores = False

    def __init__(self, site, value):
        self.site = site
        self.value = value

    def begin(self, engine):
        self.engine = engine

    def choose(self, candidates):
        return 0

    def delay(self, proc, site):
        return self.value if site == self.site else 0.0

    def on_park(self, proc, where):
        pass


@pytest.mark.parametrize("value", [float("nan"), -10.0])
def test_wake_rejects_invalid_injected_delay(value):
    def main(proc):
        if proc.rank == 0:
            payload = proc.park(where="wait")
            return payload
        proc.advance(1e-6)
        proc.sync()
        proc.engine.wake(proc.engine.procs[0], proc.now, "hi")

    eng = Engine(2, strategy=_BadDelay("wake", value))
    eng.spawn_all(main)
    with pytest.raises(ValueError, match="site 'wake'"):
        eng.run()


@pytest.mark.parametrize("value", [float("nan"), -10.0])
def test_sync_rejects_invalid_injected_delay(value):
    def main(proc):
        proc.sync()

    eng = Engine(2, strategy=_BadDelay("sync", value))
    eng.spawn_all(main)
    with pytest.raises(ValueError, match="site 'sync'"):
        eng.run()


def test_wake_valid_delay_still_applies():
    class Delay(_BadDelay):
        def delay(self, proc, site):
            return 5e-6 if site == "wake" else 0.0

    def main(proc):
        if proc.rank == 0:
            proc.park(where="wait")
            return proc.now
        proc.advance(1e-6)
        proc.sync()
        proc.engine.wake(proc.engine.procs[0], proc.now)

    eng = Engine(2, strategy=Delay("wake", 0.0))
    eng.spawn_all(main)
    result = eng.run()
    assert result.returns[0] == pytest.approx(6e-6)
