"""Unit tests for the discrete-event engine: ordering, determinism, failures."""

from __future__ import annotations

import heapq
import types

import pytest

import repro.sim.engine as engine_mod
from repro.sim.engine import Engine, SchedulingStrategy, run_spmd
from repro.sim.machines import heterogeneous_cluster, uniform_cluster
from repro.util.errors import SimDeadlockError, SimLimitError


def test_single_proc_runs_and_returns():
    result = run_spmd(1, lambda proc: proc.rank * 10 + 7)
    assert result.returns == [7]
    assert result.elapsed == 0.0


def test_returns_in_rank_order():
    result = run_spmd(5, lambda proc: proc.rank)
    assert result.returns == [0, 1, 2, 3, 4]


def test_advance_accumulates_clock():
    def main(proc):
        proc.advance(1e-6)
        proc.advance(2e-6)
        return proc.now

    result = run_spmd(2, main)
    assert result.returns == pytest.approx([3e-6, 3e-6])
    assert result.elapsed == pytest.approx(3e-6)


def test_advance_negative_rejected():
    def main(proc):
        proc.advance(-1.0)

    with pytest.raises(ValueError):
        run_spmd(1, main)


def test_compute_scales_with_heterogeneous_factors():
    def main(proc):
        proc.compute(10e-6)
        return proc.now

    machine = heterogeneous_cluster(4)
    result = run_spmd(4, main, machine=machine)
    # even ranks are Opteron (factor 1.0), odd ranks Xeon (~1.505x slower)
    assert result.returns[0] == pytest.approx(10e-6)
    assert result.returns[1] == pytest.approx(10e-6 * 0.4753 / 0.3158)
    assert result.returns[2] == result.returns[0]


def test_shared_state_ordered_by_virtual_time():
    order = []

    def main(proc):
        proc.advance((proc.nprocs - proc.rank) * 1e-6)  # rank 3 earliest
        proc.sync()
        order.append(proc.rank)

    run_spmd(4, main)
    assert order == [3, 2, 1, 0]


def test_equal_times_tiebreak_deterministic():
    orders = []
    for _ in range(3):
        order = []

        def main(proc):
            proc.advance(5e-6)
            proc.sync()
            order.append(proc.rank)

        run_spmd(6, main)
        orders.append(tuple(order))
    assert len(set(orders)) == 1, "same program must give the same interleaving"


def test_rng_streams_differ_per_rank_and_reproduce():
    def main(proc):
        return tuple(proc.rng.integers(0, 1000, size=3).tolist())

    a = run_spmd(3, main, seed=42).returns
    b = run_spmd(3, main, seed=42).returns
    c = run_spmd(3, main, seed=43).returns
    assert a == b
    assert len({*a}) == 3, "ranks must have independent streams"
    assert a != c


def test_exception_in_process_propagates():
    def main(proc):
        if proc.rank == 2:
            raise ValueError("boom on rank 2")
        proc.sleep(1e-3)

    with pytest.raises(ValueError, match="boom on rank 2"):
        run_spmd(4, main)


def test_deadlock_detected_with_blocked_ranks_reported():
    def main(proc):
        if proc.rank == 1:
            proc.park("waiting forever")

    with pytest.raises(SimDeadlockError, match="rank 1.*waiting forever"):
        run_spmd(2, main)


def test_deadlock_names_every_parked_process():
    """The structured ``parked`` attribute lists every stuck rank with its
    blocking site, in rank order — what the model checker keys replay on."""

    def main(proc):
        if proc.rank == 0:
            proc.compute(1e-6)
            return
        proc.park(f"stuck-{proc.rank}")

    with pytest.raises(SimDeadlockError) as info:
        run_spmd(3, main)
    assert info.value.parked == [(1, "stuck-1"), (2, "stuck-2")]
    assert "rank 1" in str(info.value) and "rank 2" in str(info.value)


def test_max_events_limit():
    def main(proc):
        while True:
            proc.sleep(1e-9)

    with pytest.raises(SimLimitError, match="max_events"):
        run_spmd(1, main, max_events=100)


def test_max_time_limit():
    def main(proc):
        while True:
            proc.sleep(1.0)

    with pytest.raises(SimLimitError, match="max_time"):
        run_spmd(1, main, max_time=5.0)


def test_wake_carries_payload():
    def main(proc):
        if proc.rank == 0:
            return proc.park("wait for gift")
        proc.advance(3e-6)
        proc.sync()
        proc.engine.wake(proc.engine.procs[0], proc.now, payload="gift")
        return None

    result = run_spmd(2, main)
    assert result.returns[0] == "gift"


def test_woken_proc_clock_advanced_to_wake_time():
    def main(proc):
        if proc.rank == 0:
            proc.park("wait")
            return proc.now
        proc.advance(7e-6)
        proc.sync()
        proc.engine.wake(proc.engine.procs[0], proc.now)
        return None

    result = run_spmd(2, main)
    assert result.returns[0] == pytest.approx(7e-6)


def test_engine_run_only_once():
    eng = Engine(1)
    eng.spawn_all(lambda proc: None)
    eng.run()
    with pytest.raises(RuntimeError):
        eng.run()


def test_spawn_per_rank_mains():
    eng = Engine(2)
    eng.spawn(0, lambda proc: "a")
    eng.spawn(1, lambda proc: "b")
    assert eng.run().returns == ["a", "b"]


def test_missing_main_rejected():
    eng = Engine(2)
    eng.spawn(0, lambda proc: None)
    with pytest.raises(RuntimeError, match="rank 1"):
        eng.run()


def test_nprocs_validation():
    with pytest.raises(ValueError):
        Engine(0)


def test_finish_times_per_rank():
    def main(proc):
        proc.sleep((proc.rank + 1) * 1e-6)

    result = run_spmd(3, main)
    assert result.finish_times == pytest.approx([1e-6, 2e-6, 3e-6])
    assert result.elapsed == pytest.approx(3e-6)


def test_machine_default_is_uniform_cluster():
    eng = Engine(4)
    assert eng.machine.name == uniform_cluster(4).name


def test_engine_keeps_shared_instance_dict_keys():
    """CPython 3.11 stops sharing instance-dict keys past 29 attributes,
    which slows every attribute read on the per-event path; an engine
    must stay within that after a run."""
    eng = Engine(2)
    eng.spawn_all(lambda proc: proc.sync())
    eng.run()
    assert len(vars(eng)) <= 29


# --------------------------------------------------------------------- #
# Exploring decision point: one pending entry per rank
# --------------------------------------------------------------------- #
class _CandidateRecorder(SchedulingStrategy):
    """Exploring strategy that keeps the default order and records every
    candidate list it is offered (and which ranks had finished)."""

    explores = True

    def __init__(self):
        self.offers = []

    def choose(self, candidates):
        finished = [p.rank for p in self.engine.procs if p.finished]
        self.offers.append((list(candidates), finished))
        return 0


def _park_then_wake(wake_time):
    def main(proc):
        if proc.rank == 0:
            payload = yield from proc.co_park_until(5e-6, where="poll")
            return (payload, proc.now)
        proc.compute(1e-6)
        yield from proc.co_sync()
        proc.engine.wake(proc.engine.procs[0], wake_time, "posted")
        proc.compute(10e-6)
        yield from proc.co_sync()
        return proc.now

    return main


@pytest.mark.parametrize("wake_time", [2e-6, 8e-6], ids=["earlier", "later"])
def test_parked_rank_offers_its_earlier_entry(wake_time):
    """park_until(5us) then a wake at ``wake_time``: the rank's one
    candidate is whichever entry is earlier, and it resumes with the
    wake payload exactly as the heap-ordered run does."""
    main = _park_then_wake(wake_time)
    plain = run_spmd(2, main)
    strat = _CandidateRecorder()
    explored = run_spmd(2, main, strategy=strat)
    assert explored.returns == plain.returns
    assert explored.returns[0] == ("posted", min(5e-6, wake_time))
    offered = [c for cands, _ in strat.offers for c in cands if c[2] == 0]
    assert offered[-1][0] == min(5e-6, wake_time)
    # No rank is ever offered twice in one decision.
    for cands, _ in strat.offers:
        ranks = [c[2] for c in cands]
        assert len(ranks) == len(set(ranks))


def test_finished_rank_never_offered():
    def main(proc):
        for _ in range(3 * proc.rank):
            proc.compute(1e-6)
            yield from proc.co_sync()
        return proc.rank

    strat = _CandidateRecorder()
    eng = Engine(3, strategy=strat)
    eng.spawn_all(main)
    eng.run()
    assert any(finished for _, finished in strat.offers)
    for cands, finished in strat.offers:
        assert not {c[2] for c in cands} & set(finished)
    assert eng._live == [None, None, None]


@pytest.mark.parametrize("explores", [False, True], ids=["plain", "exploring"])
def test_all_parked_deadlock_unchanged(explores):
    def main(proc):
        proc.compute(1e-6 * (proc.rank + 1))
        yield from proc.co_sync()
        yield from proc.co_park(f"stuck-{proc.rank}")

    strategy = _CandidateRecorder() if explores else None
    with pytest.raises(SimDeadlockError) as info:
        run_spmd(2, main, strategy=strategy)
    assert info.value.parked == [(0, "stuck-0"), (1, "stuck-1")]
    assert str(info.value) == (
        "no runnable process; 2 still active: "
        "rank 0 at 'stuck-0' (t=1.000us), rank 1 at 'stuck-1' (t=2.000us)"
    )


def test_exploring_run_never_touches_the_heap(monkeypatch):
    """The exploring decision point is O(nprocs): no heap push or pop."""
    calls = {"heappush": 0, "heappop": 0}

    def counting(name):
        real = getattr(heapq, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    monkeypatch.setattr(
        engine_mod, "heapq",
        types.SimpleNamespace(heappush=counting("heappush"), heappop=counting("heappop")),
    )

    def main(proc):
        for i in range(5):
            proc.compute(1e-6 * ((proc.rank + i) % 3 + 1))
            yield from proc.co_sync()
        yield from proc.co_park_until(proc.now + 1e-6, where="tick")

    run_spmd(3, main)
    assert calls["heappush"] > 0  # the counter sees the plain path
    calls.update(heappush=0, heappop=0)
    strat = _CandidateRecorder()
    run_spmd(3, main, strategy=strat)
    assert strat.offers
    assert calls == {"heappush": 0, "heappop": 0}
