"""Full-trace event capture for predictive concurrency analysis.

The observed-schedule race detector (:mod:`repro.analyze.race`) keeps
only per-region last-access tables — enough to flag races *in the
executed interleaving*, nothing more.  The predictive passes
(:mod:`repro.analyze.predict`) need the whole story of one run: every
synchronization operation and shared access, in execution order, with
the lockset held at each point.  :class:`TraceCapture` records exactly
that.

A capture rides on the race detector (``RaceDetector.attach(engine,
capture=True)``): the detector subscribes to the engine's probe stream
(:mod:`repro.sim.probe`), and every sync, access and protocol probe it
receives is forwarded here and appended as a :class:`TraceEvent`.
Capture is strictly observational — it performs no ``sync``/``advance``
and draws no randomness, so a captured run is bit-for-bit the run it
observes.

Event kinds
-----------

========================  =============================================
``request``               mutex requested (pre-grant; ``blocking`` names
                          the current holder when the caller will park)
``acquire`` / ``release`` mutex granted / released
``access``                shared-region access (``op`` r/w/rw/a)
``flag-write``            termination/steal flag store (``release``,
                          ``target`` as in the detector)
``flag-read``             flag load (acquire join)
``post`` / ``poll``       mailbox deposit / receive
``fence`` / ``collective``one-sided fence / barrier-allreduce
``rmw`` / ``rmw-done``    remote atomic bracket at ``target``
``put``                   unfenced one-sided write issue
``protocol``              runtime-layer protocol event (steal-transfer,
                          mark-decision, vote, wave-start, wave-down,
                          wave-complete, td-send, queue-release, ...)
========================  =============================================

While a rank sits inside an ``rmw`` bracket its lockset gains the
pseudo-lock ``rmw[target]`` — reservation atomics serialize exactly
like a lock at the target, which is what lets the lockset pass treat
wait-free queues as disciplined.

Deadlock monitor
----------------

The capture also maintains a live wait-for graph over mutexes.  When a
``request`` would close a cycle (the requester transitively waits on a
lock it already holds), :class:`PredictedDeadlockError` is raised at
the moment of the fatal acquire — mutex waiters never time out in this
runtime, so a closed cycle *is* a deadlock; raising early turns a hang
into a replayable failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Hashable

from repro.util.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine, Proc

__all__ = ["TraceEvent", "TraceCapture", "PredictedDeadlockError"]


class PredictedDeadlockError(ReproError):
    """A lock-acquisition cycle closed during a monitored run."""


@dataclass(frozen=True)
class TraceEvent:
    """One captured event of an instrumented run."""

    kind: str
    rank: int
    #: Per-rank local sequence number (program order within the rank).
    idx: int
    #: Global sequence number (execution order across ranks).
    seq: int
    time: float
    #: Names of locks (and rmw pseudo-locks) held by ``rank`` here.
    held: tuple[str, ...]
    data: dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        extras = " ".join(f"{k}={v!r}" for k, v in sorted(self.data.items()))
        return f"[{self.seq}] rank {self.rank}#{self.idx} {self.kind} {extras}"


class TraceCapture:
    """Ordered event log plus live lockset / wait-for bookkeeping."""

    def __init__(self, engine: "Engine", deadlock_monitor: bool = True) -> None:
        self.engine = engine
        self.events: list[TraceEvent] = []
        self.deadlock_monitor = deadlock_monitor
        #: Live observers (witness strategies); called with each event.
        self.listeners: list[Callable[[TraceEvent], None]] = []
        self._local_idx = [0] * engine.nprocs
        self._held: list[list[str]] = [[] for _ in range(engine.nprocs)]
        # wait-for graph state: rank -> mutex name it is blocked on, and
        # mutex name -> rank currently holding it
        self._waiting_on: dict[int, str] = {}
        self._holder_of: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Emission
    # ------------------------------------------------------------------ #
    def emit(self, proc: "Proc", kind: str, data: dict[str, Any]) -> TraceEvent:
        """Append one event (and notify live listeners)."""
        rank = proc.rank
        ev = TraceEvent(
            kind=kind,
            rank=rank,
            idx=self._local_idx[rank],
            seq=len(self.events),
            time=proc.now,
            held=tuple(self._held[rank]),
            data=data,
        )
        self._local_idx[rank] += 1
        self.events.append(ev)
        for fn in self.listeners:
            fn(ev)
        return ev

    def held_by(self, rank: int) -> tuple[str, ...]:
        return tuple(self._held[rank])

    # ------------------------------------------------------------------ #
    # Mutexes and the wait-for graph
    # ------------------------------------------------------------------ #
    def on_request(self, proc: "Proc", mutex: Any) -> None:
        name = mutex.name
        holder = mutex.holder
        blocking = holder.rank if holder is not None else None
        self.emit(
            proc,
            "request",
            {"mutex": name, "host": mutex.host_rank, "blocking": blocking},
        )
        if blocking is None or blocking == proc.rank:
            return
        self._waiting_on[proc.rank] = name
        if self.deadlock_monitor:
            cycle = self._find_cycle(proc.rank)
            if cycle is not None:
                self._waiting_on.pop(proc.rank, None)
                raise PredictedDeadlockError(
                    "lock-order cycle closed: "
                    + " -> ".join(f"rank {r} waits {m}" for r, m in cycle)
                )

    def _find_cycle(self, start: int) -> list[tuple[int, str]] | None:
        """Walk rank-waits-mutex-held-by-rank links from ``start``."""
        chain: list[tuple[int, str]] = []
        rank = start
        for _ in range(self.engine.nprocs + 1):
            name = self._waiting_on.get(rank)
            if name is None:
                return None
            chain.append((rank, name))
            holder = self._holder_of.get(name)
            if holder is None:
                return None
            if holder == start:
                return chain
            rank = holder
        return None  # pragma: no cover - bounded by nprocs

    def on_acquire(self, proc: "Proc", mutex: Any) -> None:
        name = mutex.name
        self._waiting_on.pop(proc.rank, None)
        self._holder_of[name] = proc.rank
        self._held[proc.rank].append(name)
        self.emit(proc, "acquire", {"mutex": name, "host": mutex.host_rank})

    def on_release(self, proc: "Proc", mutex: Any) -> None:
        name = mutex.name
        if name in self._held[proc.rank]:
            self._held[proc.rank].remove(name)
        if self._holder_of.get(name) == proc.rank:
            del self._holder_of[name]
        self.emit(proc, "release", {"mutex": name, "host": mutex.host_rank})

    # ------------------------------------------------------------------ #
    # Accesses, flags, messages, atomics
    # ------------------------------------------------------------------ #
    def on_access(
        self, proc: "Proc", region: Hashable, op: str, site: str
    ) -> None:
        self.emit(proc, "access", {"region": region, "op": op, "site": site})

    def on_flag_write(
        self, proc: "Proc", region: Hashable, target: int | None, release: bool
    ) -> None:
        self.emit(
            proc,
            "flag-write",
            {"region": region, "target": target, "release": release},
        )

    def on_flag_read(self, proc: "Proc", region: Hashable) -> None:
        self.emit(proc, "flag-read", {"region": region})

    def on_post(self, proc: "Proc", target: int, tag: str) -> None:
        self.emit(proc, "post", {"target": target, "tag": tag})

    def on_poll(self, proc: "Proc", tag: str) -> None:
        self.emit(proc, "poll", {"tag": tag})

    def on_fence(self, proc: "Proc", target: int | None) -> None:
        self.emit(proc, "fence", {"target": target})

    def on_collective(self, procs: list["Proc"]) -> None:
        ranks = tuple(sorted(p.rank for p in procs))
        for p in procs:
            self.emit(p, "collective", {"ranks": ranks})

    def on_rmw(self, proc: "Proc", target: int) -> None:
        self.emit(proc, "rmw", {"target": target})
        self._held[proc.rank].append(f"rmw[{target}]")

    def on_rmw_done(self, proc: "Proc", target: int) -> None:
        pseudo = f"rmw[{target}]"
        if pseudo in self._held[proc.rank]:
            self._held[proc.rank].remove(pseudo)
        self.emit(proc, "rmw-done", {"target": target})

    def on_put(self, proc: "Proc", target: int) -> None:
        self.emit(proc, "put", {"target": target})

    def on_protocol(self, proc: "Proc", kind: str, data: dict[str, Any]) -> None:
        self.emit(proc, "protocol", {"what": kind, **data})
