"""Optional structured event tracing for simulations.

Attach a :class:`Tracer` to an engine to record timestamped events from
any layer (queue operations, steals, termination tokens, lock grants),
then render a per-rank timeline or export the raw records.  The tracer
is a subscriber of the engine's probe stream (:mod:`repro.sim.probe`):
it maps the task, steal, lock and termination-token probes to
:class:`TraceEvent` records and ignores the rest.  Tracing is off unless
attached, costs nothing when off, and does not perturb virtual time —
it is an observer, not a participant.

This module historically lived at ``repro.sim.tracing``; it moved
into the unified observability package so spans, metrics, and events
share one home.  The old import path (and its one-release deprecation
shim) is gone.

Example::

    eng = Engine(4)
    tracer = Tracer.attach(eng)
    ...
    eng.spawn_all(main)
    eng.run()
    print(tracer.render(limit=50))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.sim import probe

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine, Proc

__all__ = ["Tracer", "TraceEvent", "trace"]


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event."""

    time: float
    rank: int
    kind: str
    detail: Any = None


class Tracer:
    """Engine-wide event recorder."""

    _KEY = "tracer"

    def __init__(self, engine: "Engine", capacity: int = 1_000_000) -> None:
        self.engine = engine
        self.capacity = capacity
        self.events: list[TraceEvent] = []
        self.dropped = 0

    @classmethod
    def attach(cls, engine: "Engine", capacity: int = 1_000_000) -> "Tracer":
        """Enable tracing on ``engine`` (idempotent)."""
        inst = engine.state.get(cls._KEY)
        if inst is None:
            inst = cls(engine, capacity)
            engine.state[cls._KEY] = inst
            engine.probes.append(inst._handlers())
        return inst

    def _handlers(self) -> dict:
        """This tracer's probe table: probe kind -> record writer."""
        rec = self.record

        def uids(tasks) -> tuple:
            return tuple(t.uid for t in tasks)

        return {
            probe.TASK_ADD: lambda proc, uid: rec(proc, "task-add", uid),
            probe.Q_PUSH: lambda proc, owner, uid, share=None: rec(
                proc, "q-push", (owner, uid)),
            probe.Q_POP: lambda proc, owner, uid: rec(proc, "q-pop", (owner, uid)),
            probe.TASK_EXEC: lambda proc, uid: rec(proc, "task-exec", uid),
            probe.Q_ABSORB: lambda proc, owner, tasks, share=None: rec(
                proc, "q-absorb", (owner, uids(tasks))),
            probe.Q_ADD_REMOTE: lambda proc, owner, uid, share: rec(
                proc, "q-add-remote", (owner, uid)),
            probe.STEAL_TRANSFER: lambda proc, victim, taken: rec(
                proc, "q-steal", (victim, uids(taken))),
            probe.STEAL: lambda proc, victim, n, share: rec(
                proc, "steal", f"{n} tasks from rank {victim}"),
            probe.STEAL_WF: lambda proc, victim, n, share: rec(
                proc, "steal-wf", f"{n} tasks from rank {victim}"),
            probe.LOCK_GRANT: lambda proc, mutex, contended: rec(
                proc, "mutex-acq", mutex.name),
            probe.LOCK_RELEASE: lambda proc, mutex: rec(proc, "mutex-rel", mutex.name),
            probe.TD_SEND: lambda proc, dest, token: rec(
                proc, "td-msg", f"{token} -> rank {dest}"),
            probe.TD_DONE: lambda proc, wave: rec(proc, "td-done", wave),
            probe.TRACE: rec,
        }

    @classmethod
    def of(cls, engine: "Engine") -> "Tracer | None":
        """The engine's tracer, or None if tracing is off."""
        return engine.state.get(cls._KEY)

    def record(self, proc: "Proc", kind: str, detail: Any = None) -> None:
        """Record an event at the process's current virtual time.

        Events past ``capacity`` are counted in :attr:`dropped` (and
        reported by :meth:`render`) rather than silently discarded.
        """
        if len(self.events) >= self.capacity:
            self.dropped += 1
            return
        self.events.append(TraceEvent(proc.now, proc.rank, kind, detail))

    # ------------------------------------------------------------------ #
    # Queries and rendering
    # ------------------------------------------------------------------ #
    def by_kind(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def by_rank(self, rank: int) -> list[TraceEvent]:
        return [e for e in self.events if e.rank == rank]

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def render(self, limit: int | None = None, kinds: set[str] | None = None) -> str:
        """Render events (time-ordered) as an aligned text timeline."""
        events = sorted(self.events, key=lambda e: (e.time, e.rank))
        if kinds is not None:
            events = [e for e in events if e.kind in kinds]
        if limit is not None:
            events = events[:limit]
        lines = [f"{'time(us)':>10}  {'rank':>4}  {'event':<18}  detail"]
        for e in events:
            detail = "" if e.detail is None else str(e.detail)
            lines.append(f"{e.time * 1e6:10.3f}  {e.rank:4d}  {e.kind:<18}  {detail}")
        if self.dropped:
            lines.append(f"... {self.dropped} events dropped (capacity {self.capacity})")
        return "\n".join(lines)


def trace(proc: "Proc", kind: str, detail: Any = None) -> None:
    """Emit a user-defined event as a ``TRACE`` probe (no-op unobserved).

    An attached :class:`Tracer` records it as ``kind`` with ``detail``.
    """
    probe.emit(proc, probe.TRACE, kind, detail)
