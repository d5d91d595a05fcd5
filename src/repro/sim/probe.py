"""The probe stream: one emission per runtime sync event, many observers.

The runtime layers (``repro.core``, ``repro.sim``, ``repro.armci``,
``repro.ga``) announce each synchronization event once, with
:func:`emit`.  Observers — the tracer, the race detector with its
trace capture, and the span recorder's edge/instant side — subscribe by
appending a handler table to ``engine.probes``: a dict from probe kind
to ``fn(proc, *args)``.  Each maps a probe to the records it keeps; a
kind absent from a table costs that subscriber nothing.

With no subscriber ``engine.probes`` is empty and :func:`emit` returns
after one loop test; the hot per-task sites (task add, push, pop, exec)
test ``engine.probes`` themselves and make no call at all.  Probes are
observers: handlers only read ``proc.now`` and their arguments, so a
subscribed run keeps the schedule, virtual time and counters of an
unsubscribed one.

Each kind below is listed with its positional arguments (after
``proc``).  A share key names the queue whose tasks just became
stealable; a steal carries it too, so a subscriber can pair the two.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Proc

__all__ = ["emit"]

# Tasks and the split queue.
TASK_ADD = "task-add"  # uid
Q_PUSH = "q-push"  # owner, uid[, share key: locked-mode push]
Q_POP = "q-pop"  # owner, uid
TASK_EXEC = "task-exec"  # uid
Q_ABSORB = "q-absorb"  # owner, tasks[, share key: locked-mode absorb]
Q_ADD_REMOTE = "q-add-remote"  # owner, uid, share key
QUEUE_RELEASE = "queue-release"  # n, share key
# Steals.
STEAL_TRANSFER = "steal-transfer"  # victim, taken tasks
STEAL = "steal"  # victim, n, share key
STEAL_WF = "steal-wf"  # victim, n, share key (wait-free steal)
STEAL_OWN_LOCK = "steal-own-lock"  # victim
# Locks, mailboxes and one-sided operations.
LOCK_REQUEST = "lock-request"  # mutex
LOCK_GRANT = "lock-grant"  # mutex, contended
LOCK_RELEASE = "lock-release"  # mutex
POST = "post"  # target, tag
POLL = "poll"  # tag
PUT = "put"  # target
RMW = "rmw"  # target
RMW_DONE = "rmw-done"  # target
FENCE = "fence"  # target or None
COLLECTIVE = "collective"  # participating procs
# Shared state and flags.
ACCESS = "access"  # region, op ("r", "w", "rw" or "a" for atomic)
FLAG_WRITE = "flag-write"  # region[, target, release]
FLAG_READ = "flag-read"  # region
# Termination (§5.2-§5.3).
DIRTY_MARK = "dirty-mark"  # victim, needed
MARK_DECISION = "mark-decision"  # victim, needed, thief voted, wave
VOTE = "vote"  # wave, color
WAVE_START = "wave-start"  # wave
WAVE_DOWN = "wave-down"  # wave
WAVE_COMPLETE = "wave-complete"  # wave, color, done
TD_SEND = "td-send"  # dest, token
TD_DONE = "td-done"  # wave
# A user-defined event (the tracer's ``trace()``), and a failed run:
# Engine.run emits FAILURE with proc None before it re-raises.
TRACE = "trace"  # kind, detail
FAILURE = "failure"  # the exception


def emit(proc: "Proc", kind: str, *args: Any) -> None:
    """Deliver probe ``kind`` to every subscriber whose table handles it."""
    for handlers in proc.engine.probes:
        fn = handlers.get(kind)
        if fn is not None:
            fn(proc, *args)
