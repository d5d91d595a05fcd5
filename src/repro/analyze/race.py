"""Happens-before data-race detection for the simulated PGAS machine.

A :class:`RaceDetector` attaches to an :class:`~repro.sim.engine.Engine`
(like the tracer: ``RaceDetector.attach(engine)``) and subscribes to the
engine's probe stream (:mod:`repro.sim.probe`), mapping each probe to
one of the public methods below.  It observes two kinds of events:

* **Synchronization** — mutex acquire/release, barrier and collective
  completion, one-sided message delivery (post → poll), remote atomics,
  and fences.  Each maintains the vector-clock partial order: a release
  publishes the releaser's clock on the sync object, the matching
  acquire joins it.
* **Shared-region accesses** — reads/writes of ARMCI shared state
  (split-queue descriptors and metadata, termination flags, GA
  patches), announced by ``ACCESS`` probes at the state-touch points in
  ``repro.core`` / ``repro.ga``.

Two accesses to the same region race when they conflict (different
ranks, at least one write) and neither happens-before the other.  This
is the PGAS analogue of a ThreadSanitizer report: it fires on *every*
schedule that executes the unsynchronized code path, not only on the
schedule where the interleaving actually corrupts state — which is what
makes it deterministic where :mod:`repro.check` is a search.

The model knows three access classes (see ``docs/analyze.md``):

* *plain* — ordinary data; participates fully in race detection.
* *atomic* — target-side serialized operations (GA accumulates); never
  races with other atomics, still races with plain accesses.
* *flags* — termination/steal flags are **synchronization objects**
  (release/acquire cells), not data: stores and loads never race among
  themselves, and a load joins the stored clocks.  A *release* store
  (a thief's dirty mark) must be fence-ordered after the initiator's
  earlier one-sided ops to the same target; a store with unfenced
  pending ops is reported as a race between the flag store and the
  pending op — the pair is unordered at the target, which is exactly
  the §5.3 window the fence closes.
"""

from __future__ import annotations

import os
import sys
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Hashable

from repro.analyze.capture import TraceCapture
from repro.analyze.vectorclock import VectorClock
from repro.sim import probe

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine, Proc

__all__ = ["Access", "Race", "RaceDetector", "RaceGroup", "dedupe_races", "region_class"]

#: Probe-delivery frames skipped when attributing an access to a call site.
_SITE_SKIP = (
    "analyze/race.py",
    "sim/probe.py",
    "armci/runtime.py",
    "sim/resources.py",
)


def _call_site() -> str:
    """The first stack frame outside the detector/runtime plumbing."""
    frame = sys._getframe(1)
    for _ in range(30):
        if frame is None:
            break
        filename = frame.f_code.co_filename.replace(os.sep, "/")
        if not filename.endswith(_SITE_SKIP):
            short = filename.rsplit("src/", 1)[-1] if "src/" in filename else (
                os.path.basename(filename)
            )
            return f"{short}:{frame.f_lineno} ({frame.f_code.co_name})"
        frame = frame.f_back
    return "<unknown>"


@dataclass(frozen=True)
class Access:
    """One recorded shared-region access."""

    rank: int
    op: str  # "r", "w", "rw", "a" (atomic), "fw" (flag store)
    region: Hashable
    time: float
    site: str
    vc: tuple[int, ...]

    @property
    def writes(self) -> bool:
        return self.op != "r"

    def describe(self) -> str:
        kind = {"r": "read", "w": "write", "rw": "update", "a": "atomic",
                "fw": "flag store"}.get(self.op, self.op)
        return (
            f"rank {self.rank} {kind} at t={self.time * 1e6:.3f}us "
            f"vc={list(self.vc)} [{self.site}]"
        )


@dataclass(frozen=True)
class Race:
    """A conflicting, happens-before-unordered access pair."""

    kind: str  # "data-race" or "unfenced-flag-store"
    region: Hashable
    first: Access
    second: Access

    def describe(self) -> str:
        head = f"{self.kind} on {self.region!r}:"
        if self.kind == "unfenced-flag-store":
            head = (
                f"{self.kind} on {self.region!r} (flag store not fence-ordered "
                "after an earlier one-sided op to the same target):"
            )
        return f"{head}\n    {self.first.describe()}\n    {self.second.describe()}"


#: Protocol probes the capture records as ``protocol`` events (the probe
#: kind is the event's ``what``): kind -> names of its positional
#: arguments in the event data.
_PROTOCOL_FIELDS = {
    probe.QUEUE_RELEASE: ("n",),
    probe.STEAL_OWN_LOCK: ("victim",),
    probe.MARK_DECISION: ("victim", "needed", "thief_voted", "wave"),
    probe.VOTE: ("wave", "color"),
    probe.WAVE_START: ("wave",),
    probe.WAVE_DOWN: ("wave",),
    probe.WAVE_COMPLETE: ("wave", "color", "done"),
    probe.TD_SEND: ("dest", "token"),
}


class _Region:
    """Per-region last-access table (one slot per rank and access class)."""

    __slots__ = ("reads", "writes", "atomics")

    def __init__(self) -> None:
        self.reads: dict[int, Access] = {}
        self.writes: dict[int, Access] = {}
        self.atomics: dict[int, Access] = {}


class RaceDetector:
    """Engine-wide vector-clock race detector.

    Attach before :meth:`Engine.run`; read :attr:`races` (or
    :meth:`report`) after the run.  Costs nothing when not attached: it
    is one subscriber of the probe stream, like the tracer.
    """

    _KEY = "race-detector"

    def __init__(self, engine: "Engine", capture: bool = False) -> None:
        self.engine = engine
        #: Full-trace event capture for the predictive passes
        #: (:mod:`repro.analyze.predict`); None keeps the detector lean.
        self.capture: TraceCapture | None = (
            TraceCapture(engine) if capture else None
        )
        n = engine.nprocs
        self.vc = [VectorClock(n) for _ in range(n)]
        for rank in range(n):
            self.vc[rank].tick(rank)
        # sync-object clocks
        self._mutex_clocks: dict[int, VectorClock] = {}  # id(mutex) -> clock
        self._rmw_cells: dict[int, VectorClock] = {}  # target rank -> clock
        self._flag_cells: dict[Hashable, VectorClock] = {}  # flag region -> clock
        self._messages: dict[tuple[int, str], deque[VectorClock]] = {}
        # (initiator, target) -> unfenced one-sided write ops, oldest first
        self._pending: dict[tuple[int, int], list[Access]] = {}
        self._regions: dict[Hashable, _Region] = {}
        self.races: list[Race] = []
        self._seen: set[tuple] = set()
        self.accesses = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @classmethod
    def attach(cls, engine: "Engine", capture: bool = False) -> "RaceDetector":
        """Enable race detection on ``engine`` (idempotent).

        ``capture=True`` additionally records the full event trace
        (see :class:`~repro.analyze.capture.TraceCapture`); asking for
        capture on an already-attached detector upgrades it in place.
        """
        inst = engine.state.get(cls._KEY)
        if inst is None:
            inst = cls(engine, capture=capture)
            engine.state[cls._KEY] = inst
            engine.probes.append(inst._handlers())
        elif capture and inst.capture is None:
            inst.capture = TraceCapture(engine)
        return inst

    def _handlers(self) -> dict:
        """This detector's probe table: probe kind -> public method."""

        def protocol(kind: str, fields: tuple[str, ...]):
            return lambda proc, *args: self.on_protocol(proc, kind, dict(zip(fields, args)))

        table = {kind: protocol(kind, f) for kind, f in _PROTOCOL_FIELDS.items()}
        table.update({
            probe.STEAL_TRANSFER: lambda proc, victim, taken: self.on_protocol(
                proc, probe.STEAL_TRANSFER, {"victim": victim, "n": len(taken)}),
            probe.LOCK_REQUEST: self.on_mutex_request,
            probe.LOCK_GRANT: lambda proc, mutex, contended: self.on_mutex_acquire(
                proc, mutex),
            probe.LOCK_RELEASE: self.on_mutex_release,
            probe.COLLECTIVE: lambda proc, procs: self.on_collective(procs),
            probe.POST: self.on_post,
            probe.POLL: self.on_poll,
            probe.PUT: self.on_put,
            probe.RMW: self.on_rmw,
            probe.RMW_DONE: self.on_rmw_done,
            probe.FENCE: self.on_fence,
            probe.ACCESS: self.record,
            probe.FLAG_WRITE: self.flag_write,
            probe.FLAG_READ: self.flag_read,
        })
        return table

    @classmethod
    def of(cls, engine: "Engine") -> "RaceDetector | None":
        """The engine's detector, or None if detection is off."""
        return engine.state.get(cls._KEY)

    # ------------------------------------------------------------------ #
    # Synchronization edges
    # ------------------------------------------------------------------ #
    def on_mutex_request(self, proc: "Proc", mutex: Any) -> None:
        """A mutex was requested (pre-grant).

        No happens-before effect; feeds the capture's wait-for graph so
        a monitored run can fail fast on a closing lock cycle.
        """
        if self.capture is not None:
            self.capture.on_request(proc, mutex)

    def on_mutex_acquire(self, proc: "Proc", mutex: Any) -> None:
        """Join the mutex's release clock into the new holder (acquire)."""
        clock = self._mutex_clocks.get(id(mutex))
        if clock is not None:
            self.vc[proc.rank].join(clock)
        self.vc[proc.rank].tick(proc.rank)
        if self.capture is not None:
            self.capture.on_acquire(proc, mutex)

    def on_mutex_release(self, proc: "Proc", mutex: Any) -> None:
        """Publish the releaser's clock on the mutex (release)."""
        vc = self.vc[proc.rank]
        self._mutex_clocks[id(mutex)] = vc.copy()
        vc.tick(proc.rank)
        if self.capture is not None:
            self.capture.on_release(proc, mutex)

    def on_collective(self, procs: list["Proc"]) -> None:
        """Barrier/allreduce completion: all participants join everyone.

        A barrier also fences: all pending one-sided ops of the
        participants are ordered by it.
        """
        joined = VectorClock(self.engine.nprocs)
        for p in procs:
            joined.join(self.vc[p.rank])
        for p in procs:
            self.vc[p.rank].join(joined)
            self.vc[p.rank].tick(p.rank)
            self.on_fence(p, None)
        if self.capture is not None:
            self.capture.on_collective(procs)

    def on_post(self, proc: "Proc", target: int, tag: str) -> None:
        """A one-sided message deposit carries the sender's clock."""
        key = (target, tag)
        box = self._messages.get(key)
        if box is None:
            box = self._messages[key] = deque()
        box.append(self.vc[proc.rank].copy())
        self.vc[proc.rank].tick(proc.rank)
        if self.capture is not None:
            self.capture.on_post(proc, target, tag)

    def on_poll(self, proc: "Proc", tag: str) -> None:
        """Receiving a message joins the sender's clock (acquire)."""
        box = self._messages.get((proc.rank, tag))
        if box:
            self.vc[proc.rank].join(box.popleft())
            self.vc[proc.rank].tick(proc.rank)
        if self.capture is not None:
            self.capture.on_poll(proc, tag)

    def on_rmw(self, proc: "Proc", target: int) -> None:
        """Acquire side of a remote atomic: rmw requests serialize at the
        target, so the initiator joins the per-target cell before its
        update function runs."""
        cell = self._rmw_cells.get(target)
        if cell is not None:
            self.vc[proc.rank].join(cell)
        self.vc[proc.rank].tick(proc.rank)
        if self.capture is not None:
            self.capture.on_rmw(proc, target)

    def on_rmw_done(self, proc: "Proc", target: int) -> None:
        """Release side of a remote atomic: publish the initiator's clock
        (including any accesses made inside the update function) on the
        per-target cell so the next rmw there is ordered after them."""
        vc = self.vc[proc.rank]
        self._rmw_cells[target] = vc.copy()
        vc.tick(proc.rank)
        if self.capture is not None:
            self.capture.on_rmw_done(proc, target)

    def on_put(self, proc: "Proc", target: int) -> None:
        """Track an unfenced one-sided write for the §5.3 fence discipline."""
        if target == proc.rank:
            return
        if self.capture is not None:
            self.capture.on_put(proc, target)
        key = (proc.rank, target)
        ops = self._pending.get(key)
        if ops is None:
            ops = self._pending[key] = []
        ops.append(
            Access(
                rank=proc.rank,
                op="w",
                region=("one-sided", proc.rank, target),
                time=proc.now,
                site=_call_site(),
                vc=tuple(self.vc[proc.rank].c),
            )
        )

    def on_fence(self, proc: "Proc", target: int | None) -> None:
        """A fence completes this rank's one-sided ops (to ``target`` or all)."""
        if self.capture is not None:
            self.capture.on_fence(proc, target)
        if target is not None:
            self._pending.pop((proc.rank, target), None)
            return
        for key in [k for k in self._pending if k[0] == proc.rank]:
            del self._pending[key]

    # ------------------------------------------------------------------ #
    # Shared-region accesses
    # ------------------------------------------------------------------ #
    def record(
        self,
        proc: "Proc",
        region: Hashable,
        op: str,
        site: str | None = None,
    ) -> None:
        """Record a shared-region access and check it for races.

        ``op`` is ``"r"``, ``"w"``, ``"rw"`` or ``"a"`` (atomic: races
        with plain accesses but not with other atomics).
        """
        vc = self.vc[proc.rank]
        vc.tick(proc.rank)
        access = Access(
            rank=proc.rank,
            op=op,
            region=region,
            time=proc.now,
            site=site if site is not None else _call_site(),
            vc=tuple(vc.c),
        )
        self.accesses += 1
        if self.capture is not None:
            self.capture.on_access(proc, region, op, access.site)
        entry = self._regions.get(region)
        if entry is None:
            entry = self._regions[region] = _Region()
        # A write conflicts with reads, writes and atomics; a read with
        # writes and atomics; an atomic only with plain reads/writes.
        if op == "a":
            against = (entry.reads, entry.writes)
        elif access.writes:
            against = (entry.reads, entry.writes, entry.atomics)
        else:
            against = (entry.writes, entry.atomics)
        for table in against:
            for rank, prior in table.items():
                if rank == proc.rank:
                    continue
                if not self._ordered(prior, vc):
                    self._report("data-race", region, prior, access)
        if op == "a":
            entry.atomics[proc.rank] = access
        else:
            if access.writes:
                entry.writes[proc.rank] = access
            if op in ("r", "rw"):
                entry.reads[proc.rank] = access

    # ------------------------------------------------------------------ #
    # Flag cells (synchronization objects)
    # ------------------------------------------------------------------ #
    def flag_write(
        self,
        proc: "Proc",
        region: Hashable,
        target: int | None = None,
        release: bool = False,
    ) -> None:
        """A store to a termination/steal flag.

        Flags are sync objects: the store publishes the writer's clock
        on the flag cell.  A *release* store (``release=True``, used for
        remote dirty marks) additionally requires the writer's earlier
        one-sided ops to ``target`` to be fenced; an unfenced pending op
        means the pair is unordered at the target and is reported.
        """
        vc = self.vc[proc.rank]
        if release and target is not None:
            pending = self._pending.get((proc.rank, target))
            if pending:
                store = Access(
                    rank=proc.rank,
                    op="fw",
                    region=region,
                    time=proc.now,
                    site=_call_site(),
                    vc=tuple(vc.c),
                )
                self._report("unfenced-flag-store", region, pending[-1], store)
        cell = self._flag_cells.get(region)
        if cell is None:
            cell = self._flag_cells[region] = VectorClock(self.engine.nprocs)
        cell.join(vc)
        vc.tick(proc.rank)
        if self.capture is not None:
            self.capture.on_flag_write(proc, region, target, release)

    def flag_read(self, proc: "Proc", region: Hashable) -> None:
        """A load of a flag joins the stored clocks (acquire)."""
        cell = self._flag_cells.get(region)
        if cell is not None:
            self.vc[proc.rank].join(cell)
        if self.capture is not None:
            self.capture.on_flag_read(proc, region)

    def on_protocol(self, proc: "Proc", kind: str, data: dict) -> None:
        """A runtime-layer protocol event (steal transfer, vote, wave...).

        No happens-before effect; captured verbatim for the predictive
        passes and for witness-strategy gates.
        """
        if self.capture is not None:
            self.capture.on_protocol(proc, kind, data)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def _ordered(self, prior: Access, current_vc: VectorClock) -> bool:
        """Has ``current_vc`` observed ``prior`` (epoch test)?"""
        return prior.vc[prior.rank] <= current_vc.c[prior.rank]

    def _report(self, kind: str, region: Hashable, first: Access, second: Access) -> None:
        key = (kind, region, first.rank, first.site, second.rank, second.site)
        if key in self._seen:
            return
        self._seen.add(key)
        self.races.append(Race(kind=kind, region=region, first=first, second=second))

    def report(self) -> str:
        """Human-readable summary of every race found."""
        if not self.races:
            return f"no races ({self.accesses} shared accesses checked)"
        lines = [f"{len(self.races)} race(s) in {self.accesses} shared accesses:"]
        for i, race in enumerate(self.races):
            lines.append(f"  #{i + 1} {race.describe()}")
        return "\n".join(lines)


# ---------------------------------------------------------------------- #
# Report deduplication
# ---------------------------------------------------------------------- #
def region_class(region: Hashable) -> tuple:
    """Collapse a region instance to its defect class.

    Region tuples carry instance coordinates (queue owner rank, flag
    owner rank, ...) as integers; one racy code path shows up once per
    instance.  Dropping the integer components groups those instances:
    ``("queue", "chk", 0)`` and ``("queue", "chk", 2)`` are the same
    defect at different owners.  Integer tuples (GA block origins) are
    instance coordinates too.
    """

    def coordinate(x) -> bool:
        return isinstance(x, int) or (
            isinstance(x, tuple) and all(isinstance(y, int) for y in x)
        )

    if isinstance(region, tuple):
        return tuple(x for x in region if not coordinate(x))
    return (region,)


@dataclass(frozen=True)
class RaceGroup:
    """All race instances sharing one (kind, region class, site pair)."""

    kind: str
    region_cls: tuple
    sites: tuple[str, str]
    count: int
    exemplar: Race

    def describe(self) -> str:
        suffix = f"  [x{self.count} instance(s)]" if self.count > 1 else ""
        return f"{self.exemplar.describe()}{suffix}"


def dedupe_races(races: list[Race]) -> list[RaceGroup]:
    """Group race reports by (site pair, region class) with counts.

    The site pair is order-insensitive so A-then-B and B-then-A
    observations of the same unordered pair collapse.  The first
    instance seen is kept as the exemplar; groups preserve first-seen
    order.
    """
    groups: dict[tuple, list[Race]] = {}
    for race in races:
        sites = tuple(sorted((race.first.site, race.second.site)))
        key = (race.kind, region_class(race.region), sites)
        groups.setdefault(key, []).append(race)
    return [
        RaceGroup(
            kind=key[0],
            region_cls=key[1],
            sites=key[2],
            count=len(members),
            exemplar=members[0],
        )
        for key, members in groups.items()
    ]
