"""Every observer's output is locked: a committed digest per observer.

The tracer, the race detector (with full-trace capture) and the span
recorder are attached together, in two attach orders, to every check
scenario (clean and under each protocol mutation, on the deterministic
schedule and on two random-walk schedules), to a ``uts-tiny`` run and to
small SCF and TCE runs.  Each observer's records are hashed separately:

* ``tracer`` — every event's time, rank, kind and detail;
* ``capture`` — every captured event's kind, rank, idx, seq, time, held
  locks and data;
* ``races`` — every race report, both accesses in full;
* ``recorder`` — every causal edge (id, kind, endpoints, detail), every
  instant, and every span.

Race-report and capture access sites name a source line
(``repro/core/queue.py:343 (_take)``).  Line numbers move whenever an
emitting file is edited, so they are dropped before hashing; the file
and the function stay in the digest.

To recompute the digests on another checkout, run from the repository
root::

    PYTHONPATH=src python tests/test_probe_stream_digest.py
"""

from __future__ import annotations

import hashlib
import itertools
import re

import pytest

import repro.core.task as task_mod
from repro.analyze.race import RaceDetector
from repro.check.mutations import apply_mutation
from repro.check.scenarios import SCENARIOS, make_scenario
from repro.check.strategies import make_strategy
from repro.obs.record import Recorder
from repro.obs.tracing import Tracer
from repro.sim.engine import Engine

MUTATIONS = (None, "unlocked_split", "no_dirty_mark", "late_dirty_mark",
             "fence_elision", "lock_order_inversion")
#: None is the deterministic schedule; integers seed a random walk.
SCHEDULES = (None, 0, 1)
ORDERS = (("tracer", "race", "recorder"), ("recorder", "race", "tracer"))
OBSERVERS = ("tracer", "capture", "races", "recorder")

#: ``observer_digests()`` computed on the tree whose runtime called the
#: tracer, the race-detector hooks and the edge helpers one by one; the
#: probe stream must reproduce each observer's output bit for bit.
EXPECTED = {
    "tracer": "c36a16f9643b208428ad1a581ba5afc6322fe53315321b5256a8560ba07f8632",
    "capture": "ca98794fbc27fc70cf382bc845b92edab76adf1305f5012fc809daf18ace8b4c",
    "races": "cae8f67ffb1ef38b53e04db19ed606d597b8bda8ff942f9f7c6a1071e3782aaf",
    "recorder": "b3d4499f8275fa858b501c81e6d259ec98a3754109218d4020f160b5a7ad4ffe",
}

_LINE = re.compile(r":\d+ \(")


def _site(site: str) -> str:
    return _LINE.sub(" (", site)


def _attach(engine: Engine, order) -> None:
    for name in order:
        if name == "tracer":
            Tracer.attach(engine)
        elif name == "race":
            RaceDetector.attach(engine, capture=True)
        else:
            Recorder.attach(engine)


def _access(a) -> tuple:
    return (a.rank, a.op, a.region, a.time, _site(a.site), a.vc)


def _records(engine: Engine, error: str | None) -> dict[str, list]:
    """Each observer's output of one finished run, as comparable values."""
    tracer = Tracer.of(engine)
    det = RaceDetector.of(engine)
    rec = Recorder.of(engine)
    capture = []
    for e in det.capture.events:
        data = dict(e.data)
        if "site" in data:
            data["site"] = _site(data["site"])
        capture.append((e.kind, e.rank, e.idx, e.seq, e.time, e.held,
                        sorted(data.items(), key=repr)))
    return {
        "tracer": [error] + [(e.time, e.rank, e.kind, e.detail) for e in tracer.events],
        "capture": capture,
        "races": [(r.kind, r.region, _access(r.first), _access(r.second))
                  for r in det.races],
        "recorder": (
            [(e.eid, e.kind, e.src_rank, e.src_time, e.dst_rank, e.dst_time, e.detail)
             for e in rec.edges]
            + [(i.time, i.rank, i.name, i.category, i.detail) for i in rec.instants]
            + [(s.sid, s.rank, s.name, s.category, s.start, s.end, s.depth,
                s.parent, s.detail) for s in rec.spans]
        ),
    }


def _run_scenario(target: str, mutation, schedule, order) -> dict[str, list]:
    task_mod._uid_counter = itertools.count(1)
    scenario = make_scenario(target)
    strategy = None if schedule is None else make_strategy("random", seed=schedule)
    error = None
    with apply_mutation(mutation):
        engine = Engine(scenario.nprocs, seed=schedule or 0,
                        max_events=scenario.max_events, strategy=strategy)
        _attach(engine, order)
        scenario.build(engine)
        try:
            engine.run()
        except Exception as exc:  # noqa: BLE001 - the error is part of the record
            error = f"{type(exc).__name__}: {exc}"
    return _records(engine, error)


def _run_app(app: str, order) -> dict[str, list]:
    task_mod._uid_counter = itertools.count(1)
    engines: list[Engine] = []

    def hook(engine: Engine) -> None:
        engines.append(engine)
        _attach(engine, order)

    if app == "uts-tiny":
        from repro.apps.uts.presets import preset
        from repro.apps.uts.scioto_uts import run_uts_scioto

        run_uts_scioto(4, preset("tiny"), seed=1, engine_hook=hook)
    elif app == "scf":
        from repro.apps.scf.parallel import run_scf_original, run_scf_scioto
        from repro.apps.scf.problem import SCFProblem

        prob = SCFProblem(nblocks=8, blocksize=4, decay=0.9)
        run_scf_scioto(3, prob, iterations=2, seed=0, engine_hook=hook)
        run_scf_original(3, prob, iterations=2, seed=0, engine_hook=hook)
    else:
        from repro.apps.tce.parallel import run_tce_scioto
        from repro.apps.tce.problem import TCEProblem

        run_tce_scioto(3, TCEProblem(nblocks=6, blocksize=8, density=0.4, seed=3),
                       seed=0, engine_hook=hook)
    merged: dict[str, list] = {k: [] for k in OBSERVERS}
    for engine in engines:
        for key, values in _records(engine, None).items():
            merged[key].extend(values)
    return merged


def observer_digests(order=ORDERS[0]) -> dict[str, str]:
    """sha256 per observer over every run, observers attached in ``order``."""
    hashes = {k: hashlib.sha256() for k in OBSERVERS}

    def add(records: dict[str, list]) -> None:
        for key, values in records.items():
            for value in values:
                hashes[key].update(repr(value).encode())
                hashes[key].update(b"\n")

    for target in sorted(SCENARIOS):
        for mutation in MUTATIONS:
            for schedule in SCHEDULES:
                add(_run_scenario(target, mutation, schedule, order))
    for app in ("uts-tiny", "scf", "tce"):
        add(_run_app(app, order))
    return {k: h.hexdigest() for k, h in hashes.items()}


@pytest.mark.parametrize("order", ORDERS, ids=["-".join(o) for o in ORDERS])
def test_each_observer_matches_committed_digest(order):
    assert observer_digests(order) == EXPECTED


if __name__ == "__main__":
    for order in ORDERS:
        print("-".join(order), observer_digests(order))
