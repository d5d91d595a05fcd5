"""Exploration is locked bit-for-bit: a committed digest of every decision.

Every check scenario runs under the ``random``, ``pct`` and ``delay``
strategies for a fixed list of seeds.  The decisions each schedule made,
its event count, whether it failed (and how), and every rank's final
virtual clock are hashed into one sha256.  Any change to the engine's
decision point or to a strategy that alters a single candidate list,
pick, delay or clock changes the digest.

To recompute the digest on another checkout (for example the parent of
an engine change), run from the repository root::

    PYTHONPATH=src python tests/test_check_exploration_digest.py
"""

from __future__ import annotations

import hashlib
import json

from repro.check.runner import run_once
from repro.check.scenarios import SCENARIOS, make_scenario
from repro.check.strategies import make_strategy

STRATEGY_NAMES = ("random", "pct", "delay")
SEEDS = range(20)

#: ``exploration_digest()`` computed on the engine whose exploring
#: decision point scanned the event heap; the per-rank slots that
#: replaced that scan must reproduce it bit for bit.
EXPECTED_DIGEST = "00906a9d49286afadcf257a257cffd6bb143c675d787c500cc99e573e96e15b0"


def schedule_record(target: str, strategy_name: str, seed: int) -> list:
    """One schedule's decisions, events, failure and final clocks."""
    engines = []
    outcome = run_once(
        make_scenario(target),
        make_strategy(strategy_name, seed=seed),
        engine_seed=seed,
        engine_hook=engines.append,
    )
    (engine,) = engines
    return [
        target,
        strategy_name,
        seed,
        outcome.decisions,
        outcome.events,
        outcome.failed,
        outcome.signature_json,
        [p.now.hex() for p in engine.procs],
    ]


def exploration_digest(seeds=SEEDS) -> str:
    """sha256 over every scenario x strategy x seed schedule record."""
    h = hashlib.sha256()
    for target in sorted(SCENARIOS):
        for name in STRATEGY_NAMES:
            for seed in seeds:
                record = schedule_record(target, name, seed)
                h.update(json.dumps(record, sort_keys=True).encode())
                h.update(b"\n")
    return h.hexdigest()


def test_exploration_matches_committed_digest():
    assert exploration_digest() == EXPECTED_DIGEST


if __name__ == "__main__":
    print(exploration_digest())
