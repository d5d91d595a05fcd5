"""The machine-readable bench records (``BENCH_sim.json``, ``BENCH_wall.json``)."""

from __future__ import annotations

import json

import pytest

from repro.bench.harness import BENCH_SCHEMA, validate_bench_json, write_bench_json
from repro.bench.perf import (
    WALL_SCHEMA,
    measure_scenario,
    validate_wall_json,
    write_wall_json,
)
from repro.bench.report import per_rank_table
from repro.core.stats import ProcessStats
from repro.util.records import Series, SweepResult


def _sweep():
    s = Series(label="scioto", unit="Mnodes/s")
    s.add(2, 1.5)
    s.add(4, 2.9)
    return SweepResult(experiment="figure7", series=[s], notes=["synthetic"])


def test_write_then_validate_roundtrip(tmp_path):
    path = write_bench_json([(_sweep(), 1.25)], tmp_path / "BENCH_sim.json", "quick")
    doc = json.loads(path.read_text())
    validate_bench_json(doc)  # must not raise
    assert doc["schema"] == BENCH_SCHEMA
    assert doc["scale"] == "quick"
    (exp,) = doc["experiments"]
    assert exp["experiment"] == "figure7"
    assert exp["wall_seconds"] == 1.25
    assert exp["series"][0] == {
        "label": "scioto",
        "unit": "Mnodes/s",
        "xs": [2, 4],
        "ys": [1.5, 2.9],
    }
    assert exp["notes"] == ["synthetic"]


def test_wall_write_refuses_to_overwrite_an_unreadable_record(tmp_path):
    path = tmp_path / "BENCH_wall.json"
    path.write_text('{"schema": "repro-bench-wall/1", "baselines": [')
    with pytest.raises(ValueError, match="BENCH_wall.json: existing record is unreadable"):
        write_wall_json([_wall_entry()], path)
    assert path.read_text().endswith("[")  # left as it was


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        (lambda d: d.update(schema="bogus/9"), "schema"),
        (lambda d: d.update(scale="huge"), "scale"),
        (lambda d: d.update(experiments="nope"), "list"),
        (lambda d: d["experiments"][0].update(experiment=""), "name"),
        (lambda d: d["experiments"][0].update(wall_seconds=-1.0), "wall_seconds"),
        (
            lambda d: d["experiments"][0]["series"][0]["xs"].append(99),
            "lengths differ",
        ),
    ],
)
def test_validate_rejects_malformed_documents(tmp_path, mutation, fragment):
    path = write_bench_json([(_sweep(), 0.5)], tmp_path / "b.json", "quick")
    doc = json.loads(path.read_text())
    mutation(doc)
    with pytest.raises(ValueError, match=fragment):
        validate_bench_json(doc)


def test_bench_cli_writes_record(tmp_path):
    from repro.bench.__main__ import main

    out = tmp_path / "BENCH_sim.json"
    assert main(["--only", "table1", "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    validate_bench_json(doc)
    assert [e["experiment"] for e in doc["experiments"]] == ["table1"]
    assert doc["experiments"][0]["wall_seconds"] > 0


def _wall_entry(**over):
    entry = {
        "scenario": "queue",
        "nprocs": 4,
        "seed": 0,
        "reps": 1,
        "events": 1000,
        "best_wall_s": 0.01,
        "mean_wall_s": 0.012,
        "events_per_sec": 100_000.0,
    }
    entry.update(over)
    return entry


def test_wall_write_then_validate_roundtrip(tmp_path):
    path = write_wall_json([_wall_entry()], tmp_path / "BENCH_wall.json")
    doc = json.loads(path.read_text())
    validate_wall_json(doc)  # must not raise
    assert doc["schema"] == WALL_SCHEMA
    assert doc["entries"][0]["events_per_sec"] == 100_000.0
    assert "python" in doc["host"]


def test_wall_write_preserves_committed_baselines(tmp_path):
    path = tmp_path / "BENCH_wall.json"
    # Committed baselines keep their legacy ``backend`` label verbatim.
    baseline = _wall_entry(backend="seed-thread", events_per_sec=30_000.0)
    write_wall_json([_wall_entry()], path, baselines=[baseline])
    # Regeneration without an explicit baselines argument keeps them.
    write_wall_json([_wall_entry(events_per_sec=90_000.0)], path)
    doc = json.loads(path.read_text())
    assert doc["baselines"] == [baseline]
    assert doc["entries"][0]["events_per_sec"] == 90_000.0


def test_wall_write_refuses_to_overwrite_an_unreadable_record(tmp_path):
    path = tmp_path / "BENCH_wall.json"
    path.write_text('{"schema": "repro-bench-wall/1", "baselines": [')
    with pytest.raises(ValueError, match="BENCH_wall.json: existing record is unreadable"):
        write_wall_json([_wall_entry()], path)
    assert path.read_text().endswith("[")  # left as it was


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        (lambda d: d.update(schema="bogus/9"), "schema"),
        (lambda d: d.update(entries=[]), "non-empty"),
        (lambda d: d["entries"][0].update(scenario=""), "scenario"),
        (lambda d: d["entries"][0].update(events=0), "events"),
        (lambda d: d["entries"][0].update(events_per_sec=0.0), "events_per_sec"),
        (lambda d: d["entries"][0].update(best_wall_s=-1.0), "best_wall_s"),
        (lambda d: d.update(notes={"profile": {"uts-small": {"samples": 99}}}),
         "99 samples, below the floor of 100"),
    ],
)
def test_wall_validate_rejects_malformed_documents(tmp_path, mutation, fragment):
    path = write_wall_json([_wall_entry()], tmp_path / "w.json")
    doc = json.loads(path.read_text())
    mutation(doc)
    with pytest.raises(ValueError, match=fragment):
        validate_wall_json(doc)


def test_wall_measure_scenario_smoke():
    entry = measure_scenario("queue", reps=1)
    assert entry["events"] > 0
    assert entry["events_per_sec"] > 0
    assert entry["best_wall_s"] > 0


def test_wall_perf_cli_writes_record(tmp_path):
    from repro.bench.__main__ import main

    out = tmp_path / "BENCH_wall.json"
    code = main(
        ["perf", "--quick", "--only", "queue", "--json", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    validate_wall_json(doc)
    assert doc["entries"][0]["scenario"] == "queue"
    assert "backend" not in doc["entries"][0]


def test_process_stats_to_dict_includes_derived_fields():
    st = ProcessStats(rank=1, tasks_executed=7, time_total=4.0, time_working=3.0)
    d = st.to_dict()
    assert d["rank"] == 1 and d["tasks_executed"] == 7
    assert d["time_overhead"] == pytest.approx(1.0)
    assert d["efficiency"] == pytest.approx(0.75)
    assert "extra" not in d  # folded into the obs metrics registry


def test_per_rank_table_renders_stats():
    stats = [
        ProcessStats(rank=0, tasks_executed=10, time_total=2.0, time_working=1.0),
        ProcessStats(rank=1, tasks_executed=3, time_total=2.0, time_working=0.5),
    ]
    table = per_rank_table(stats, title="demo")
    assert "demo" in table
    assert "efficiency" in table
    assert "0.500" in table and "0.250" in table
