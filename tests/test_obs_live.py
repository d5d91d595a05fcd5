"""Live telemetry bus: feed determinism, merging, rendering, fleet wiring.

The bus is an observer: two identical runs produce byte-identical feeds
and attaching it never changes the run fingerprint (the
generator-vs-blocking half of that contract lives in
``tests/test_sim_backends.py``).  These tests also
cover the feed reader's torn-line tolerance, the schema validator, the
parent-side fleet merge, and the flight recorder's latest-frame capture.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.flight import FlightRecorder, load_flight_dump
from repro.obs.live import (
    LIVE_SCHEMA,
    TelemetryBus,
    latest_frames,
    merge_feeds,
    read_feed,
    render_top,
    validate_feed,
)
from repro.obs.scenarios import fingerprint, run_target


def run_with_feed(tmp_path, target="queue", name="feed.jsonl", **kw):
    path = tmp_path / name
    run = run_target(target, record=True, live_path=path, live_interval=50e-6, **kw)
    return run, path


class TestFeedDeterminism:
    def test_two_runs_produce_byte_identical_feeds(self, tmp_path):
        _, a = run_with_feed(tmp_path, name="a.jsonl")
        _, b = run_with_feed(tmp_path, name="b.jsonl")
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes()  # and the feed is non-empty

    def test_bus_does_not_perturb_the_run(self, tmp_path):
        base = fingerprint(run_target("queue", record=True))
        lived, _ = run_with_feed(tmp_path)
        assert fingerprint(lived) == base

    def test_feed_validates_clean(self, tmp_path):
        _, path = run_with_feed(tmp_path)
        doc = read_feed(path)
        assert doc["meta"]["schema"] == LIVE_SCHEMA
        assert doc["frames"]
        assert validate_feed(doc) == []

    def test_frames_cover_disjoint_increasing_windows(self, tmp_path):
        _, path = run_with_feed(tmp_path)
        frames = read_feed(path)["frames"]
        for prev, cur in zip(frames, frames[1:]):
            assert prev["t1"] <= cur["t0"]
            assert prev["seq"] < cur["seq"]

    def test_interval_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            TelemetryBus(tmp_path / "f.jsonl", interval=0.0)


class TestFeedReader:
    def test_torn_trailing_line_is_skipped(self, tmp_path):
        _, path = run_with_feed(tmp_path)
        whole = read_feed(path)
        with path.open("a") as fh:
            fh.write('{"kind": "frame", "label": "torn", "t0"')
        assert len(read_feed(path)["frames"]) == len(whole["frames"])

    def test_missing_meta_rejected(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"kind": "frame", "t0": 0}\n')
        with pytest.raises(ValueError, match="no meta line"):
            read_feed(p)

    def test_wrong_schema_rejected(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"kind": "meta", "schema": "other/9"}\n')
        with pytest.raises(ValueError, match="unsupported"):
            read_feed(p)

    def test_validate_flags_structural_problems(self):
        doc = {
            "meta": {"schema": LIVE_SCHEMA, "interval": 0},
            "frames": [{"label": "x", "seq": 0, "t0": 1.0, "t1": 1.0,
                        "events": 5, "d_events": 5,
                        "histograms": {"h": {"count": 1}}}],
        }
        problems = validate_feed(doc)
        assert any("interval" in p for p in problems)
        assert any("empty window" in p for p in problems)
        assert any("missing 'p50'" in p for p in problems)


class TestMergeAndRender:
    def test_merge_annotates_workers_and_orders_by_time(self, tmp_path):
        _, a = run_with_feed(tmp_path, target="queue", name="a.jsonl")
        _, b = run_with_feed(tmp_path, target="steals", name="b.jsonl")
        out = tmp_path / "merged.jsonl"
        merged = merge_feeds([(0, a), (1, b)], out)
        assert validate_feed(merged) == []
        workers = {f["worker"] for f in merged["frames"]}
        assert workers == {0, 1}
        t1s = [f["t1"] for f in merged["frames"]]
        assert t1s == sorted(t1s)
        # The merged file re-reads identically.
        again = read_feed(out)
        assert again["frames"] == merged["frames"]

    def test_latest_frames_picks_one_per_stream(self, tmp_path):
        _, a = run_with_feed(tmp_path, target="queue", name="a.jsonl")
        _, b = run_with_feed(tmp_path, target="steals", name="b.jsonl")
        merged = merge_feeds([(0, a), (1, b)], tmp_path / "m.jsonl")
        latest = latest_frames(merged)
        assert len(latest) == 2
        for f in latest:
            same = [g for g in merged["frames"]
                    if g["label"] == f["label"] and g["worker"] == f["worker"]]
            assert f["seq"] == max(g["seq"] for g in same)

    def test_render_top_mentions_streams_and_metrics(self, tmp_path):
        _, path = run_with_feed(tmp_path, target="steals")
        text = render_top(read_feed(path))
        assert "steals" in text
        assert "p99" in text
        assert "events=" in text

    def test_render_top_empty_feed(self):
        assert "no frames" in render_top({"meta": {}, "frames": []})


class TestFlightIntegration:
    def test_flight_dump_carries_latest_frame_and_config(self, tmp_path):
        flight = FlightRecorder(tmp_path / "flight.json", per_rank=8)
        run = run_target(
            "queue", record=True, live_path=tmp_path / "f.jsonl",
            live_interval=50e-6, flight=flight,
        )
        assert run.recorder.live.frames_emitted > 0
        flight.dump("test")
        doc = load_flight_dump(tmp_path / "flight.json")
        assert doc["telemetry"]["kind"] == "frame"
        assert doc["telemetry"]["seq"] == run.recorder.live.frames_emitted - 1
        assert doc["config"]["per_rank"] == 8


class TestFleetWiring:
    def test_obs_job_publishes_feed_and_parent_merge_matches(self, tmp_path):
        from repro.fleet.jobs import execute_job, obs_jobs

        jobs = obs_jobs(["queue", "steals"], str(tmp_path), live=True,
                        live_interval=50e-6)
        feeds = []
        for i, job in enumerate(jobs):
            result = execute_job(job, worker=i)
            assert result.ok, result.error
            assert result.payload["live_path"]
            feeds.append((i, result.payload["live_path"]))
        merged = merge_feeds(feeds, tmp_path / "fleet.jsonl")
        assert validate_feed(merged) == []
        assert {f["label"] for f in merged["frames"]} == {"queue", "steals"}

    def test_obs_job_without_live_has_no_feed(self, tmp_path):
        from repro.fleet.jobs import execute_job, obs_jobs

        job = obs_jobs(["queue"], str(tmp_path))[0]
        result = execute_job(job)
        assert result.ok and result.payload["live_path"] is None


class TestCli:
    def test_run_and_top(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        feed = tmp_path / "feed.jsonl"
        assert main(["run", "queue", "--live", str(feed),
                     "--live-interval", "0.00005"]) == 0
        assert main(["top", str(feed)]) == 0
        out = capsys.readouterr().out
        assert "queue" in out and "p99" in out

    def test_top_rejects_non_feed(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        p = tmp_path / "x.jsonl"
        p.write_text(json.dumps({"schema": "nope"}) + "\n")
        assert main(["top", str(p)]) != 0
