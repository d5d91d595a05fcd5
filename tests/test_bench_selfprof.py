"""Self-profiler: stack attribution, sampling, and wall-JSON persistence."""

from __future__ import annotations

import json
import sys
import time
from types import SimpleNamespace

import pytest

from repro.bench.perf import PROFILE_MIN_SAMPLES, write_wall_json
from repro.bench.selfprof import (
    SUBSYSTEMS,
    SubsystemProfiler,
    attribute_stack,
    render_attribution,
)


def fake_frame(*filenames):
    """Innermost-first chain of frames with the given co_filename values."""
    frame = None
    for fn in reversed(filenames):
        frame = SimpleNamespace(f_code=SimpleNamespace(co_filename=fn), f_back=frame)
    return frame


class TestAttribution:
    def test_innermost_repro_frame_wins(self):
        f = fake_frame(
            "/x/src/repro/core/queue.py",
            "/x/src/repro/sim/engine.py",
        )
        assert attribute_stack(f) == "queue"

    def test_stdlib_frames_charge_the_calling_subsystem(self):
        f = fake_frame(
            "/usr/lib/python3/bisect.py",
            "/x/src/repro/core/stealing.py",
        )
        assert attribute_stack(f) == "steal"

    def test_heapq_innermost_is_the_heap_bucket(self):
        f = fake_frame(
            "/usr/lib/python3/heapq.py",
            "/x/src/repro/sim/engine.py",
        )
        assert attribute_stack(f) == "heap"

    def test_heapq_deeper_in_the_stack_does_not_claim(self):
        f = fake_frame(
            "/x/src/repro/sim/engine.py",
            "/usr/lib/python3/heapq.py",
        )
        assert attribute_stack(f) == "engine"

    def test_unmatched_repro_frame_lands_in_runtime_other(self):
        assert attribute_stack(fake_frame("/x/src/repro/newthing.py")) == "runtime-other"

    def test_no_repro_frame_is_other(self):
        assert attribute_stack(fake_frame("/usr/lib/python3/threading.py")) == "other"

    def test_every_named_runtime_module_maps(self):
        for name, fragments in SUBSYSTEMS:
            for frag in fragments:
                assert attribute_stack(fake_frame(f"/x/src/{frag}x.py")) == name


class TestProfiler:
    def test_sampling_attributes_a_real_workload(self):
        from repro.obs.scenarios import run_target

        prof = SubsystemProfiler(interval=0.0005).start()
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            run_target("queue", record=False)
        table = prof.stop()
        assert table["samples"] > 0
        assert sum(table["fractions"].values()) == pytest.approx(1.0)
        # Everything in that loop is repro code; "other" may appear only
        # via interpreter housekeeping and must not dominate.
        assert table["named"] >= 0.9

    def test_switch_interval_lowered_while_sampling(self):
        """The GIL must switch at least twice per sampling interval while
        sampling, and the caller's setting must come back after stop()."""
        before = sys.getswitchinterval()
        try:
            sys.setswitchinterval(0.005)
            prof = SubsystemProfiler(interval=0.001).start()
            assert sys.getswitchinterval() == pytest.approx(0.0005)
            prof.stop()
            assert sys.getswitchinterval() == pytest.approx(0.005)
            # A switch interval already below interval/2 is never raised.
            sys.setswitchinterval(0.0001)
            low = sys.getswitchinterval()
            prof = SubsystemProfiler(interval=0.001).start()
            assert sys.getswitchinterval() == low
            prof.stop()
            assert sys.getswitchinterval() == low
        finally:
            sys.setswitchinterval(before)

    def test_stop_without_samples(self):
        table = SubsystemProfiler(interval=10.0).start()
        result = table.stop()
        assert result == {"samples": 0, "fractions": {}, "named": 0}
        assert "(no samples)" in render_attribution(result)

    def test_render_lists_fractions_and_total(self):
        prof = SubsystemProfiler()
        prof.counts.update({"engine": 3, "queue": 1})
        text = render_attribution(prof.table())
        assert "engine" in text and "75.0%" in text
        assert "of 4 samples" in text


class TestWallJsonNotes:
    def test_profile_entries_are_lifted_into_notes(self, tmp_path):
        path = tmp_path / "wall.json"
        entries = [{
            "scenario": "uts-small", "events": 1,
            "best_wall_s": 0.1, "events_per_sec": 10.0,
            "profile": {"samples": PROFILE_MIN_SAMPLES,
                        "fractions": {"engine": 1.0}, "named": 1.0},
        }]
        write_wall_json(entries, path)
        doc = json.loads(path.read_text())
        assert "profile" not in doc["entries"][0]
        assert doc["notes"]["profile"]["uts-small"]["named"] == 1.0

    def test_baselines_and_notes_survive_regeneration(self, tmp_path):
        path = tmp_path / "wall.json"
        entry = {"scenario": "queue", "events": 1,
                 "best_wall_s": 0.1, "events_per_sec": 10.0}
        baseline = {**entry, "backend": "reference"}
        write_wall_json([entry], path,
                        baselines=[baseline],
                        notes={"profile": {"queue": {
                            "samples": PROFILE_MIN_SAMPLES, "named": 1.0}}})
        write_wall_json([entry], path)  # regeneration without either
        doc = json.loads(path.read_text())
        assert doc["baselines"] == [baseline]
        assert doc["notes"]["profile"]["queue"]["named"] == 1.0
