"""Trajectory differ: compare two benchmark/metrics JSON documents.

The repo commits reference trajectories — ``BENCH_sim.json`` (virtual
time, schema ``repro-bench/1``), ``BENCH_wall.json`` (wall clock,
``repro-bench-wall/1``) — and ``repro.obs run`` writes metrics documents
(``repro-obs-metrics/3``; older metrics schemas are rejected).
``python -m repro.obs diff OLD NEW`` loads two documents of the same
schema, matches their series by stable keys, and reports every relative
change beyond a threshold:

* ``repro-bench/1`` — series matched by ``(experiment, label)``; the
  worst pointwise relative delta decides.  Direction comes from the
  unit/label: times (``us``, ``s``, ``seconds``) regress upward,
  rates (``speedup``, ``throughput``, ``tasks/s``) regress downward,
  anything else is direction-neutral and only *warns* on change.
* ``repro-obs-metrics/3`` — counter totals and histogram count are
  determinism signals (any change warns); histogram mean/p95 and
  gauge min/max regress upward beyond the threshold.  A
  ``windows`` series additionally diffs each metric's *worst window*
  (maximum windowed p95/p99 across the run), with direction inferred
  from the metric name's unit — latency-style metrics regress upward,
  count-style ones only warn.
* ``repro-bench-wall/1`` — entries matched by ``(scenario, nprocs,
  seed)``; ``events`` must be *exactly* equal (the simulated
  schedule is deterministic — a drift here is a bug, not noise) and
  ``best_wall_s`` regresses upward.
* ``repro-bench-fleet/1`` — entries matched by ``jobs``; ``schedules``
  and ``failing_digest`` must be exactly equal (the campaign is
  deterministic for any worker count) and ``schedules_per_sec``
  regresses downward.

The CI perf gate runs this warn-only against the committed baseline;
``--fail-on-regress`` turns regressions into exit code 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["DiffEntry", "DiffReport", "diff_documents", "diff_files", "render_diff"]

#: Relative change below which a delta is considered noise.
DEFAULT_THRESHOLD = 0.10

_LOWER_BETTER_UNITS = {"us", "ms", "s", "sec", "seconds", "ns"}
_HIGHER_BETTER_HINTS = ("speedup", "throughput", "tasks/s", "nodes/s", "per_sec", "/s")


@dataclass(frozen=True)
class DiffEntry:
    """One compared quantity."""

    key: str  #: stable series identifier, e.g. "table1/cluster-measured"
    metric: str  #: which number, e.g. "ys[3]" or "best_wall_s"
    old: float | None
    new: float | None
    rel: float  #: relative delta |new-old| / max(|old|, eps), signed by new-old
    status: str  #: ok | changed | regress | improve | added | removed | mismatch

    def describe(self) -> str:
        if self.status in ("added", "removed"):
            return f"{self.status:>8}  {self.key} [{self.metric}]"
        arrow = f"{self.old:g} -> {self.new:g}"
        return (
            f"{self.status:>8}  {self.key} [{self.metric}]  {arrow}"
            f"  ({self.rel:+.1%})"
        )


@dataclass
class DiffReport:
    """All diff entries plus the derived verdicts."""

    schema: str
    threshold: float
    entries: list[DiffEntry] = field(default_factory=list)

    @property
    def regressions(self) -> list[DiffEntry]:
        return [e for e in self.entries if e.status in ("regress", "mismatch")]

    @property
    def changes(self) -> list[DiffEntry]:
        return [e for e in self.entries if e.status not in ("ok", "improve")]

    @property
    def ok(self) -> bool:
        return not self.regressions


def _rel(old: float, new: float) -> float:
    denom = max(abs(old), 1e-12)
    return (new - old) / denom


def _direction(unit: str | None, label: str) -> str:
    """'down' = lower is better, 'up' = higher is better, 'neutral'."""
    text = f"{unit or ''} {label}".lower()
    if any(h in text for h in _HIGHER_BETTER_HINTS):
        return "up"
    if unit and unit.lower() in _LOWER_BETTER_UNITS:
        return "down"
    return "neutral"


def _classify(rel: float, threshold: float, direction: str) -> str:
    if abs(rel) <= threshold:
        return "ok"
    if direction == "down":
        return "regress" if rel > 0 else "improve"
    if direction == "up":
        return "regress" if rel < 0 else "improve"
    return "changed"


def _compare(
    report: DiffReport,
    key: str,
    metric: str,
    old: float | None,
    new: float | None,
    direction: str = "neutral",
    exact: bool = False,
) -> None:
    if old is None and new is None:
        return
    if old is None:
        report.entries.append(DiffEntry(key, metric, None, new, 0.0, "added"))
        return
    if new is None:
        report.entries.append(DiffEntry(key, metric, old, None, 0.0, "removed"))
        return
    rel = _rel(old, new)
    if exact:
        status = "ok" if new == old else "mismatch"
    else:
        status = _classify(rel, report.threshold, direction)
    report.entries.append(DiffEntry(key, metric, old, new, rel, status))


# ---------------------------------------------------------------------- #
# Per-schema walkers
# ---------------------------------------------------------------------- #
def _diff_bench(report: DiffReport, old: dict, new: dict) -> None:
    def series_map(doc: dict) -> dict[tuple[str, str], dict]:
        out = {}
        for exp in doc.get("experiments", []):
            for s in exp.get("series", []):
                out[(exp["experiment"], s["label"])] = s
        return out

    olds, news = series_map(old), series_map(new)
    for k in sorted(olds.keys() | news.keys()):
        key = f"{k[0]}/{k[1]}"
        o, n = olds.get(k), news.get(k)
        if o is None or n is None:
            _compare(report, key, "series", None if o is None else 0.0,
                     None if n is None else 0.0)
            continue
        direction = _direction(n.get("unit"), k[1])
        oys, nys = o.get("ys", []), n.get("ys", [])
        if len(oys) != len(nys):
            report.entries.append(
                DiffEntry(key, "len(ys)", float(len(oys)), float(len(nys)),
                          _rel(len(oys), len(nys)), "mismatch")
            )
            continue
        # Report only the worst point per series to keep output readable.
        worst = None
        for i, (ov, nv) in enumerate(zip(oys, nys)):
            rel = _rel(ov, nv)
            if worst is None or abs(rel) > abs(worst[1]):
                worst = (i, rel, ov, nv)
        if worst is None:
            continue
        i, rel, ov, nv = worst
        _compare(report, key, f"ys[{i}]", ov, nv, direction)


def _diff_metrics(report: DiffReport, old: dict, new: dict) -> None:
    ocnt = old.get("counters", {}).get("total", {})
    ncnt = new.get("counters", {}).get("total", {})
    for k in sorted(ocnt.keys() | ncnt.keys()):
        _compare(report, f"counter/{k}", "total", ocnt.get(k), ncnt.get(k))
    ohist = old.get("histograms", {})
    nhist = new.get("histograms", {})
    for k in sorted(ohist.keys() | nhist.keys()):
        o, n = ohist.get(k), nhist.get(k)
        if o is None or n is None:
            _compare(report, f"histogram/{k}", "count",
                     None if o is None else o.get("count"),
                     None if n is None else n.get("count"))
            continue
        _compare(report, f"histogram/{k}", "count", o.get("count"), n.get("count"))
        _compare(report, f"histogram/{k}", "mean", o.get("mean"), n.get("mean"), "down")
        _compare(report, f"histogram/{k}", "p95", o.get("p95"), n.get("p95"), "down")
    ogauge = old.get("gauges", {})
    ngauge = new.get("gauges", {})
    for k in sorted(ogauge.keys() | ngauge.keys()):
        o, n = ogauge.get(k, {}), ngauge.get(k, {})
        _compare(report, f"gauge/{k}", "max", o.get("max"), n.get("max"), "down")
    _diff_windows(report, old.get("windows") or {}, new.get("windows") or {})


def _metric_direction(name: str) -> str:
    """Direction for a windowed metric, inferred from its name's unit.

    Latency-style metrics (seconds) regress upward; count-style ones
    (chunk sizes, occupancy) are direction-neutral and only warn.
    """
    text = name.lower()
    if any(h in text for h in ("latency", "wait", "hold", "time", "rtt", "wall")):
        return "down"
    return "neutral"


def _diff_windows(report: DiffReport, old: dict, new: dict) -> None:
    """Compare two rolling-window series (the ``windows`` key).

    Window boundaries are virtual-time-deterministic, but two documents
    may legitimately differ in which windows are non-empty, so series
    are not matched window-by-window.  Instead each metric is reduced to
    its *worst window* — the maximum windowed p95/p99 across the run —
    which is exactly the tail-spike signal the windows exist to expose,
    plus the total windowed count and the number of active windows as
    determinism-style change signals.
    """
    if not old and not new:
        return
    _compare(report, "windows", "interval", old.get("interval"),
             new.get("interval"), exact=True)

    def aggregate(doc: dict) -> dict[str, dict]:
        agg: dict[str, dict] = {}
        for w in doc.get("series", []):
            for name, h in w.get("histograms", {}).items():
                a = agg.setdefault(
                    name, {"count": 0, "windows": 0, "p95": None, "p99": None}
                )
                a["count"] += h.get("count", 0)
                a["windows"] += 1
                for q in ("p95", "p99"):
                    v = h.get(q)
                    if v is not None and (a[q] is None or v > a[q]):
                        a[q] = v
        return agg

    oagg, nagg = aggregate(old), aggregate(new)
    for name in sorted(oagg.keys() | nagg.keys()):
        key = f"windows/{name}"
        o, n = oagg.get(name), nagg.get(name)
        if o is None or n is None:
            _compare(report, key, "count",
                     None if o is None else o["count"],
                     None if n is None else n["count"])
            continue
        direction = _metric_direction(name)
        _compare(report, key, "windows", o["windows"], n["windows"])
        _compare(report, key, "count", o["count"], n["count"])
        _compare(report, key, "worst p95", o["p95"], n["p95"], direction)
        _compare(report, key, "worst p99", o["p99"], n["p99"], direction)


def _diff_wall(report: DiffReport, old: dict, new: dict) -> None:
    def entry_map(doc: dict) -> dict[tuple, dict]:
        return {
            (e["scenario"], e["nprocs"], e["seed"]): e
            for e in doc.get("entries", [])
        }

    olds, news = entry_map(old), entry_map(new)
    for k in sorted(olds.keys() | news.keys()):
        key = f"{k[0]}[np={k[1]},seed={k[2]}]"
        o, n = olds.get(k), news.get(k)
        if o is None or n is None:
            _compare(report, key, "entry", None if o is None else 0.0,
                     None if n is None else 0.0)
            continue
        # The simulated schedule is deterministic: event-count drift is a
        # correctness signal, not perf noise.
        _compare(report, key, "events", o.get("events"), n.get("events"),
                 exact=True)
        _compare(report, key, "best_wall_s", o.get("best_wall_s"),
                 n.get("best_wall_s"), "down")


def _diff_fleet(report: DiffReport, old: dict, new: dict) -> None:
    def entry_map(doc: dict) -> dict[int, dict]:
        return {e["jobs"]: e for e in doc.get("entries", [])}

    olds, news = entry_map(old), entry_map(new)
    for k in sorted(olds.keys() | news.keys()):
        key = f"fleet[jobs={k}]"
        o, n = olds.get(k), news.get(k)
        if o is None or n is None:
            _compare(report, key, "entry", None if o is None else 0.0,
                     None if n is None else 0.0)
            continue
        # The campaign is deterministic: schedule counts and the failing
        # set must match exactly; throughput regresses downward.
        _compare(report, key, "schedules", o.get("schedules"),
                 n.get("schedules"), exact=True)
        _compare(report, key, "schedules_per_sec", o.get("schedules_per_sec"),
                 n.get("schedules_per_sec"), "up")
        od, nd = o.get("failing_digest"), n.get("failing_digest")
        if od != nd:
            report.entries.append(
                DiffEntry(key, "failing_digest", 0.0, 1.0, 0.0, "mismatch")
            )


_WALKERS = {
    "repro-bench/1": _diff_bench,
    "repro-obs-metrics/3": _diff_metrics,
    "repro-bench-wall/1": _diff_wall,
    "repro-bench-fleet/1": _diff_fleet,
}


def diff_documents(
    old: dict, new: dict, threshold: float = DEFAULT_THRESHOLD
) -> DiffReport:
    """Diff two parsed documents; both must carry the same known schema."""
    oschema, nschema = old.get("schema"), new.get("schema")
    for schema in (oschema, nschema):
        if schema not in _WALKERS:
            raise ValueError(
                f"unsupported schema {schema!r}; known: {sorted(_WALKERS)}"
            )
    if oschema != nschema:
        raise ValueError(f"schema mismatch: old={oschema!r} new={nschema!r}")
    report = DiffReport(schema=nschema, threshold=threshold)
    _WALKERS[nschema](report, old, new)
    return report


def diff_files(
    old_path: str | Path, new_path: str | Path,
    threshold: float = DEFAULT_THRESHOLD,
) -> DiffReport:
    """Load two JSON files and diff them."""
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    return diff_documents(old, new, threshold)


def render_diff(report: DiffReport, verbose: bool = False) -> str:
    """Human-readable report; quiet when everything is within threshold."""
    shown = report.entries if verbose else report.changes
    lines = [
        f"diff ({report.schema}, threshold {report.threshold:.0%}): "
        f"{len(report.entries)} compared, {len(report.changes)} changed, "
        f"{len(report.regressions)} regressed"
    ]
    for e in shown:
        lines.append("  " + e.describe())
    if not shown:
        lines.append("  (no changes beyond threshold)")
    return "\n".join(lines)
