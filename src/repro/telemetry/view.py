"""Render a telemetry JSONL stream as text summary tables.

The stream format (written by :class:`~repro.telemetry.handle
.Telemetry`) is one JSON object per line: a ``meta`` header, zero or
more ``snapshot`` records, and a trailing ``summary`` with each op's
span count, total and exact quantiles. ``repro telemetry view`` feeds a
stream through :func:`render_stream` for a quick look without firing up
Perfetto.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.analysis.report import render_mapping_table


def load_stream(path: str) -> Dict[str, Any]:
    """Parse one JSONL stream into {meta, snapshots, slo, summary}.

    Handles both the single-run metrics stream and the fleet ops
    stream: ``snapshot`` records may carry a ``shard`` field, and the
    ``slo_window`` / ``slo_alert`` records of
    :func:`~repro.telemetry.slo.slo_windows` collect under ``"slo"``.
    Every problem -- bytes that are not UTF-8, a line that is not a
    JSON object, an unknown record type, a ``shard`` or ``window`` that
    is not an integer -- is a ValueError naming the file and the line.
    """
    meta: Dict[str, Any] = {}
    snapshots: List[Dict[str, Any]] = []
    slo: List[Dict[str, Any]] = []
    summary: Dict[str, Any] = {}
    with open(path, "rb") as f:
        for line_no, raw in enumerate(f, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: not UTF-8: {exc}") from exc
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: not JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise ValueError(
                    f"{path}:{line_no}: record is not a JSON object")
            for field in ("shard", "window"):
                value = record.get(field)
                if field in record and (
                        not isinstance(value, int) or isinstance(value, bool)):
                    raise ValueError(
                        f"{path}:{line_no}: {field} must be an integer, "
                        f"got {value!r}")
            kind = record.get("type")
            if kind == "meta":
                meta = record
            elif kind == "snapshot":
                snapshots.append(record)
            elif kind in ("slo_window", "slo_alert"):
                slo.append(record)
            elif kind == "summary":
                summary = record
            else:
                raise ValueError(
                    f"{path}:{line_no}: unknown record type {kind!r}"
                )
    return {"meta": meta, "snapshots": snapshots, "slo": slo,
            "summary": summary}


def _span_rows(summary: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    for op, entry in summary.get("spans", {}).items():
        count = int(entry["count"])
        total = float(entry["total_ns"])
        rows.append({
            "op": op,
            "spans": count,
            "total_ns": total,
            "mean_ns": total / count if count else 0.0,
            "p50_ns": entry["p50_ns"],
            "p95_ns": entry["p95_ns"],
            "p99_ns": entry["p99_ns"],
        })
    return rows


def _snapshot_rows(snapshots: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    if not snapshots:
        return []
    last = snapshots[-1]
    stash = [s.get("stash_occupancy", 0) for s in snapshots]
    rows = [
        {"metric": "snapshots", "last": len(snapshots), "peak": None},
        {"metric": "access", "last": last.get("access"), "peak": None},
        {"metric": "sim_ns", "last": last.get("ns"), "peak": None},
        {"metric": "stash_occupancy", "last": last.get("stash_occupancy"),
         "peak": max(stash)},
        {"metric": "stash_peak", "last": last.get("stash_peak"), "peak": None},
        {"metric": "rentals_outstanding",
         "last": last.get("rentals_outstanding"),
         "peak": max(s.get("rentals_outstanding", 0) for s in snapshots)},
        {"metric": "reshuffles_total", "last": last.get("reshuffles_total"),
         "peak": None},
        {"metric": "evictions", "last": last.get("evictions"), "peak": None},
    ]
    for lv in sorted(last.get("deadq_depth", {}), key=int):
        depths = [s.get("deadq_depth", {}).get(lv, 0) for s in snapshots]
        rows.append({
            "metric": f"deadq_depth.L{lv}",
            "last": last["deadq_depth"][lv],
            "peak": max(depths),
        })
    dram = last.get("dram")
    if dram:
        busy = dram.get("channel_busy_ns", [])
        rows.append({"metric": "dram.channel_busy_ns",
                     "last": sum(busy), "peak": max(busy) if busy else None})
        rows.append({"metric": "dram.bank_busy_peak_ns",
                     "last": dram.get("bank_busy_peak_ns"), "peak": None})
        rows.append({
            "metric": "dram.queue_depth",
            "last": dram.get("queue_depth_mean"),
            "peak": max(s.get("dram", {}).get("queue_depth_peak", 0)
                        for s in snapshots),
        })
    pipe = last.get("pipeline")
    if pipe:
        rows.append({"metric": "pipeline.depth",
                     "last": pipe.get("depth"), "peak": None})
        rows.append({
            "metric": "pipeline.inflight",
            "last": pipe.get("inflight_mean"),
            "peak": max(s.get("pipeline", {}).get("inflight_peak", 0)
                        for s in snapshots),
        })
        rows.append({"metric": "pipeline.conflict_stalls",
                     "last": pipe.get("conflict_stalls"),
                     "peak": None})
        rows.append({"metric": "pipeline.conflict_stall_ns",
                     "last": pipe.get("conflict_stall_ns"),
                     "peak": None})
        rows.append({"metric": "pipeline.dram_busy_frac",
                     "last": pipe.get("dram_busy_frac"),
                     "peak": max(s.get("pipeline", {}).get("dram_busy_frac", 0.0)
                                 for s in snapshots)})
    return rows


def _fleet_snapshot_rows(
    snapshots: List[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """Per-shard columns for a multi-shard ops stream.

    A fleet stream interleaves every shard's snapshots; summing them
    into one column (what :func:`_snapshot_rows` would effectively do)
    hides exactly the skew a fleet view exists to show, so each shard
    gets its own ``s<k>`` column, one metric per row.
    """
    by_shard: Dict[int, List[Dict[str, Any]]] = {}
    for snap in snapshots:
        by_shard.setdefault(int(snap["shard"]), []).append(snap)
    shards = sorted(by_shard)
    metrics = (
        ("state", "state", None),
        ("queue_depth", "queue (peak)", max),
        ("stash_occupancy", "stash (peak)", max),
        ("deadq_depth", "deadq (peak)", max),
        ("journal_depth", "journal (peak)", max),
        ("requests", "requests", None),
        ("throughput_rps", "last_krps", None),
        ("p99_ns", "last_p99_us", None),
    )
    rows: List[Dict[str, Any]] = []
    for key, label, agg in metrics:
        row: Dict[str, Any] = {"metric": label}
        seen = False
        for shard in shards:
            stream = by_shard[shard]
            last = stream[-1].get(key)
            if last is None:
                continue
            seen = True
            if key == "throughput_rps":
                row[f"s{shard}"] = f"{last / 1e3:.1f}"
            elif key == "p99_ns":
                row[f"s{shard}"] = f"{last / 1e3:.1f}"
            elif agg is not None:
                peak = agg(s.get(key, 0) for s in stream)
                row[f"s{shard}"] = f"{last} ({peak})"
            else:
                row[f"s{shard}"] = last
        if seen:
            rows.append(row)
    return rows


def _slo_window_rows(slo: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """One summary row per cell over its SLO windows.

    Alerts are the exceptional signal; the window summary is what shows
    a *healthy* run's windows -- requests served, budget burned (or
    not) -- so the view never renders an SLO stream as nothing but its
    meta header.
    """
    by_cell: Dict[Any, List[Dict[str, Any]]] = {}
    for record in slo:
        if record.get("type") == "slo_window":
            by_cell.setdefault(record.get("cell", "-"), []).append(record)
    rows: List[Dict[str, Any]] = []
    for cell, windows in by_cell.items():
        burns: Dict[str, float] = {}
        for w in windows:
            for rule, burn in w.get("burn", {}).items():
                burns[rule] = max(burns.get(rule, 0.0), float(burn))
        worst = max(burns.items(), key=lambda kv: kv[1]) if burns else None
        rows.append({
            "cell": cell,
            "windows": len(windows),
            "requests": sum(int(w.get("requests", 0)) for w in windows),
            "min_avail": min(float(w.get("availability", 1.0))
                             for w in windows),
            "max_p99_us": max(float(w.get("p99_ns", 0.0))
                              for w in windows) / 1e3,
            "worst_burn": (f"{worst[1]:.3g}x {worst[0]}"
                           if worst else "-"),
        })
    return rows


def _slo_rows(slo: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    for record in slo:
        if record.get("type") != "slo_alert":
            continue
        rows.append({
            "rule": record.get("rule"),
            "cell": record.get("cell", "-"),
            "window": record.get("window"),
            "value": record.get("value"),
            "threshold": record.get("threshold"),
            "burn": record.get("burn"),
        })
    return rows


def render_stream(path: str) -> str:
    """The ``repro telemetry view`` text report for one JSONL stream."""
    stream = load_stream(path)
    parts: List[str] = []
    meta = {k: v for k, v in stream["meta"].items() if k != "type"}
    if meta:
        parts.append(render_mapping_table([meta], title=f"Telemetry: {path}"))
    span_rows = _span_rows(stream["summary"])
    if span_rows:
        parts.append(render_mapping_table(
            span_rows, title="Operation spans (DRAM-model ns)"))
    fleet = [s for s in stream["snapshots"] if "shard" in s]
    if fleet:
        cells = []
        for snap in fleet:
            cell = snap.get("cell")
            if cell not in cells:
                cells.append(cell)
        for cell in cells:
            subset = [s for s in fleet if s.get("cell") == cell]
            rows = _fleet_snapshot_rows(subset)
            if rows:
                title = ("Fleet snapshots (last / peak), per shard"
                         if cell is None else
                         f"Fleet snapshots: {cell} (last / peak), per shard")
                parts.append(render_mapping_table(rows, title=title))
    snap_rows = _snapshot_rows(
        [s for s in stream["snapshots"] if "shard" not in s]
    )
    if snap_rows:
        parts.append(render_mapping_table(
            snap_rows, title="State snapshots (last / peak over stream)"))
    window_rows = _slo_window_rows(stream.get("slo", []))
    if window_rows:
        parts.append(render_mapping_table(
            window_rows, title="SLO windows (per cell, worst over stream)"))
    slo_rows = _slo_rows(stream.get("slo", []))
    if slo_rows:
        parts.append(render_mapping_table(
            slo_rows, title="SLO alerts (error-budget burn)"))
    if not parts:
        return f"{path}: empty telemetry stream"
    return "\n\n".join(parts)
