"""The committed host-time trajectory, ``BENCH_e2e.json``.

``tools/ab.py --record`` appends one entry per recorded comparison:
both revisions, the workload and seeds, each host metric's median,
quartiles and wins, the median CPU seconds per side and the host line,
and (entries recorded since the tool reports it) the median host
microseconds per ORAM access per side. A ``--moved`` entry is marked
``"moved": true`` and carries each simulated metric's per-side median.
Every committed entry must carry all of it, and what the tool writes
must pass the same check.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "BENCH_e2e.json"


def load_ab():
    spec = importlib.util.spec_from_file_location(
        "tools_ab", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


ab = load_ab()
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
SIMULATED = set(BETTER) - set(ab.HOST_METRICS)


def entry_problems(entry):
    """What a trajectory entry lacks or gets inconsistent; [] if none."""
    problems = []
    for field in ("base", "change"):
        if not (isinstance(entry.get(field), str) and entry[field]):
            problems.append(f"{field}: no revision")
    if entry.get("workload") not in WORKLOADS:
        problems.append(f"workload {entry.get('workload')!r} unknown")
    pairs, seeds = entry.get("pairs"), entry.get("seeds")
    if not (isinstance(pairs, int) and pairs >= 1):
        return problems + [f"pairs {pairs!r}"]
    if not (isinstance(seeds, list) and len(seeds) == 2
            and seeds[1] - seeds[0] + 1 == pairs):
        problems.append(f"seeds {seeds!r} do not span {pairs} pairs")
    metrics = entry.get("metrics", {})
    if set(metrics) != set(ab.HOST_METRICS):
        problems.append(f"metrics {sorted(metrics)}")
    for name, m in metrics.items():
        if m.get("better") != BETTER.get(name):
            problems.append(f"{name}: better {m.get('better')!r}")
        for side in ("base", "change"):
            q = m.get(side, {})
            if not q.get("q1", 0) <= q.get("median", -1) <= q.get("q3", -2):
                problems.append(f"{name} {side}: quartiles {q}")
        if not (isinstance(m.get("wins"), int) and 0 <= m["wins"] <= pairs):
            problems.append(f"{name}: wins {m.get('wins')!r}")
        if not isinstance(m.get("clears_iqr"), bool):
            problems.append(f"{name}: clears_iqr {m.get('clears_iqr')!r}")
        if "median" in m.get("base", {}) and "median" in m.get("change", {}):
            b, c = m["base"]["median"], m["change"]["median"]
            if m.get("delta") != pytest.approx((c - b) / b):
                problems.append(f"{name}: delta {m.get('delta')!r}")
    cpu = entry.get("cpu_s", {})
    if set(cpu) != {"base", "change"} or not all(v > 0 for v in cpu.values()):
        problems.append(f"cpu_s {cpu!r}")
    if "us_per_access" in entry:
        us = entry["us_per_access"]
        if not (isinstance(us, dict) and set(us) == {"base", "change"}
                and all(isinstance(v, float) and v > 0
                        for v in us.values())):
            problems.append(f"us_per_access {us!r}")
    if "moved" in entry or "simulated" in entry:
        sim = entry.get("simulated")
        if not (entry.get("moved") is True and isinstance(sim, dict)
                and set(sim) == SIMULATED
                and all(isinstance(m, dict) and set(m) == {"base", "change"}
                        and all(isinstance(v, (int, float))
                                for v in m.values())
                        for m in sim.values())):
            problems.append(f"moved {entry.get('moved')!r}: simulated {sim!r}")
    host = entry.get("host", {})
    if not (isinstance(host.get("python"), str)
            and isinstance(host.get("cpu_count"), int)
            and isinstance(host.get("platform"), str)):
        problems.append(f"host {host!r}")
    return problems


def test_every_committed_entry_is_complete():
    entries = json.loads(TRAJECTORY.read_text())
    assert isinstance(entries, list) and entries
    for i, entry in enumerate(entries):
        assert entry_problems(entry) == [], (i, entry_problems(entry))


def test_record_appends_what_the_check_accepts(tmp_path, monkeypatch):
    def run(ops, rss):
        return {"metrics": {"setup_s": 0.2, "ops_per_s": ops,
                            "peak_rss_mb": rss, "accesses_per_op": 2.5}}

    runs = {"base": [run(100.0 + i, 180.0) for i in range(4)],
            "change": [run(120.0 + i, 170.0 + i) for i in range(4)]}
    summary = ab.summarize(runs, BETTER)
    assert summary["ops_per_s"]["wins"] == 4
    assert summary["ops_per_s"]["clears_iqr"] is True
    assert summary["peak_rss_mb"]["wins"] == 4
    assert summary["setup_s"]["wins"] == 0
    monkeypatch.setattr(ab, "TRAJECTORY", tmp_path / "BENCH_e2e.json")
    entry = {
        "base": "abc1234", "change": "def5678-dirty", "workload": "fleet-4",
        "pairs": 4, "seeds": [7, 10], "metrics": summary,
        "cpu_s": {"base": 9.5, "change": 8.0},
        "host": {"python": "3.11.7", "cpu_count": 2, "platform": "Linux"},
    }
    ab.record(entry)
    with_us = dict(entry, us_per_access={
        "base": ab.us_per_access(runs["base"][0]),
        "change": ab.us_per_access(runs["change"][0]),
    })
    ab.record(with_us)
    written = json.loads((tmp_path / "BENCH_e2e.json").read_text())
    assert written == [entry, with_us]
    assert entry_problems(written[0]) == []
    assert entry_problems(written[1]) == []
    assert written[1]["us_per_access"]["base"] == pytest.approx(4000.0)
    for bad in ({"base": 1.0}, {"base": 1.0, "change": -2.0}, 3.0):
        assert entry_problems(dict(entry, us_per_access=bad)) == [
            f"us_per_access {bad!r}"]


def test_us_per_access_is_none_without_accesses():
    run = {"metrics": {"ops_per_s": 50.0, "accesses_per_op": 0.0}}
    assert ab.us_per_access(run) is None


def test_a_moved_entry_carries_the_simulated_medians(tmp_path, monkeypatch):
    """``--moved`` records each simulated metric's per-side median and
    marks the entry; the check accepts it and refuses a half-marked
    one."""
    def run(ops, sim_ns):
        metrics = {name: 1.0 for name in BETTER}
        metrics.update(ops_per_s=ops, sim_ns_per_op=sim_ns)
        return {"metrics": metrics}

    runs = {"base": [run(100.0 + i, 900.0) for i in range(3)],
            "change": [run(110.0 + i, 800.0 + i) for i in range(3)]}
    simulated = ab.simulated_medians(runs, sorted(SIMULATED))
    assert simulated["sim_ns_per_op"] == {"base": 900.0, "change": 801.0}
    entry = {
        "base": "abc1234", "change": "def5678", "workload": "serve-sealed",
        "pairs": 3, "seeds": [1, 3], "metrics": ab.summarize(runs, BETTER),
        "cpu_s": {"base": 4.0, "change": 3.9},
        "host": {"python": "3.11.7", "cpu_count": 2, "platform": "Linux"},
        "moved": True, "simulated": simulated,
    }
    monkeypatch.setattr(ab, "TRAJECTORY", tmp_path / "BENCH_e2e.json")
    ab.record(entry)
    (written,) = json.loads((tmp_path / "BENCH_e2e.json").read_text())
    assert entry_problems(written) == []
    for bad in ({"moved": False}, {"simulated": {}},
                {"simulated": dict(simulated, sim_ns_per_op={"base": 1.0})}):
        assert len(entry_problems(dict(entry, **bad))) == 1
    unmarked = {k: v for k, v in entry.items() if k != "moved"}
    assert len(entry_problems(unmarked)) == 1
