"""Tests for the parallel sweep executor (repro.parallel).

The spawn-crossing task functions live in ``repro.parallel.testing``
(workers import tasks by module path; test-local functions cannot
cross the process boundary). Everything here runs on a tiny scale --
the point is the merge/isolation/progress semantics, not throughput.
"""

import json
import time

import pytest

from repro.faults.campaign import run_campaign
from repro.faults.campaign import smoke_config as faults_smoke_config
from repro.parallel import Cell, CellResult, derive_seed, run_cells
from repro.parallel import testing as ptasks
from repro.perf import compare_reports
from repro.perf.runner import run_perf, smoke_config
from repro.perf.schema import validate_report
from repro.report import EXIT_ERROR


class TestDeriveSeed:
    def test_stable_across_calls(self):
        assert derive_seed(0, "ring/mcf") == derive_seed(0, "ring/mcf")

    def test_distinct_keys_distinct_seeds(self):
        seeds = {derive_seed(0, f"cell-{i}") for i in range(64)}
        assert len(seeds) == 64

    def test_base_seed_matters(self):
        assert derive_seed(0, "x") != derive_seed(1, "x")

    def test_fits_in_nonnegative_int64(self):
        for i in range(32):
            s = derive_seed(i, "k")
            assert 0 <= s < 2**63


class TestRunCells:
    def test_serial_ordered_results(self):
        cells = [Cell(f"c{i}", i) for i in range(5)]
        out = run_cells(ptasks.square_task, cells, workers=1)
        assert [r.value for r in out] == [0, 1, 4, 9, 16]
        assert [r.key for r in out] == [c.key for c in cells]
        assert all(isinstance(r, CellResult) and r.ok for r in out)

    def test_parallel_matches_serial(self):
        cells = [Cell(f"c{i}", i) for i in range(6)]
        serial = run_cells(ptasks.square_task, cells, workers=1)
        par = run_cells(ptasks.square_task, cells, workers=2)
        assert [(r.key, r.ok, r.value) for r in par] == \
            [(r.key, r.ok, r.value) for r in serial]

    def test_seeded_task_is_schedule_independent(self):
        cells = [Cell(f"s{i}", (9, f"s{i}")) for i in range(4)]
        serial = run_cells(ptasks.seeded_task, cells, workers=1)
        par = run_cells(ptasks.seeded_task, cells, workers=2)
        assert [r.value for r in par] == [r.value for r in serial]

    def test_raising_cell_becomes_error_entry(self):
        cells = [Cell("a", "fine"), Cell("b", "boom"), Cell("c", "ok")]
        for workers in (1, 2):
            out = run_cells(ptasks.failing_task, cells, workers=workers)
            assert [r.ok for r in out] == [True, False, True]
            assert "ValueError: requested failure" in out[1].error
            assert out[0].value == "fine" and out[2].value == "ok"

    def test_hard_crash_is_confined_to_its_cell(self):
        # os._exit kills the worker without cleanup -- the pool breaks,
        # and the executor must still finish every other cell and
        # charge the crash to exactly the cell that caused it.
        cells = [Cell("a", 1), Cell("b", "die"), Cell("c", 3), Cell("d", 4)]
        out = run_cells(ptasks.hard_exit_task, cells, workers=2)
        assert [r.key for r in out] == ["a", "b", "c", "d"]
        assert not out[1].ok and "died" in out[1].error
        assert [r.value for r in out if r.ok] == [1, 3, 4]

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            run_cells(ptasks.echo_task, [Cell("x", 1), Cell("x", 2)])

    def test_workers_below_one_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            run_cells(ptasks.echo_task, [Cell("x", 1)], workers=0)

    def test_empty_cells(self):
        assert run_cells(ptasks.echo_task, [], workers=2) == []

    def test_progress_lambda_never_pickled(self):
        # A lambda cannot cross a process boundary; delivery proves the
        # callback stayed in the parent and only queue messages crossed.
        msgs = []
        out = run_cells(
            ptasks.progress_task,
            [Cell(f"p{i}", i) for i in range(4)],
            workers=2,
            progress=lambda m: msgs.append(m),
        )
        assert all(r.ok for r in out)
        deadline = time.monotonic() + 5.0
        while len(msgs) < 4 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert sorted(msgs) == [f"cell {i} running" for i in range(4)]

    def test_progress_in_serial_mode(self):
        msgs = []
        run_cells(
            ptasks.progress_task,
            [Cell(f"p{i}", i) for i in range(3)],
            workers=1,
            progress=msgs.append,
        )
        assert msgs == [f"cell {i} running" for i in range(3)]


def _tiny_perf(**overrides):
    base = dict(
        schemes=("ring",),
        benchmarks=("mcf",),
        levels=8,
        n_requests=150,
        warmup_requests=30,
    )
    base.update(overrides)
    return smoke_config(**base)


class TestPerfHarness:
    def test_failed_cell_becomes_error_entry(self):
        # An unknown scheme raises inside the cell task; the sweep must
        # finish its other cells and record the failure in place.
        doc = run_perf(_tiny_perf(schemes=("ring", "nosuchscheme")))
        assert validate_report(doc) == []
        by_scheme = {c["scheme"]: c for c in doc["cells"]}
        assert "sim" in by_scheme["ring"]
        assert "error" in by_scheme["nosuchscheme"]
        assert "sim" not in by_scheme["nosuchscheme"]

    def test_error_cell_gates_compare_as_error(self):
        good = run_perf(_tiny_perf())
        bad = json.loads(json.dumps(good))
        bad["cells"][0] = {
            "scheme": bad["cells"][0]["scheme"],
            "trace": bad["cells"][0]["trace"],
            "error": "Boom: worker fell over",
        }
        assert validate_report(bad) == []
        code, messages = compare_reports(good, bad)
        assert code == EXIT_ERROR
        assert any("errored" in m for m in messages)


class TestFaultsHarness:
    def test_parallel_campaign_byte_identical(self):
        # The faults report has no wall-clock fields, so the whole JSON
        # document -- not just per-cell stats -- must match exactly.
        cfg = dict(levels=8, n_requests=120, kinds=("bit_flip", "dropped_write"))
        serial = run_campaign(faults_smoke_config(**cfg))
        par = run_campaign(faults_smoke_config(workers=2, **cfg))
        dump = lambda d: json.dumps(d, indent=1, sort_keys=True)  # noqa: E731
        assert dump(serial) == dump(par)
