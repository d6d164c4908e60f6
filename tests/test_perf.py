"""Tests for the perf harness (repro.perf): schema, compare, determinism."""

import copy
import json

import pytest

from repro.cli import main as cli_main
from repro.perf import (
    SCHEMA_VERSION,
    compare_reports,
    run_perf,
    smoke_config,
    validate_report,
)
from repro.report import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_REGRESSION,
    compare_files,
)
from repro.perf.schema import PERF, render_report
from repro.perf.runner import PerfConfig


def tiny_config(**overrides):
    """A sub-second matrix for tests: one scheme, one trace."""
    base = dict(
        schemes=("ring",),
        benchmarks=("mcf",),
        levels=8,
        n_requests=150,
        warmup_requests=30,
    )
    base.update(overrides)
    return smoke_config(**base)


@pytest.fixture(scope="module")
def tiny_report():
    return run_perf(tiny_config())


class TestSchema:
    def test_harness_output_validates(self, tiny_report):
        assert validate_report(tiny_report) == []

    def test_json_round_trip(self, tiny_report):
        loaded = json.loads(json.dumps(tiny_report))
        assert validate_report(loaded) == []
        assert loaded == tiny_report

    def test_rejects_wrong_kind(self, tiny_report):
        doc = copy.deepcopy(tiny_report)
        doc["kind"] = "something-else"
        assert any("kind" in e for e in validate_report(doc))

    def test_rejects_wrong_schema_version(self, tiny_report):
        doc = copy.deepcopy(tiny_report)
        doc["schema_version"] = SCHEMA_VERSION + 1
        assert any("schema_version" in e for e in validate_report(doc))

    def test_rejects_missing_cell_field(self, tiny_report):
        doc = copy.deepcopy(tiny_report)
        del doc["cells"][0]["accesses_per_s"]
        assert any("accesses_per_s" in e for e in validate_report(doc))

    def test_rejects_bool_where_int_expected(self, tiny_report):
        doc = copy.deepcopy(tiny_report)
        doc["config"]["levels"] = True
        assert any("levels" in e for e in validate_report(doc))

    def test_rejects_empty_cells(self, tiny_report):
        doc = copy.deepcopy(tiny_report)
        doc["cells"] = []
        assert any("cells" in e for e in validate_report(doc))

    def test_rejects_duplicate_cells(self, tiny_report):
        doc = copy.deepcopy(tiny_report)
        doc["cells"].append(copy.deepcopy(doc["cells"][0]))
        assert any("duplicate" in e for e in validate_report(doc))

    def test_rejects_nonpositive_wall(self, tiny_report):
        doc = copy.deepcopy(tiny_report)
        doc["cells"][0]["wall_s"] = 0.0
        assert any("wall_s" in e for e in validate_report(doc))

    def test_non_dict_root(self):
        assert validate_report([1, 2]) != []

    def test_render_report_mentions_every_cell(self, tiny_report):
        text = render_report(tiny_report)
        for cell in tiny_report["cells"]:
            assert f"{cell['scheme']}/{cell['trace']}" in text


class TestCompare:
    def test_identical_reports_pass(self, tiny_report):
        code, messages = compare_reports(tiny_report, tiny_report)
        assert code == EXIT_OK
        assert all(m.startswith(("OK", "NEW")) for m in messages)

    def test_improvement_passes(self, tiny_report):
        new = copy.deepcopy(tiny_report)
        for cell in new["cells"]:
            cell["accesses_per_s"] *= 2.0
            cell["wall_s"] /= 2.0
        code, messages = compare_reports(tiny_report, new)
        assert code == EXIT_OK
        assert any("+100.0%" in m for m in messages)

    def test_small_drop_within_threshold_passes(self, tiny_report):
        new = copy.deepcopy(tiny_report)
        for cell in new["cells"]:
            cell["accesses_per_s"] *= 0.95
        code, _ = compare_reports(tiny_report, new)
        assert code == EXIT_OK

    def test_regression_beyond_threshold_fails(self, tiny_report):
        new = copy.deepcopy(tiny_report)
        for cell in new["cells"]:
            cell["accesses_per_s"] *= 0.5
        code, messages = compare_reports(tiny_report, new)
        assert code == EXIT_REGRESSION
        assert any(m.startswith("REGRESSION") for m in messages)

    def test_missing_cell_is_an_error(self, tiny_report):
        base = copy.deepcopy(tiny_report)
        extra = copy.deepcopy(base["cells"][0])
        extra["scheme"] = "ab"
        base["cells"].append(extra)
        code, messages = compare_reports(base, tiny_report)
        assert code == EXIT_ERROR
        assert any("missing" in m for m in messages)

    def test_new_only_cell_is_informational(self, tiny_report):
        new = copy.deepcopy(tiny_report)
        extra = copy.deepcopy(new["cells"][0])
        extra["trace"] = "xz"
        new["cells"].append(extra)
        code, messages = compare_reports(tiny_report, new)
        assert code == EXIT_OK
        assert any(m.startswith("NEW") for m in messages)

    def test_sim_drift_is_noted_but_does_not_gate(self, tiny_report):
        new = copy.deepcopy(tiny_report)
        new["cells"][0]["sim"]["stash_peak"] += 1
        code, messages = compare_reports(tiny_report, new)
        assert code == EXIT_OK
        assert any("drifted" in m and "stash_peak" in m for m in messages)

    def test_compare_files(self, tiny_report, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(tiny_report))
        code, _ = compare_files(str(base), str(base))
        assert code == EXIT_OK

    def test_compare_files_invalid_json(self, tiny_report, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(tiny_report))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, messages = compare_files(str(base), str(bad))
        assert code == EXIT_ERROR
        assert any("cannot load" in m for m in messages)

    def test_compare_files_binary_garbage(self, tiny_report, tmp_path):
        """An outright binary file must yield one diagnostic line per
        report, never a traceback (UnicodeDecodeError is a ValueError)."""
        base = tmp_path / "base.json"
        base.write_text(json.dumps(tiny_report))
        bad = tmp_path / "bad.json"
        bad.write_bytes(bytes(range(256)) * 4)
        code, messages = compare_files(str(base), str(bad))
        assert code == EXIT_ERROR
        assert len(messages) == 1
        assert "cannot load" in messages[0]

    def test_compare_files_missing_file(self, tiny_report, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(tiny_report))
        code, messages = compare_files(str(base), str(tmp_path / "no.json"))
        assert code == EXIT_ERROR
        assert any("cannot load" in m for m in messages)

    def test_compare_files_schema_invalid(self, tiny_report, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(tiny_report))
        bad = tmp_path / "bad.json"
        doc = copy.deepcopy(tiny_report)
        doc["cells"] = []
        bad.write_text(json.dumps(doc))
        code, _ = compare_files(str(base), str(bad))
        assert code == EXIT_ERROR


class TestDeterminism:
    def test_back_to_back_runs_have_identical_sim_blocks(self, tiny_report):
        again = run_perf(tiny_config())
        sims_a = [c["sim"] for c in tiny_report["cells"]]
        sims_b = [c["sim"] for c in again["cells"]]
        assert sims_a == sims_b
        assert tiny_report["config"] == again["config"]

    def test_parallel_workers_match_serial(self):
        # Exercises the ProcessPoolExecutor path end-to-end through the
        # harness, with the @s2 cell's shards crossing the pool as jobs
        # of their own; the sim block must be bit-identical to the
        # serial run.
        shards = (("ring", "mcf", 2),)
        serial = run_perf(tiny_config(workers=1, shards=shards))
        parallel = run_perf(tiny_config(workers=2, shards=shards))
        assert [PERF.cell_key(c) for c in serial["cells"]] == \
            ["ring/mcf", "ring/mcf@s2"]
        assert [c["sim"] for c in parallel["cells"]] == \
            [c["sim"] for c in serial["cells"]]

    def test_config_block_matches_request(self):
        cfg = tiny_config(seed=7)
        doc = run_perf(cfg)
        assert doc["config"]["seed"] == 7
        assert doc["config"]["smoke"] is True
        assert doc["config"]["schemes"] == ["ring"]

    @pytest.mark.parametrize("repeats", [0, -3])
    def test_repeats_below_one_rejected(self, repeats, tmp_path, capsys):
        # The config block records the repeats the cells ran, so a
        # value no loop honours is refused up front.
        with pytest.raises(ValueError, match="repeats must be >= 1"):
            smoke_config(repeats=repeats)
        code = cli_main(["perf", "run", "--smoke", "--repeats", str(repeats),
                         "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "repeats must be >= 1" in capsys.readouterr().err

    def test_default_matrix_shape(self):
        cfg = PerfConfig()
        assert cfg.schemes[0] == "ring"
        assert cfg.benchmarks[0] == "mcf"
        assert cfg.smoke is False


class TestCli:
    def test_perf_run_writes_valid_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cli_main([
            "perf", "run", "--smoke", "--out", str(out),
            "--schemes", "ring", "--benchmarks", "mcf",
            "--levels", "8", "--requests", "120", "--warmup", "20",
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert validate_report(doc) == []
        captured = capsys.readouterr()
        assert "ring/mcf" in captured.out

    def test_perf_smoke_sugar_inserts_run(self, tmp_path, capsys):
        # ``repro perf --smoke`` must behave as ``repro perf run --smoke``.
        out = tmp_path / "report.json"
        code = cli_main([
            "perf", "--smoke", "--out", str(out),
            "--schemes", "ring", "--benchmarks", "mcf",
            "--levels", "8", "--requests", "120", "--warmup", "20",
        ])
        assert code == 0
        assert validate_report(json.loads(out.read_text())) == []

    def test_perf_compare_cli_exit_codes(self, tmp_path, capsys):
        doc = run_perf(tiny_config())
        base = tmp_path / "base.json"
        base.write_text(json.dumps(doc))
        worse = copy.deepcopy(doc)
        for cell in worse["cells"]:
            cell["accesses_per_s"] *= 0.5
        new = tmp_path / "new.json"
        new.write_text(json.dumps(worse))

        assert cli_main(["perf", "compare", str(base), str(base)]) == 0
        assert cli_main(["perf", "compare", str(base), str(new)]) == 1
        assert cli_main([
            "perf", "compare", str(base), str(new), "--warn-only",
        ]) == 0
        captured = capsys.readouterr()
        assert "warn-only" in captured.out
