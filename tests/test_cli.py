"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["space", "--schemes", "nope"])


class TestSpace:
    def test_prints_paper_ratios(self, capsys):
        assert main(["space", "--levels", "24"]) == 0
        out = capsys.readouterr().out
        assert "0.754" in out   # DR
        assert "0.645" in out   # AB
        assert "0.485" in out   # AB utilization

    def test_small_levels(self, capsys):
        assert main(["space", "--levels", "8",
                     "--schemes", "baseline", "ab"]) == 0
        out = capsys.readouterr().out
        assert "Baseline" in out and "AB" in out


class TestSchemes:
    def test_describes_geometry(self, capsys):
        assert main(["schemes", "--levels", "12", "--schemes", "ab"]) == 0
        out = capsys.readouterr().out
        assert "AB" in out
        assert "sustain" in out


class TestSimulate:
    def test_runs_and_reports(self, capsys):
        rc = main(["simulate", "--scheme", "ab", "--bench", "gcc",
                   "--levels", "9", "--requests", "200",
                   "--warmup", "50", "--check"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Simulation result" in out
        assert "Memory-time breakdown" in out
        assert "readPath" in out

    def test_parsec_suite(self, capsys):
        rc = main(["simulate", "--suite", "parsec", "--bench", "canneal",
                   "--scheme", "dr", "--levels", "9",
                   "--requests", "150", "--warmup", "50"])
        assert rc == 0
        assert "canneal" in capsys.readouterr().out


class TestSweep:
    def test_matrix_shape(self, capsys):
        rc = main(["sweep", "--schemes", "baseline", "ab",
                   "--benchmarks", "gcc", "mcf",
                   "--levels", "9", "--requests", "200", "--warmup", "50"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gcc" in out and "mcf" in out
        assert "normalized to Baseline" in out


class TestSecurity:
    def test_rates_near_1_over_l(self, capsys):
        rc = main(["security", "--levels", "8", "--accesses", "1500"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Guessing attacker" in out
        assert "0.125" in out  # expected_1_over_L column


class TestDoctor:
    def test_paper_schemes_clean(self, capsys):
        rc = main(["doctor", "--levels", "24", "--schemes", "ab", "dr"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "AB (L=24):" in out

    def test_reports_findings(self, capsys):
        main(["doctor", "--levels", "24", "--schemes", "baseline"])
        out = capsys.readouterr().out
        assert "stash-headroom" in out or "no findings" in out


class TestFigures:
    def test_all_figures_render(self, capsys):
        rc = main(["figures", "--levels", "24"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Fig 8a" in out and "Table I" in out and "0.645" in out

    def test_single_figure(self, capsys):
        rc = main(["figures", "--which", "fig13", "--levels", "24"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "L2-S2" in out
        assert "Fig 8a" not in out


class TestSimulateRobustness:
    def test_integrity_flag_reports_events(self, capsys):
        rc = main(["simulate", "--scheme", "ring", "--levels", "7",
                   "--requests", "80", "--warmup", "0", "--integrity"])
        assert rc == 0
        assert "Robustness events" in capsys.readouterr().out

    def test_checkpoint_every_requires_path(self, capsys):
        rc = main(["simulate", "--scheme", "ring", "--levels", "7",
                   "--requests", "40", "--checkpoint-every", "10"])
        assert rc == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_checkpoint_resume_bit_identical(self, capsys, tmp_path):
        ck = str(tmp_path / "ck.pkl")
        args = ["simulate", "--scheme", "ring", "--levels", "7",
                "--requests", "90", "--warmup", "0", "--integrity"]
        assert main(args + ["--checkpoint", ck,
                            "--checkpoint-every", "30"]) == 0
        full = capsys.readouterr().out
        # The last checkpoint sits at request 60; resuming finishes the
        # final 30 requests and must print the identical result tables.
        assert main(["simulate", "--resume", ck]) == 0
        resumed = capsys.readouterr()
        assert resumed.out == full
        assert "resumed" in resumed.err

    def test_resume_rejects_garbage(self, capsys, tmp_path):
        bad = tmp_path / "bad.pkl"
        bad.write_bytes(b"not a checkpoint")
        rc = main(["simulate", "--resume", str(bad)])
        assert rc == 2
        assert "not a simulation checkpoint" in capsys.readouterr().err


class TestFaultsCli:
    def test_smoke_campaign_with_detection_gate(self, capsys, tmp_path):
        out = tmp_path / "BENCH_faults.json"
        rc = main(["faults", "run", "--smoke", "--levels", "7",
                   "--requests", "80", "--kinds", "bit_flip", "replay",
                   "--rates", "0.02", "--out", str(out),
                   "--require-detection"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "detection check: all tampering faults detected" in text
        assert out.exists()

    def test_run_sugar_inserted(self, capsys, tmp_path):
        out = tmp_path / "BENCH_faults.json"
        rc = main(["faults", "--smoke", "--levels", "7", "--requests", "60",
                   "--kinds", "bit_flip", "--rates", "0.02",
                   "--out", str(out)])
        assert rc == 0
        assert "fault campaign (smoke)" in capsys.readouterr().out

    def test_bad_rate_rejected(self, capsys, tmp_path):
        rc = main(["faults", "run", "--smoke", "--rates", "3.0",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_no_integrity_breaks_detection_gate(self, capsys, tmp_path):
        """Replays sail through without the Merkle tree; the CI gate
        must catch that configuration."""
        out = tmp_path / "BENCH_faults.json"
        rc = main(["faults", "run", "--smoke", "--levels", "7",
                   "--requests", "80", "--kinds", "replay",
                   "--rates", "0.02", "--no-integrity", "--out", str(out),
                   "--require-detection"])
        assert rc == 1
        assert "DETECTION GAP" in capsys.readouterr().out


class TestTelemetryCli:
    def _simulate(self, tmp_path, *extra):
        trace_out = str(tmp_path / "trace.json")
        rc = main(["simulate", "--scheme", "ab", "--levels", "9",
                   "--requests", "200", "--warmup", "0",
                   "--trace-out", trace_out, *extra])
        return rc, trace_out

    def test_trace_out_writes_both_files(self, capsys, tmp_path):
        import json
        rc, trace_out = self._simulate(tmp_path)
        assert rc == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "spans" in out and "snapshots" in out
        doc = json.loads(open(trace_out).read())
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"readPath", "evictPath"} <= names
        # The JSONL stream defaults next to the trace file.
        jsonl = trace_out[:-len(".json")] + ".jsonl"
        lines = [json.loads(ln) for ln in open(jsonl)]
        assert lines[0]["type"] == "meta" and lines[0]["scheme"] == "ab"
        assert lines[-1]["type"] == "summary"

    def test_view_renders_stream(self, capsys, tmp_path):
        rc, trace_out = self._simulate(tmp_path)
        assert rc == 0
        capsys.readouterr()
        jsonl = trace_out[:-len(".json")] + ".jsonl"
        assert main(["telemetry", "view", jsonl]) == 0
        out = capsys.readouterr().out
        assert "Operation spans" in out
        assert "readPath" in out

    def test_view_missing_file_errors(self, capsys, tmp_path):
        assert main(["telemetry", "view",
                     str(tmp_path / "missing.jsonl")]) == 2
        assert "error" in capsys.readouterr().err

    def test_telemetry_rejects_checkpointing(self, capsys, tmp_path):
        rc, _ = self._simulate(
            tmp_path, "--checkpoint", str(tmp_path / "c.pkl"),
            "--checkpoint-every", "50")
        assert rc == 2
        assert "cannot be combined" in capsys.readouterr().err

    @pytest.mark.parametrize("harness", ["perf", "faults"])
    def test_sweep_telemetry_flag_is_gone(self, capsys, tmp_path, harness):
        # Report numbers live in cells; sweeps carry no side channel.
        with pytest.raises(SystemExit) as exc:
            main([harness, "run", "--smoke", "--telemetry",
                  "--out", str(tmp_path / "x.json")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --telemetry" in capsys.readouterr().err
