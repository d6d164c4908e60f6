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

    def test_sharded_fleet(self, capsys):
        # README's horizontal-scale step; nothing else reaches it.
        rc = main(["simulate", "--scheme", "ab", "--shards", "2",
                   "--levels", "9", "--requests", "200", "--warmup", "50"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Sharded simulation (fleet of 2)" in out
        assert "Per-shard results" in out

    @pytest.mark.parametrize("flags", [
        ["--bench", "nosuch"],
        ["--bench", "nosuch", "--shards", "2"],
        ["--requests", "0"],
        ["--pipeline-depth", "0"],
        ["--metrics-every", "-1"],
        ["--warmup", "100", "--requests", "100"],
        ["--warmup", "100", "--requests", "100", "--shards", "2"],
        ["--pipeline-depth", "4", "--shards", "2"],
        ["--levels", "1"],
        ["--levels", "1", "--shards", "2"],
    ], ids=["bench", "bench-sharded", "requests", "pipeline-depth",
            "metrics-every", "warmup", "warmup-sharded",
            "pipeline-depth-sharded", "levels", "levels-sharded"])
    def test_bad_input_is_a_clean_error(self, capsys, flags):
        rc = main(["simulate", "--levels", "6", "--requests", "50",
                   "--warmup", "0", *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

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

    def test_unknown_benchmark_is_a_clean_error(self, capsys):
        rc = main(["sweep", "--benchmarks", "mcf", "nope", "--levels", "6"])
        assert rc == 2
        assert "unknown spec benchmark(s) nope" in capsys.readouterr().err

    def test_warmup_past_the_trace_is_a_clean_error(self, capsys):
        rc = main(["sweep", "--benchmarks", "mcf", "--levels", "6",
                   "--requests", "100", "--warmup", "100"])
        assert rc == 2
        assert "--warmup (100) must be below" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--benchmarks", "mcf", "--levels", "1"],
        ["space", "--levels", "0"],
    ], ids=["sweep", "space"])
    def test_too_few_levels_is_a_clean_error(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --levels ") and err.count("\n") == 1


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

    def test_resume_refuses_a_sealed_checkpoint_of_the_old_tag_format(
            self, capsys, tmp_path):
        """A sealed format-8 file pickles the same objects, but its tags
        are HMAC-SHA256; a format-9 file's sealed store and engine have
        the attributes of before their inline slot tables, a format-10
        file's layout its table under the old name, a format-11
        file's bucket store numpy tables where flat ones are indexed,
        a format-12 file's controller a bare generator where a
        ``Draws`` is drawn from, and a format-13 file's allocator numpy
        host tables where a flat list is indexed: one error line and exit 2 for each,
        not a MAC failure or a missing attribute after the resume."""
        import pickle

        ck = tmp_path / "ck.pkl"
        assert main(["simulate", "--scheme", "ring", "--levels", "7",
                     "--requests", "40", "--warmup", "0", "--integrity",
                     "--checkpoint", str(ck),
                     "--checkpoint-every", "20"]) == 0
        payload = pickle.loads(ck.read_bytes())
        assert payload["simulation"].datastore is not None
        capsys.readouterr()
        for fmt in (8, 9, 10, 11, 12, 13):
            payload["format"] = fmt
            ck.write_bytes(pickle.dumps(payload))
            assert main(["simulate", "--resume", str(ck)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert f"unsupported checkpoint format {fmt} (expected 14)" in err

    @pytest.mark.parametrize("kind", ["garbage", "missing", "directory"])
    def test_resume_rejects_garbage(self, capsys, tmp_path, kind):
        """Bytes that are not a checkpoint, no file at all, or a
        directory: one error line and exit 2, never a traceback."""
        bad = tmp_path / "bad.pkl"
        if kind == "garbage":
            bad.write_bytes(b"not a checkpoint")
        elif kind == "directory":
            bad.mkdir()
        rc = main(["simulate", "--resume", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert ("not a simulation checkpoint" if kind == "garbage"
                else "cannot read checkpoint") in err


class TestFaultsCli:
    def test_smoke_campaign_with_detection_gate(self, capsys, tmp_path):
        out = tmp_path / "BENCH_faults.json"
        rc = main(["faults", "run", "--smoke", "--levels", "7",
                   "--requests", "80", "--rates", "0.02", "--out", str(out),
                   "--require-detection"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "detection check: all tampering faults detected" in text
        assert out.exists()

    def test_run_sugar_inserted(self, capsys, tmp_path):
        out = tmp_path / "BENCH_faults.json"
        rc = main(["faults", "--smoke", "--levels", "7", "--requests", "60",
                   "--rates", "0.02", "--out", str(out)])
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
                   "--requests", "80", "--rates", "0.02", "--no-integrity",
                   "--out", str(out),
                   "--require-detection"])
        assert rc == 1
        assert "DETECTION GAP" in capsys.readouterr().out


class TestHarnessFlags:
    @pytest.mark.parametrize("argv,flag", [
        (["serve", "chaos", "--shards", "0"], "--shards"),
        (["serve", "chaos", "--shards", "-2"], "--shards"),
        (["serve", "scaling", "--workers", "0"], "--workers"),
        (["faults", "run", "--workers", "-1"], "--workers"),
    ])
    def test_out_of_range_is_refused_before_running(
        self, capsys, tmp_path, argv, flag
    ):
        out = tmp_path / "report.json"
        assert main(argv + ["--smoke", "--out", str(out)]) == 2
        assert f"error: {flag} must be >= 1" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("command", [["telemetry", "view"]])
    @pytest.mark.parametrize("record", ["3", "[1]"])
    def test_non_object_record_errors(self, capsys, tmp_path, command,
                                      record):
        stream = tmp_path / "stream.jsonl"
        stream.write_text('{"type": "meta"}\n' + record + "\n")
        assert main(command + [str(stream)]) == 2
        err = capsys.readouterr().err
        assert f"{stream}:2: record is not a JSON object" in err

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
