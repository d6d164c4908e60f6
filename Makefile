# Convenience targets for the AB-ORAM reproduction.

PYTEST ?= python -m pytest
PYTHON ?= python

# Make every target work from a bare checkout (no `pip install -e .`):
# src/ layout, so the package root just needs to be importable.
export PYTHONPATH := src:$(PYTHONPATH)

.PHONY: install test bench bench-full figures examples lint loc reach \
	chacha-cutover fingerprint perf-smoke \
	pipeline-smoke faults-smoke telemetry-smoke serve-smoke chaos-smoke \
	shard-smoke obs-smoke readme-smoke determinism e2e-quick ci clean

install:
	pip install -e . || python setup.py develop

test:
	$(PYTEST) tests/

test-output:
	$(PYTEST) tests/ 2>&1 | tee test_output.txt

bench:
	$(PYTEST) benchmarks/ --benchmark-only

bench-output:
	$(PYTEST) benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

# Full-scale sweep (slow): all 17 SPEC benchmarks at a deeper tree.
bench-full:
	REPRO_BENCH_SUITE=all REPRO_BENCH_LEVELS=16 REPRO_BENCH_REQUESTS=2500 \
	  $(PYTEST) benchmarks/ --benchmark-only

figures:
	$(PYTHON) -m repro space
	$(PYTHON) -m repro sweep --schemes baseline dr ns ab

examples:
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f; done

# Uses ruff when installed (what CI runs); falls back to the bundled
# AST-based checker so `make lint` works in a bare environment.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
	  ruff check src tests benchmarks examples tools && \
	  ruff format --check src tests benchmarks examples tools; \
	else \
	  echo "ruff not installed; running tools/lint.py fallback"; \
	  $(PYTHON) tools/lint.py src tests benchmarks examples tools; \
	fi

# The number ROADMAP aim 2 is judged by (CHANGES.md has quoted it since
# PR 12): total lines of src/**/*.py, then per package. Not a gate.
loc:
	@echo "src/ python lines: $$(find src -name '*.py' | xargs cat | wc -l)"
	@for d in src/repro/*/; do \
	  printf '  %-12s %6d\n' "$$(basename $$d)" \
	    "$$(find $$d -name '*.py' | xargs cat | wc -l)"; \
	done
	@printf '  %-12s %6d\n' "(top level)" "$$(cat src/repro/*.py | wc -l)"

# Reach audit (ROADMAP item 8): runs `make -k ci bench examples
# fingerprint chacha-cutover` (bench at a small scale) with every
# interpreter recording function entries, then lists the src/ functions
# nothing entered, the ones only tests/ entered and the single-valued
# settings. The last three lines are the counts; it fails when one rises
# above tools/reach_counts.json.
reach:
	$(PYTHON) tools/reach.py --list

# The measurement behind crypto.chacha.LANE_MIN_BLOCKS: N x {reference,
# wide, lanes} us per call and the break-even (docs/perf.md quotes this
# table). Fails only if the three functions disagree; timings are
# reported, not gated.
chacha-cutover:
	$(PYTHON) tools/chacha_cutover.py

# One SHA-256 per configuration over the ring controller's state after
# a fixed run (result, RNG, slots/status/generation, stash, DeadQ and
# rental counters, observers, Merkle root, recovery counters): the net
# under controller refactors. tests/test_controller_goldens.py holds
# the tree to tests/goldens/controller_state.json (~6 s).
fingerprint:
	$(PYTHON) tools/controller_fingerprint.py

# CI smoke: seconds-scale perf matrix (two workers: also exercises the
# parallel executor) + soft-gated comparison against the committed
# baseline. Scratch reports live under generated/ (gitignored).
perf-smoke:
	$(PYTHON) -m repro perf run --smoke --workers 2 \
	  --out generated/BENCH_perf_new.json
	$(PYTHON) -m repro perf compare \
	  benchmarks/baselines/BENCH_perf_smoke.json \
	  generated/BENCH_perf_new.json --warn-only

# CI pipeline smoke: the transaction-pipelined controller's three
# gates, all hard failures. (1) the smoke matrix's ns/mcf@p4 cell must
# beat its serial twin by >= 1.5x on simulated DRAM-ns with every
# logical sim field identical, and the serial cells must match the
# committed baseline bit for bit (depth 1 untouched by the pipeline).
# (2) a second run over two spawn workers must produce a byte-identical
# deterministic report view. (3) a pipelined traced run must emit a
# schema-valid Perfetto trace (per-lane pipeline tracks included).
pipeline-smoke:
	$(PYTHON) -m repro perf run --smoke \
	  --out generated/BENCH_pipeline.json
	$(PYTHON) tools/check_pipeline.py generated/BENCH_pipeline.json \
	  --baseline benchmarks/baselines/BENCH_perf_smoke.json \
	  --min-speedup 1.5
	$(PYTHON) -m repro perf run --smoke --workers 2 \
	  --out generated/BENCH_pipeline_w2.json
	$(PYTHON) tools/report_determinism.py \
	  generated/BENCH_pipeline.json generated/BENCH_pipeline_w2.json
	$(PYTHON) -m repro simulate --scheme ns --levels 10 --requests 500 \
	  --warmup 100 --pipeline-depth 4 \
	  --trace-out generated/trace_pipeline.json
	$(PYTHON) tools/check_trace.py generated/trace_pipeline.json \
	  --require-kinds readPath evictPath earlyReshuffle
	$(PYTHON) tools/telemetry_overhead.py --max-overhead-pct 10 \
	  --pipeline-depth 4

# CI robustness smoke: fault-injection campaign; fails unless every
# tampering fault (bit flip, replay) was detected. Fully deterministic.
faults-smoke:
	$(PYTHON) -m repro faults run --smoke \
	  --out generated/BENCH_faults.json --require-detection

# CI telemetry smoke: trace an L12 AB cell, validate the Chrome trace
# against the schema checker, and bound the telemetry overhead.
telemetry-smoke:
	$(PYTHON) -m repro simulate --scheme ab --levels 12 --requests 600 \
	  --warmup 0 --trace-out generated/BENCH_trace.json
	$(PYTHON) tools/check_trace.py generated/BENCH_trace.json \
	  --require-kinds readPath evictPath earlyReshuffle
	$(PYTHON) tools/telemetry_overhead.py --max-overhead-pct 10

# CI serving smoke: open-loop workloads through the batching scheduler;
# fails unless batch scheduling beats naive FIFO on oblivious accesses.
# Also writes a per-request Perfetto trace and validates it, then
# soft-compares latency percentiles against the committed baseline.
serve-smoke:
	$(PYTHON) -m repro serve bench --smoke \
	  --out generated/BENCH_serve.json \
	  --trace-out generated/trace_serve.json --require-dedup-win
	$(PYTHON) tools/check_trace.py generated/trace_serve.json \
	  --require-kinds readPath evictPath queue get --min-spans 500
	$(PYTHON) -m repro serve compare \
	  benchmarks/baselines/BENCH_serve_smoke.json \
	  generated/BENCH_serve.json --warn-only

# CI chaos smoke: fault injection under live serving load through the
# resilient loop. Fails unless availability floors hold and every
# tampering fault (bit flip, replay) was detected *while serving*.
# Runs twice -- serial and over two spawn workers -- and requires the
# deterministic report view byte-identical across the two, then
# soft-compares availability/p99-under-fault against the committed
# baseline. The traced cell's timeline (degraded windows, fault
# markers) is schema-checked like the other Perfetto artifacts.
chaos-smoke:
	$(PYTHON) -m repro serve chaos --smoke \
	  --out generated/BENCH_chaos.json \
	  --trace-out generated/trace_chaos.json --require-detection
	$(PYTHON) tools/check_trace.py generated/trace_chaos.json \
	  --require-kinds readPath queue get degraded_enter faults \
	  --min-spans 200
	$(PYTHON) -m repro serve chaos --smoke --workers 2 \
	  --out generated/BENCH_chaos_w2.json --require-detection
	$(PYTHON) tools/report_determinism.py \
	  generated/BENCH_chaos.json generated/BENCH_chaos_w2.json
	$(PYTHON) -m repro serve compare \
	  benchmarks/baselines/BENCH_chaos_smoke.json \
	  generated/BENCH_chaos.json --warn-only

# CI shard smoke: the sharded fleet's capacity curve. Hard gates: the
# shards=4 fleet must clear 3x the single-shard served throughput, and
# the kill-a-shard drill must stay above its availability floor with
# 100% tamper detection and an all-healthy control plane. Runs twice
# -- serial and with one spawn worker per shard -- and requires the
# deterministic report view byte-identical across the two, then
# soft-compares against the committed baseline curve.
shard-smoke:
	$(PYTHON) -m repro serve scaling --smoke \
	  --out generated/BENCH_scaling.json --require-speedup
	$(PYTHON) -m repro serve scaling --smoke --workers 2 \
	  --out generated/BENCH_scaling_w2.json
	$(PYTHON) tools/report_determinism.py \
	  generated/BENCH_scaling.json generated/BENCH_scaling_w2.json
	$(PYTHON) -m repro serve compare \
	  benchmarks/baselines/BENCH_scaling_smoke.json \
	  generated/BENCH_scaling.json --warn-only

# CI observability smoke: the chaos campaign as a 4-shard fleet with
# the full observability plane on -- one merged Perfetto trace
# (per-shard process tracks, router flow events, control/SLO
# timelines), the SLO window JSONL and the per-shard ops stream.
# Gates: the merged trace must pass the flow/process schema checks; a
# --workers 2 rerun must reproduce the deterministic report view AND
# the trace file byte-for-byte; the recorded ops stream must render
# through `telemetry view`; and the observability plane must cost
# <= 10% wall time on the serving loop.
obs-smoke:
	$(PYTHON) -m repro serve chaos --smoke --shards 4 \
	  --out generated/BENCH_chaos_fleet.json \
	  --trace-out generated/trace_fleet.json \
	  --slo-out generated/slo_fleet.jsonl \
	  --ops-out generated/ops_fleet.jsonl --require-detection
	$(PYTHON) tools/check_trace.py generated/trace_fleet.json \
	  --require-kinds route readPath queue get --min-spans 500 \
	  --require-flows 200 \
	  --require-process fleet-router shard-0 shard-1 shard-2 shard-3
	$(PYTHON) -m repro serve chaos --smoke --shards 4 --workers 2 \
	  --out generated/BENCH_chaos_fleet_w2.json \
	  --trace-out generated/trace_fleet_w2.json
	$(PYTHON) tools/report_determinism.py \
	  generated/BENCH_chaos_fleet.json generated/BENCH_chaos_fleet_w2.json
	cmp generated/trace_fleet.json generated/trace_fleet_w2.json
	$(PYTHON) -m repro telemetry view generated/ops_fleet.jsonl > /dev/null
	$(PYTHON) tools/telemetry_overhead.py --serve --max-overhead-pct 10

# The README / EXPERIMENTS.md reproduction steps no other target runs,
# at small scale (~10 s): the space tables, a one-benchmark sweep, a
# traced simulation rendered by `telemetry view`, a sealed checkpointed
# run resumed from its last checkpoint (its result tables must equal
# the uninterrupted run's), a two-shard simulation, the threaded serve
# demo, and a fault campaign without the integrity tree, which must
# fail its detection gate (replays go undetected).
RS := generated/readme
readme-smoke:
	@mkdir -p $(RS)
	$(PYTHON) -m repro space
	$(PYTHON) -m repro sweep --levels 8 --requests 200 --warmup 50 \
	  --benchmarks mcf
	$(PYTHON) -m repro simulate --scheme ab --levels 9 --requests 300 \
	  --warmup 50 --trace-out $(RS)/trace.json
	$(PYTHON) -m repro telemetry view $(RS)/trace.jsonl
	$(PYTHON) -m repro simulate --scheme ring --levels 8 --requests 300 \
	  --warmup 0 --integrity --checkpoint $(RS)/ck.pkl \
	  --checkpoint-every 100 > $(RS)/full.txt
	$(PYTHON) -m repro simulate --resume $(RS)/ck.pkl > $(RS)/resumed.txt
	diff $(RS)/full.txt $(RS)/resumed.txt
	$(PYTHON) -m repro simulate --scheme ab --shards 2 --levels 9 \
	  --requests 300 --warmup 50
	$(PYTHON) -m repro serve demo --clients 2
	! $(PYTHON) -m repro faults run --smoke --no-integrity \
	  --require-detection --out $(RS)/faults_no_integrity.json

# The one determinism check every report harness shares: run the smoke
# matrix serially and over two spawn workers, load both reports through
# the report kernel and require byte-identical deterministic views
# (tools/report_determinism.py; perf, faults, serve, chaos, scaling and
# the 4-shard chaos fleet, whose merged trace must also `cmp` equal).
DET := generated/determinism
determinism:
	@set -e; for h in "perf run" "faults run" "serve bench" "serve chaos" \
	    "serve scaling"; do \
	  out=$(DET)/$$(echo $$h | tr ' ' '_'); \
	  echo "== $$h: serial vs --workers 2"; \
	  $(PYTHON) -m repro $$h --smoke --out $$out.json > /dev/null; \
	  $(PYTHON) -m repro $$h --smoke --workers 2 --out $${out}_w2.json \
	    > /dev/null; \
	  $(PYTHON) tools/report_determinism.py $$out.json $${out}_w2.json; \
	done
	$(PYTHON) -m repro serve chaos --smoke --shards 4 \
	  --out $(DET)/fleet.json --trace-out $(DET)/trace.json > /dev/null
	$(PYTHON) -m repro serve chaos --smoke --shards 4 --workers 2 \
	  --out $(DET)/fleet_w2.json --trace-out $(DET)/trace_w2.json > /dev/null
	$(PYTHON) tools/report_determinism.py $(DET)/fleet.json $(DET)/fleet_w2.json
	cmp $(DET)/trace.json $(DET)/trace_w2.json

# Smoke-sized end-to-end benchmark (~20 s, one interpreter). Run for
# its correctness checks, not its timings: reference-model answers,
# every Merkle path on the sealed workloads, 100% tamper detection on
# serve-chaos, fleet-vs-serial identity. Exits non-zero if one fails.
e2e-quick:
	python3 benchmarks/e2e/run.py --quick

# Mirror of the CI pipeline: lint, tier-1 tests, perf/pipeline/faults/
# telemetry/serve/chaos/shard/observability smoke, the README steps,
# e2e correctness.
ci: lint test perf-smoke pipeline-smoke faults-smoke telemetry-smoke \
	serve-smoke chaos-smoke shard-smoke obs-smoke readme-smoke e2e-quick

# Removes only regenerated artifacts. Committed reference outputs
# (benchmarks/out/, benchmarks/baselines/, BENCH_perf.json) survive.
clean:
	rm -rf benchmarks/generated generated .pytest_cache .ruff_cache
	rm -f BENCH_perf_new.json BENCH_faults.json test_output.txt \
	  bench_output.txt
	find . -name __pycache__ -type d -exec rm -rf {} +
