# Convenience targets for the AB-ORAM reproduction.

PYTEST ?= python -m pytest
PYTHON ?= python

# Make every target work from a bare checkout (no `pip install -e .`):
# src/ layout, so the package root just needs to be importable.
export PYTHONPATH := src:$(PYTHONPATH)

.PHONY: install test bench bench-full fidelity figures examples lint loc \
	reach fingerprint perf-smoke \
	pipeline-smoke faults-smoke telemetry-smoke serve-smoke chaos-smoke \
	shard-smoke obs-smoke smoke readme-smoke determinism e2e-quick ci \
	ab workprofile clean FORCE

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

# Figure fidelity: `make bench` at its default scale must reprint every
# committed table under benchmarks/out/ byte for byte (its twin under
# benchmarks/generated/). Run it without REPRO_BENCH_* set.
fidelity: bench
	@set -e; for f in benchmarks/out/*.txt; do \
	  cmp "$$f" "benchmarks/generated/$${f##*/}"; \
	done; echo "fidelity: every benchmarks/out table reprinted"

# Full-scale sweep (slow): all 17 SPEC benchmarks at a deeper tree.
bench-full:
	REPRO_BENCH_SUITE=all REPRO_BENCH_LEVELS=16 REPRO_BENCH_REQUESTS=2500 \
	  $(PYTEST) benchmarks/ --benchmark-only

figures:
	$(PYTHON) -m repro space
	$(PYTHON) -m repro sweep --schemes baseline dr ns ab

examples:
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f; done

# Every gate of CI's lint job (tests/test_ci_mirror.py holds the two to
# each other): ruff when installed, then the bundled AST-based checker,
# which CI also gates on and which is all `make lint` has in a bare
# environment.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
	  ruff check src tests benchmarks examples tools && \
	  ruff format --check src tests benchmarks examples tools; \
	else \
	  echo "ruff not installed; skipping ruff check"; \
	fi
	$(PYTHON) tools/lint.py src tests benchmarks examples tools

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
# fingerprint` (bench at a small scale) with every
# interpreter recording function entries, then lists the src/ functions
# nothing entered, the ones only tests/ entered and the single-valued
# settings. The last three lines are the counts; it fails when one rises
# above tools/reach_counts.json.
reach:
	$(PYTHON) tools/reach.py --list

# One SHA-256 per configuration over the ring controller's state after
# a fixed run (result, RNG, slots/status/generation, stash, DeadQ and
# rental counters, observers, Merkle root, recovery counters): the net
# under controller refactors. tests/test_controller_goldens.py holds
# the tree to tests/goldens/controller_state.json (~6 s).
fingerprint:
	$(PYTHON) tools/controller_fingerprint.py

# The six smoke reports: perf, faults, serve, chaos, scaling and the
# 4-shard chaos fleet. `make smoke` produces each exactly twice through
# the two pattern rules below -- serially with its hard gates, and over
# two pool workers -- and `determinism` checks every pair; the *-smoke
# targets gate the serial reports. RUN_x is report x's command, GATE_x
# what its serial run adds, W2_x what its --workers 2 run adds. Make
# takes the shortest stem, so BENCH_x_w2.json uses the second rule; FORCE
# reruns both rules once per make invocation. Everything lands under
# generated/.
G := generated
SMOKE_REPORTS := perf faults serve chaos scaling chaos_fleet
RUN_perf := perf run --smoke
RUN_faults := faults run --smoke
GATE_faults := --require-detection
RUN_serve := serve bench --smoke
GATE_serve := --trace-out $(G)/trace_serve.json --require-dedup-win
W2_serve := --trace-out $(G)/trace_serve_w2.json
RUN_chaos := serve chaos --smoke
GATE_chaos := --trace-out $(G)/trace_chaos.json --require-detection
W2_chaos := --trace-out $(G)/trace_chaos_w2.json
RUN_scaling := serve scaling --smoke
GATE_scaling := --require-speedup
RUN_chaos_fleet := serve chaos --smoke --shards 4
GATE_chaos_fleet := --trace-out $(G)/trace_fleet.json \
  --slo-out $(G)/slo_fleet.jsonl --ops-out $(G)/ops_fleet.jsonl \
  --require-detection
W2_chaos_fleet := --trace-out $(G)/trace_fleet_w2.json
$(G)/BENCH_%.json: FORCE
	$(PYTHON) -m repro $(RUN_$*) --out $@ $(GATE_$*)
$(G)/BENCH_%_w2.json: FORCE
	$(PYTHON) -m repro $(RUN_$*) --workers 2 --out $@ $(W2_$*) > /dev/null
FORCE:

# Perf: the pipelined controller's hard gates on simulated DRAM-ns --
# the ns/mcf@p4 cell must beat its serial twin by >= 1.5x with every
# logical sim field identical, and the depth-1 cells must match the
# committed baseline bit for bit -- then the compare against it, which
# gates on simulated ns per access (deterministic, so a hard gate).
perf-smoke: $(G)/BENCH_perf.json
	$(PYTHON) tools/check_pipeline.py $< \
	  --baseline benchmarks/baselines/BENCH_perf_smoke.json \
	  --min-speedup 1.5
	$(PYTHON) -m repro perf compare \
	  benchmarks/baselines/BENCH_perf_smoke.json $<

# A pipelined traced run must emit a schema-valid Perfetto trace
# (per-lane pipeline tracks included), and telemetry must add no more
# named calls than its committed budget (tools/telemetry_overhead.py).
pipeline-smoke:
	$(PYTHON) -m repro simulate --scheme ns --levels 10 --requests 500 \
	  --warmup 100 --pipeline-depth 4 --trace-out $(G)/trace_pipeline.json
	$(PYTHON) tools/check_trace.py $(G)/trace_pipeline.json \
	  --require-kinds readPath evictPath earlyReshuffle
	$(PYTHON) tools/telemetry_overhead.py --pipeline-depth 4

# Fault-injection campaign: fails unless every tampering fault (bit
# flip, replay) was detected. Fully deterministic.
faults-smoke: $(G)/BENCH_faults.json

# Trace an L12 AB cell, validate the Chrome trace against the schema
# checker, and bound the calls telemetry adds.
telemetry-smoke:
	$(PYTHON) -m repro simulate --scheme ab --levels 12 --requests 600 \
	  --warmup 0 --trace-out $(G)/BENCH_trace.json
	$(PYTHON) tools/check_trace.py $(G)/BENCH_trace.json \
	  --require-kinds readPath evictPath earlyReshuffle
	$(PYTHON) tools/telemetry_overhead.py

# Serving: fails unless batch scheduling beats naive FIFO on oblivious
# accesses; validates the per-request Perfetto trace, then soft-compares
# latency percentiles against the committed baseline.
serve-smoke: $(G)/BENCH_serve.json
	$(PYTHON) tools/check_trace.py $(G)/trace_serve.json \
	  --require-kinds readPath evictPath queue get --min-spans 500
	$(PYTHON) -m repro serve compare \
	  benchmarks/baselines/BENCH_serve_smoke.json $< --warn-only

# Chaos: fault injection under live serving load through the resilient
# loop; fails unless availability floors hold and every tampering fault
# was detected *while serving*. The traced cell's timeline (degraded
# windows, fault markers) is schema-checked, then availability and
# p99-under-fault are soft-compared against the committed baseline.
chaos-smoke: $(G)/BENCH_chaos.json
	$(PYTHON) tools/check_trace.py $(G)/trace_chaos.json \
	  --require-kinds readPath queue get degraded_enter faults \
	  --min-spans 200
	$(PYTHON) -m repro serve compare \
	  benchmarks/baselines/BENCH_chaos_smoke.json $< --warn-only

# The sharded fleet's capacity curve: the shards=4 fleet must clear 3x
# the single-shard served throughput, and the kill-a-shard drill must
# hold its availability floor with 100% tamper detection and an
# all-healthy control plane; then a soft compare against the baseline.
shard-smoke: $(G)/BENCH_scaling.json
	$(PYTHON) -m repro serve compare \
	  benchmarks/baselines/BENCH_scaling_smoke.json $< --warn-only

# The chaos campaign as a 4-shard fleet with the full observability
# plane on: the merged Perfetto trace (per-shard process tracks, router
# flow events, control/SLO timelines) must pass the flow/process schema
# checks, the recorded ops stream must render through `telemetry view`,
# and the plane must add no more named calls to the serving loop than
# its committed budget; then a soft compare against the baseline.
obs-smoke: $(G)/BENCH_chaos_fleet.json
	$(PYTHON) tools/check_trace.py $(G)/trace_fleet.json \
	  --require-kinds route readPath queue get --min-spans 500 \
	  --require-flows 200 \
	  --require-process fleet-router shard-0 shard-1 shard-2 shard-3
	$(PYTHON) -m repro telemetry view $(G)/ops_fleet.jsonl > /dev/null
	$(PYTHON) tools/telemetry_overhead.py --serve
	$(PYTHON) -m repro serve compare \
	  benchmarks/baselines/BENCH_chaos_fleet_smoke.json $< --warn-only

# The one determinism check every report harness shares: each serial /
# --workers 2 pair must load through the report kernel with
# byte-identical deterministic views (tools/report_determinism.py), and
# the two trace files of serve bench, serve chaos and the 4-shard fleet
# must `cmp` equal (the parent writes every served trace). Its
# prerequisites are the twelve report runs of `make smoke`; it starts
# none of its own.
determinism: $(foreach r,$(SMOKE_REPORTS),$(G)/BENCH_$(r).json \
	$(G)/BENCH_$(r)_w2.json)
	@set -e; for r in $(SMOKE_REPORTS); do \
	  echo "== $$r: serial vs --workers 2"; \
	  $(PYTHON) tools/report_determinism.py \
	    $(G)/BENCH_$$r.json $(G)/BENCH_$${r}_w2.json; \
	done
	cmp $(G)/trace_serve.json $(G)/trace_serve_w2.json
	cmp $(G)/trace_chaos.json $(G)/trace_chaos_w2.json
	cmp $(G)/trace_fleet.json $(G)/trace_fleet_w2.json

# CI's smoke job: every smoke gate, then every serial/--workers 2 pair.
smoke: perf-smoke pipeline-smoke faults-smoke telemetry-smoke \
	serve-smoke chaos-smoke shard-smoke obs-smoke determinism

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

# Smoke-sized end-to-end benchmark (~20 s, one interpreter). Run for
# its correctness checks, not its timings: reference-model answers,
# every Merkle path on the sealed workloads, 100% tamper detection on
# serve-chaos, fleet-vs-serial identity. Exits non-zero if one fails.
e2e-quick:
	python3 benchmarks/e2e/run.py --quick

# A speed claim in one command: N alternating pairs of end-to-end runs
# of workload W, the working tree against BASE=<rev>,
# on seeds SEED.. (tools/ab.py; exits 1 if a simulated metric differs).
# RECORD=1 appends the result to BENCH_e2e.json, the committed trajectory.
# MOVED=1 is for a change that means to move simulated metrics: it
# prints their per-side medians and fails only on a failed check.
ab:
	$(PYTHON) tools/ab.py --base $(BASE) --workload $(W) \
	  --pairs $(or $(N),10) --seed $(or $(SEED),1) $(if $(RECORD),--record) \
	  $(if $(MOVED),--moved)

# Calls per timed op of every named src/repro function on the six
# sim-* and serve-* workloads at a fixed small size, summed per layer
# (tools/workprofile.py): rewrites the committed BENCH_work.json, which
# tests/test_workprofile.py holds to a fresh profile.
workprofile:
	$(PYTHON) tools/workprofile.py

# What CI runs: lint, tier-1 tests, the smoke gates, the README steps,
# e2e correctness and figure fidelity (`make reach` counts what this
# reaches).
ci: lint test smoke readme-smoke e2e-quick fidelity

# Removes only regenerated artifacts. Committed reference outputs
# (benchmarks/out/, benchmarks/baselines/, BENCH_perf.json) survive.
clean:
	rm -rf benchmarks/generated generated .pytest_cache .ruff_cache
	rm -f BENCH_perf_new.json BENCH_faults.json test_output.txt \
	  bench_output.txt
	find . -name __pycache__ -type d -exec rm -rf {} +
