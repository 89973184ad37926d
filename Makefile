# Convenience targets for the SUBSIM/HIST reproduction.

GO ?= go

.PHONY: all build vet lint vet-strict escape-gate escape-baseline fuzz-smoke test test-alloc race serve-smoke scale-smoke flight-smoke cover bench bench-json bench-scale bench-matrix benchcmp benchcheck benchobs examples experiments quick clean

all: build vet lint test test-alloc race serve-smoke scale-smoke flight-smoke escape-gate

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-invariant static analysis (determinism, hot-path allocations,
# nil-safe tracers, float equality, unchecked errors, directive hygiene).
# See DESIGN.md "Enforced invariants". Exits non-zero on any diagnostic.
lint:
	$(GO) run ./cmd/subsimlint ./...

# Same analyzers driven through the go vet toolchain (unitchecker-style
# protocol), proving the vettool mode stays wired up.
vet-strict:
	$(GO) build -o bin/subsimlint ./cmd/subsimlint
	$(GO) vet -vettool=bin/subsimlint ./...

# Compiler-telemetry gate: compile with -m=1 and check_bce debugging
# (forced rebuild, so the build cache cannot swallow diagnostics) and
# fail if any //subsim:hotpath function gained a heap escape or bounds
# check over the committed lint_baseline.json budget.
escape-gate:
	$(GO) run ./cmd/subsimlint -compiler -baseline lint_baseline.json ./...

# Deliberately refresh the budget after a reviewed change.
escape-baseline:
	$(GO) run ./cmd/subsimlint -compiler -baseline lint_baseline.json -baseline-write ./...

# 30s native-fuzzing smoke pass per target over the untrusted-input
# parsers and the bucketed sampler invariants (seed corpora committed
# under testdata/fuzz/).
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test ./internal/graph -run '^$$' -fuzz '^FuzzReadText$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/graph -run '^$$' -fuzz '^FuzzReadBinary$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sampling -run '^$$' -fuzz '^FuzzBucketedSampler$$' -fuzztime $(FUZZTIME)

# Text dumps from test/bench targets land under bin/ (gitignored as a
# whole), so scratch artifacts can never reappear at the repo root.
test:
	@mkdir -p bin
	$(GO) test ./... 2>&1 | tee bin/test_output.txt

# Allocation-regression gate: the generate→index pipeline must
# stay allocation-free per RR set in steady state (see BENCH_rrset.json),
# including across repeated Fill→SelectSeeds rounds (the CSR double
# buffers and selection scratch are reused, not reallocated), and the
# always-on flight recorder must journal and sample without allocating.
test-alloc:
	$(GO) test ./internal/im -run 'AllocFree|AmortizedAllocs|RoundsAllocs' -v
	$(GO) test ./internal/coverage -run 'ScratchReuse' -v
	$(GO) test ./internal/obs/flight -run 'AllocFree' -v

race:
	$(GO) test -race ./...

# End-to-end smoke gate for the live telemetry plane: boots
# `imrun -serve` on a generated graph, asserts every endpoint, checks
# rr_sets_total monotonicity and a live /progress phase mid-run, then
# gates obsdiff on a self-compare (exit 0) and the committed regressed
# fixture (exit 1). See cmd/servesmoke.
serve-smoke:
	$(GO) build -o bin/graphgen ./cmd/graphgen
	$(GO) build -o bin/imrun ./cmd/imrun
	$(GO) build -o bin/obsdiff ./cmd/obsdiff
	$(GO) run ./cmd/servesmoke

# Scaling-observatory smoke gate: run a tiny 2-worker scaling matrix
# end to end (fresh tracer + timeline per cell, per-phase medians,
# Amdahl fits, worker-independence assertion) and obsdiff-self-compare
# the run report it emits, proving the matrix artifacts stay consumable
# by the observability toolchain. Seconds, not minutes.
scale-smoke:
	$(GO) build -o bin/scalematrix ./cmd/scalematrix
	$(GO) build -o bin/obsdiff ./cmd/obsdiff
	bin/scalematrix -graphs pa:3000x4 -gens subsim -workers 1,2 -trials 1 \
		-sets 3000 -rounds 2 -k 10 -report bin/scalematrix_smoke_report.json
	bin/obsdiff bin/scalematrix_smoke_report.json bin/scalematrix_smoke_report.json
	rm -f bin/scalematrix_smoke_report.json

# Post-mortem smoke gate for the flight recorder: force the two crash
# paths out of the real imrun binary (-flight-selftest panic re-panics
# through CapturePanic and must exit 2; -flight-selftest stall wedges an
# open span until the watchdog writes a bundle and exits 0), then prove
# cmd/obsbundle summarizes each bundle and that a self-diff of its run
# report exits 0 — the crash-dump pipeline stays consumable end to end.
flight-smoke:
	$(GO) build -o bin/imrun ./cmd/imrun
	$(GO) build -o bin/obsbundle ./cmd/obsbundle
	rm -rf bin/flightsmoke && mkdir -p bin/flightsmoke/panic bin/flightsmoke/stall
	bin/imrun -flight-selftest panic -flight-dir bin/flightsmoke/panic \
		>/dev/null 2>bin/flightsmoke/panic.log; status=$$?; \
		test $$status -eq 2 || { echo "flight-smoke: panic selftest exit $$status, want 2"; \
		cat bin/flightsmoke/panic.log; exit 1; }
	bin/imrun -flight-selftest stall -flight-dir bin/flightsmoke/stall \
		>/dev/null 2>bin/flightsmoke/stall.log || \
		{ cat bin/flightsmoke/stall.log; exit 1; }
	for d in bin/flightsmoke/panic/*.bundle bin/flightsmoke/stall/*.bundle; do \
		bin/obsbundle $$d >/dev/null || exit 1; \
		bin/obsbundle $$d $$d >/dev/null || exit 1; \
	done
	@echo "flight-smoke: ok"

cover:
	$(GO) test -cover ./internal/...

bench:
	@mkdir -p bin
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bin/bench_output.txt

# RR-pipeline benchmark suite (generate, index, select, end-to-end).
BENCH_RR = BenchmarkFillIndex|BenchmarkGenerateSingle|BenchmarkSelectSeeds|BenchmarkOPIMC_E2E

# Record the RR-pipeline benchmarks into BENCH_rrset.json under LABEL
# (default "current"); committed baselines are "pre-arena" / "arena-csr".
LABEL ?= current
bench-json:
	@mkdir -p bin
	$(GO) test ./internal/im -run '^$$' -bench '$(BENCH_RR)' -benchmem 2>&1 | tee bin/bench_rrset.txt
	$(GO) run ./cmd/benchjson -file BENCH_rrset.json -label $(LABEL) bin/bench_rrset.txt

# Compare two recorded baselines (override OLD/NEW to pick other labels,
# e.g. `make bench-json LABEL=current && make benchcmp NEW=current`).
OLD ?= pre-arena
NEW ?= arena-csr
benchcmp:
	$(GO) run ./cmd/benchjson -file BENCH_rrset.json -compare $(OLD),$(NEW)

# Performance-regression gate: record the current numbers (make bench-json)
# then fail if any RR-pipeline benchmark is >15% slower than the committed
# arena-csr baseline.
benchcheck:
	$(GO) run ./cmd/benchjson -file BENCH_rrset.json -check arena-csr,current

# Worker-scaling suite for the parallel coverage pipeline: the fill
# (generation straight into the shard arenas) and CELF selection at
# workers 1/4/8 with one shard per worker, the phase-split coverage
# benchmarks (per-shard delta CSR build, first CELF round), plus the
# end-to-end RR-pipeline shapes, recorded under the "parallel-cover"
# label. The regression gate
# pins only the serial (_W1) variants against the arena-csr baseline —
# those are machine-independent, while the W4/W8-vs-W1 ratios depend on
# the recording host's core count (on a single core they measure pure
# partitioning overhead and stay informational).
BENCH_SCALE_IM = $(BENCH_RR)
BENCH_SCALE_COV = BenchmarkIndexBuild_|BenchmarkSelectGains_
bench-scale:
	@mkdir -p bin
	$(GO) test ./internal/im -run '^$$' -bench '$(BENCH_SCALE_IM)' -benchmem 2>&1 | tee bin/bench_scale.txt
	$(GO) test ./internal/coverage -run '^$$' -bench '$(BENCH_SCALE_COV)' -benchmem 2>&1 | tee -a bin/bench_scale.txt
	$(GO) run ./cmd/benchjson -file BENCH_rrset.json -label parallel-cover bin/bench_scale.txt
	$(GO) run ./cmd/benchjson -file BENCH_rrset.json -check arena-csr,parallel-cover -filter '_W1$$'

# Workers×graph scaling matrix: sweep the full pipeline (generate,
# delta CSR build, select) over worker counts, compute per-phase
# speedup/efficiency curves and least-squares Amdahl serial-fraction
# fits, and record them into BENCH_rrset.json under the "scale-matrix"
# label. On a host where GOMAXPROCS < max workers the run (and the
# recorded JSON) is tagged with a caveat — those rows measure
# partitioning overhead, not speedup. Override MATRIX_* to change shape.
MATRIX_GRAPHS ?= pa:20000x8
MATRIX_GENS ?= subsim,vanilla
MATRIX_WORKERS ?= 1,2,4,8
bench-matrix:
	$(GO) build -o bin/scalematrix ./cmd/scalematrix
	bin/scalematrix -graphs $(MATRIX_GRAPHS) -gens $(MATRIX_GENS) \
		-workers $(MATRIX_WORKERS) -trials 3 \
		-json bin/scalematrix_result.json \
		-bench-file BENCH_rrset.json -bench-label scale-matrix

# Observability overhead: bare vs nil-wrapped vs metrics-on vs
# worker-timed vs live-scraped RR generation, recorded into
# BENCH_rrset.json under the "obs-live" label (committed baseline:
# "obs-live").
benchobs:
	@mkdir -p bin
	$(GO) test ./internal/rrset -run '^$$' -bench InstrumentedGenerate -benchmem -count 3 2>&1 | tee bin/bench_obs.txt
	$(GO) run ./cmd/benchjson -file BENCH_rrset.json -label obs-live bin/bench_obs.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/viralmarketing
	$(GO) run ./examples/highinfluence
	$(GO) run ./examples/skewed
	$(GO) run ./examples/communities

# Regenerate the paper's evaluation (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/imbench -exp all -scale 0.25 -reps 2 -k 1,10,50,100,200,500,1000

# Seconds-long smoke pass over every experiment.
quick:
	$(GO) run ./cmd/imbench -quick

clean:
	rm -f imbench graph.bin
	rm -rf bin
