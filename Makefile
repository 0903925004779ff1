# Developer entry points for the bayesnn-fpga workspace.
#
#   make build      - release build of every crate
#   make test       - full test suite (unit + integration + doctests)
#   make test-doc   - documentation tests only (every rustdoc example)
#   make test-st    - the same suite pinned to one thread (BNN_THREADS=1)
#   make test-scalar- the same suite with SIMD disabled (BNN_SIMD=scalar)
#   make bench      - run the criterion bench targets
#   make bench-quant- run only the quantized-predict kernel benches
#   make bench-save - run kernels + framework_phases benches and record the
#                     results as BENCH_kernels.json / BENCH_phases.json
#   make test-plans - allocation-audit + zoo-wide float-plan parity + SIMD
#                     parity + Phase-1 golden suites and the bnn-bayes and
#                     bnn-tensor unit tests, under BNN_THREADS=1 and 4
#   make test-serving - serving smoke + determinism suites, under
#                     BNN_THREADS=1 and 4
#   make test-robust - serving fault-tolerance suite (panic isolation,
#                     deadlines, backpressure, degradation, chaos), under
#                     BNN_THREADS=1 and 4
#   make test-adaptive - both plan formats' shared contract (adaptive
#                     early exit, batching, typed errors) + allocation audit
#                     + the bnn-models unit tests, under BNN_THREADS=1 and 4
#   make test-hls   - HLS codegen golden-file snapshots, zoo-wide project
#                     generation + sim-vs-plan differential suites, the
#                     calibrate -> plan -> predict suite, and the
#                     bnn-quant/bnn-hls unit tests, under BNN_THREADS=1 and 4
#   make test-perfbench - build and unit-test the benchmark package
#                     (perfbench/, its own cargo workspace)
#   make bench-serving - replay the serving harness and record the results
#                     as BENCH_serving.json
#   make lint       - rustfmt check + clippy with warnings denied
#   make doc        - rustdoc with warnings denied
#   make loc        - non-test Rust line count of crates/*/src (each file's
#                     lines before its first #[cfg(test)]), then of vendor/*/src
#   make ci         - everything the merge gate runs

CARGO ?= cargo

# bench-save pipes cargo bench into a parser; pipefail makes a bench failure
# fail the recipe instead of silently recording partial results.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

.PHONY: all build test test-doc test-st test-scalar test-plans test-perfbench test-serving test-robust test-adaptive test-hls bench bench-build bench-quant bench-save bench-serving lint fmt doc loc clean ci

all: build

build:
	$(CARGO) build --release

test:
	$(CARGO) test -q

# Documentation tests on their own: the crate-level worked examples
# (calibrate -> plan -> integer predict, etc.) are part of the merge gate.
test-doc:
	$(CARGO) test -q --doc --workspace

# The parallel phases must produce identical results on one thread; running
# the suite under BNN_THREADS=1 exercises every sequential fallback path.
test-st:
	BNN_THREADS=1 $(CARGO) test -q

# The integer kernels and the f32 matmul are bitwise identical on every SIMD
# backend (the f32 kernel keeps one per-element order: separate multiply and
# add, no FMA, zeros of the left operand skipped); running the suite with
# BNN_SIMD=scalar keeps the scalar fallback verified on hosts where
# auto-detection would otherwise never leave the vector path.
test-scalar:
	BNN_SIMD=scalar $(CARGO) test -q

# The execution-plan guarantees, pinned at both ends of the thread-count
# range: zero steady-state allocations in planned predict_probs and in the
# FloatEngine's fixed-depth and adaptive batches (allocation_audit), the
# float plan (and every sampler entry point on it, each against its own
# layer-chain oracle) bit-exact with the layer chain on every zoo model,
# SIMD kernels bit-exact with scalar, Phase 1's candidate metrics pinned
# bit for bit against tests/golden/phase1/ (phase1_golden), the bnn-bayes
# unit tests — parallel_sampling_matches_sequential_bitwise pins the
# sampler's plan kernels to one and to four threads — and the bnn-tensor
# unit tests, which hold the shared unfold (im2col, col2im, im2row; its
# sequential and pooled branches) to per-element references. (Integer plan
# vs the independent simulator is `make test-hls`.)
test-plans:
	BNN_THREADS=1 $(CARGO) test -q --test allocation_audit --test planned_parity --test simd_parity --test phase1_golden
	BNN_THREADS=1 $(CARGO) test -q -p bnn-bayes -p bnn-tensor
	BNN_THREADS=4 $(CARGO) test -q --test allocation_audit --test planned_parity --test simd_parity --test phase1_golden
	BNN_THREADS=4 $(CARGO) test -q -p bnn-bayes -p bnn-tensor

# The serving-layer guarantees at both ends of the thread-count range: every
# replayed request delivered and bit-exact with direct plan calls, outputs
# invariant to batch boundaries and worker counts, and cache invalidation
# safe under concurrent mutation.
test-serving:
	BNN_THREADS=1 $(CARGO) test -q --test serving_smoke --test serving_determinism
	BNN_THREADS=4 $(CARGO) test -q --test serving_smoke --test serving_determinism

# The fault-tolerance guarantees at both ends of the thread-count range:
# worker panics isolated to their batch (typed replies, supervisor respawn,
# no hung handles), deadline eviction, bounded-queue backpressure, the
# degradation ladder stepping down and recovering, and the seeded chaos run
# (2 of 4 workers panic mid-run under Poisson load, survivors bit-exact).
test-robust:
	BNN_THREADS=1 $(CARGO) test -q --test serving_faults
	BNN_THREADS=4 $(CARGO) test -q --test serving_faults

# The adaptive early-exit guarantees at both ends of the thread-count range:
# adaptive-batch prediction bit-exact with per-sample evaluation across all
# formats/policies/executors, `Never` identical to the fixed-depth path,
# batched prediction the concatenation of single-sample calls, and typed
# errors for malformed inputs and policies — each one generic body run on
# both plan formats — zero steady-state allocations through retirement +
# survivor compaction, and the bnn-models unit tests (the exit walker's
# sample schedule, fixed_cost and compaction on a stub plan; the float
# plan's layer-chain parity and exit-width check).
test-adaptive:
	BNN_THREADS=1 $(CARGO) test -q --test adaptive_exit_parity --test allocation_audit
	BNN_THREADS=1 $(CARGO) test -q -p bnn-models
	BNN_THREADS=4 $(CARGO) test -q --test adaptive_exit_parity --test allocation_audit
	BNN_THREADS=4 $(CARGO) test -q -p bnn-models

# The HLS codegen guarantees at both ends of the thread-count range: emitted
# defines.h, top.cpp, parameters.h and weights/weights.h pinned against the
# checked-in goldens (ResNet-18's two constant files by length and hash;
# regenerate with UPDATE_GOLDEN=1, see tests/hls_golden_files.rs), a
# complete project for every zoo architecture, the golden-reference
# simulator bit-exact with the compiled integer plan across every zoo model
# × searched format, calibrate -> plan -> predict tracking the float model
# (quantized_inference; calibration runs the float plan's pooled kernels, so
# its ranges, and every golden derived from them, must not depend on the
# thread count), and the bnn-quant/bnn-hls unit tests (the plan's slot
# liveness, saturation and 16-bit storage checks run the integer kernel hook
# itself; record/step skew and non-finite calibration). The plan contract
# both formats share is `make test-adaptive`.
test-hls:
	BNN_THREADS=1 $(CARGO) test -q --test hls_golden_files --test hls_project_generation --test hls_golden_sim --test quantized_inference
	BNN_THREADS=1 $(CARGO) test -q -p bnn-quant -p bnn-hls
	BNN_THREADS=4 $(CARGO) test -q --test hls_golden_files --test hls_project_generation --test hls_golden_sim --test quantized_inference
	BNN_THREADS=4 $(CARGO) test -q -p bnn-quant -p bnn-hls

# The benchmark package has its own [workspace], so the root build never
# compiles it; building and testing it here catches a removed public item
# it uses before a benchmark run does.
test-perfbench:
	$(CARGO) test -q --offline --manifest-path perfbench/Cargo.toml

bench:
	$(CARGO) bench -p bnn-bench

# Only the quantized-predict kernel benches (plan predict + compile cost) —
# the fast signal when iterating on the integer hot path.
bench-quant:
	$(CARGO) bench -p bnn-bench --bench kernels -- quantized

# Compile the bench targets without running them (fast CI signal).
bench-build:
	$(CARGO) bench --no-run

# Record the kernel + per-phase benchmark results as machine-readable JSON at
# the repo root, so the perf trajectory is diffable across PRs.
bench-save:
	$(CARGO) build --release -p bnn-bench --bin bench_save
	$(CARGO) bench -p bnn-bench --bench kernels \
		| $(CARGO) run --release -q -p bnn-bench --bin bench_save -- BENCH_kernels.json
	$(CARGO) bench -p bnn-bench --bench framework_phases \
		| $(CARGO) run --release -q -p bnn-bench --bin bench_save -- BENCH_phases.json

# Replay seeded open-loop traffic against the dynamic-batching server (two
# batching configs on the LeNet-5 8-bit plan) and record requests/sec,
# p50/p99 latency and batch occupancy as machine-readable JSON.
bench-serving:
	$(CARGO) run --release -p bnn-bench --bin bench_serving -- BENCH_serving.json

lint:
	$(CARGO) fmt --check
	$(CARGO) clippy --workspace --all-targets -- -D warnings

fmt:
	$(CARGO) fmt

doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --no-deps --workspace

# The size measure the roadmap's acceptance criteria use: every source file
# under crates/*/src counted up to (not including) its first #[cfg(test)].
# The second line is the same count for vendor/*/src, so deletions in the
# vendored kernels show too.
LOC_AWK := FNR == 1 { done = 0 } /\#\[cfg\(test\)\]/ { done = 1 } !done { n++ } END { print n }
loc:
	@find crates/*/src -name '*.rs' -exec awk '$(LOC_AWK)' {} +
	@find vendor/*/src -name '*.rs' -exec awk '$(LOC_AWK)' {} +

clean:
	$(CARGO) clean

ci: lint build test test-doc test-st test-scalar test-plans test-serving test-robust test-adaptive test-hls test-perfbench bench-build doc
