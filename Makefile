GO ?= go

.PHONY: all fmt-check build vet test race check chaos fuzz-smoke bench bench-smoke bench-sweep bench-all bench-diff generate generate-check test-noasm serve-smoke tcp-smoke

all: check

build:
	$(GO) build ./...

# Fails, listing the files, if any Go source is not gofmt-formatted.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The concurrency-heavy packages (the rank goroutine substrate, the
# telemetry layer every rank records into, the intra-rank worker pool,
# and the gather-scatter + solver paths that drive the pool under
# rank-level concurrency) additionally run under the race detector.
race:
	$(GO) test -race ./internal/comm/... ./internal/obs/... ./internal/pool/... ./internal/gs/... ./internal/sem/...
	$(GO) test -race -run 'TestWorkers|TestStraggler|TestOverlap' ./internal/solver/...
	$(GO) test -race ./internal/loadbal/... ./internal/fault/... ./internal/serve/...

# Fixed-seed chaos suite under the race detector: crash/recovery across 5
# seeds, message-fault bit-identity, dead-sender detection, shrink, and
# the remapped-restore path. Deterministic — same seeds every run.
chaos:
	$(GO) test -race -run 'TestChaos|TestMessageFaults|TestStall|TestWaitErr|TestKill|TestShrink|TestBlockingRecv|TestDrop|TestCorruption|TestDelay|TestRehome|TestRestoreRemapped' \
		./internal/fault/... ./internal/comm/... ./internal/checkpoint/...

# 10-second fuzz smoke per target (one target per invocation, as go
# test requires): the binary parsers plus the differential mxm-kernel
# fuzzer (every variant vs MxMBasic, bit-exact).
fuzz-smoke:
	$(GO) test -race -run '^$$' -fuzz '^FuzzRead$$' -fuzztime 10s ./internal/checkpoint/
	$(GO) test -race -run '^$$' -fuzz '^FuzzReadParticles$$' -fuzztime 10s ./internal/checkpoint/
	$(GO) test -race -run '^$$' -fuzz '^FuzzDecodeOwnershipWire$$' -fuzztime 10s ./internal/mesh/
	$(GO) test -race -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 10s ./internal/fault/
	$(GO) test -race -run '^$$' -fuzz '^FuzzMxMVariants$$' -fuzztime 10s ./internal/sem/
	$(GO) test -race -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 10s ./internal/comm/tcptransport/

# Re-run the kernel generator (internal/sem/gen) over the committed
# generated sources.
generate:
	$(GO) generate ./...

# Drift check: the committed generated kernels must match what the
# generator emits today.
generate-check: generate
	git diff --exit-code -- internal/sem

# The pure-Go fallback build: the semnoasm tag disables the AVX2
# assembly backend; the kernel packages and their consumers must build
# and pass bit-exactness tests without it.
test-noasm:
	$(GO) build -tags semnoasm ./...
	$(GO) test -tags semnoasm ./internal/sem/... ./internal/solver/... ./internal/bench/...

# Quick worker-sweep smoke: the derivative kernel across pool widths
# (1..NumCPU) plus the gs zero-alloc benches. Fast enough for check/CI;
# the recorded kernel suites come from `make bench-all`.
bench-sweep:
	$(GO) test -run xxx -bench 'WorkerSweep|GSAlloc' -benchmem -benchtime 20x . ./internal/gs/

# One-iteration pass over every benchmark in the repo: catches compile
# errors and panics in bench harnesses without timing anything.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# End-to-end smoke of the simulation job server: start cmtserve, submit
# a job over HTTP, poll to completion, stream steps, SIGINT, and assert
# a clean shutdown with the telemetry snapshot flushed.
serve-smoke:
	./scripts/serve_smoke.sh

# Multi-process transport smoke: the canonical scalebench scenario run
# in-process and as 4 OS processes over localhost TCP must produce
# byte-identical diagnostics (physics scalars, per-rank virtual clocks,
# collectively-computed makespan).
tcp-smoke:
	./scripts/tcp_smoke.sh

check: fmt-check vet build test race chaos test-noasm bench-sweep bench-smoke serve-smoke tcp-smoke

bench:
	$(GO) test -bench=. -benchmem .

# Run every registered bench suite in-process (internal/bench Suites:
# loadbal + overlap studies traced, hierarchical collectives, kernel
# worker and mxm sweeps, allocation guard, job-server load generation)
# and write the unified schema-versioned trajectory plus the
# critical-path reports. This is the single regenerate path and the
# single baseline benchdiff compares against — it carries critical-path
# summaries, so regressions get blame lines.
bench-all:
	$(GO) run ./cmd/benchdiff -record BENCH_trajectory.json -critpath CRITPATH_REPORT.txt

# The regression gate: re-run every suite the committed trajectory
# covers and diff. Deterministic modeled metrics gate at 2%; wall-clock
# metrics are report-only (CI hosts differ from the recording host).
# Exit 1 on regression, with critical-path blame lines naming the
# responsible rank and phase, or on a baseline scenario the fresh run
# no longer produces.
bench-diff:
	$(GO) run ./cmd/benchdiff -threshold 0.02 -critpath CRITPATH_REPORT.txt BENCH_trajectory.json
