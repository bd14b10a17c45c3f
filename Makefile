# Build, test, and robustness gates for positbench.
#
#   make check       vet + build + unit tests (the tier-1 gate), plus vet
#                    and tests of the perfbench benchmark module, so a
#                    change that breaks the benchmark's build fails here;
#                    vet covers the e2e-tagged soaks too
#   make race        unit tests under the race detector
#   make fuzz-smoke  10 s of fuzzing per fuzz target (seeded with
#                    known-bad frames; catches decode-path panics fast)
#   make test-parallel  the parallel-engine test layer, race-enabled and
#                    run twice (catches order-dependent scheduling bugs)
#   make test-engine the work-stealing scheduler and chunk engine package,
#                    race-enabled and run twice, plus the bzip2c stage-
#                    pipeline byte-identity pin: steal races, park/unpark,
#                    and close-drain ordering only vary across schedules
#   make test-predict  the predictive codec family (internal/predict and
#                    positpack v2), race-enabled and run twice
#   make test-server the positd HTTP layer, race-enabled and run twice
#   make test-advisor  the adaptive codec selection layer (internal/advisor
#                    and cmd/positadvise), race-enabled and run twice: the
#                    decision cache's single-flight coalescing is goroutine
#                    choreography, so schedules are the thing to vary
#   make test-gateway  the resilience + gateway layers, race-enabled and
#                    run twice (includes the in-process chaos soak)
#   make test-range  the random-access wall: container trailer + ReaderAt,
#                    the content-addressed chunk cache, and the positd
#                    object/range handlers, race-enabled and run twice
#                    (single-flight fills and cache eviction are goroutine
#                    choreography, so schedules are the thing to vary)
#   make e2e         the process-level soaks (internal/e2e, build tag
#                    e2e): builds positd, race-built positd and positgw,
#                    and positload once, then runs the burst, auto and
#                    range soaks as subtests of TestSoak
#   make bench-smoke tiny-input benchmark pass under -race: catches data
#                    races and crashes on the hot paths without waiting for
#                    real measurements
#   make bench-scaling  per-core scaling gate: sweep workers 1,2,4,8 per
#                    codec and direction and fail if parallel falls more
#                    than 10% below serial anywhere
#   make ci          everything above, in order
#
# Speed claims are measured by the perfbench module (`bash perfbench/run.sh`,
# see perfbench/README.md), not by any target here.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all check vet build test race test-parallel test-engine test-predict test-server test-advisor test-gateway test-range e2e bench-smoke bench-scaling fuzz-smoke ci

all: check

check: vet build test

# perfbench is its own module (it replaces positbench with ../), so ./...
# from the root does not reach it. The e2e tag brings internal/e2e into
# vet, so a change that breaks the soaks fails here; test and race leave
# that package out.
vet:
	$(GO) vet -tags e2e ./...
	$(GO) -C perfbench vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...
	$(GO) -C perfbench test ./...

# Race instrumentation is a 10-20x slowdown and the study integration test
# already takes ~40 s uninstrumented, so the default 10 m per-package test
# timeout is not enough on small runners.
race:
	$(GO) test -race -timeout 30m ./...

# The concurrency layer, twice under the race detector: the second run sees
# different goroutine schedules, which is what shakes out ordering bugs.
test-parallel:
	$(GO) test -race -count=2 -run 'Parallel|Stream|Equivalence' ./internal/compress/...

# The chunk engine package end to end — scheduler, deques, steal order,
# serial-fallback policy, alloc gates — plus the bzip2c stage-pipeline
# byte-identity pin. Race-enabled and run twice: everything here is
# goroutine choreography, so varied schedules are the test.
test-engine:
	$(GO) test -race -count=2 ./internal/compress
	$(GO) test -race -count=2 -run 'PipelineByteIdentity' ./internal/compress/bzip2c

# The predictive codec family, twice under the race detector: the codecs
# share pooled predictor state across the engine's worker goroutines, so a
# second run with different schedules is the cheapest ordering fuzz for the
# pool discipline (and the golden/property wall reruns for free).
test-predict:
	$(GO) test -race -count=2 ./internal/predict/... ./internal/positpack/...

# The HTTP service layer, twice under the race detector: handlers stream
# through the parallel engine, so they inherit its scheduling sensitivity.
test-server:
	$(GO) test -race -count=2 ./internal/server/... ./cmd/positd/...

# The adaptive-selection layer, twice under the race detector: concurrent
# auto requests race for the decision cache's single-flight leadership, so
# a second run with different schedules is the cheapest ordering fuzz.
test-advisor:
	$(GO) test -race -count=2 ./internal/advisor/... ./cmd/positadvise/...

# The random-access layer, twice under the race detector: the trailer
# parser and ReaderAt are pure code, but the chunk cache's single-flight
# fills and LRU eviction race 32 readers per test, and the positd range
# handlers stream through the shared cache — varied schedules are the test.
test-range:
	$(GO) test -race -count=2 ./internal/container/... ./internal/chunkcache/...
	$(GO) test -race -count=2 -run 'Range|Object|Read|Trailer|Compress' ./internal/server/...

# The resilience primitives and the gateway, twice under the race detector:
# retries, hedging, breakers, and probing are all goroutine choreography,
# so a second run with different schedules is the cheapest ordering fuzz.
test-gateway:
	$(GO) test -race -count=2 ./internal/resilience/... ./internal/gateway/...

# The process-level soaks over real sockets: a positload burst against a
# race-built positd, the -auto arm against positd, and a range-read burst
# through a race-built positgw while the owning positd is kill -9'd and
# restarted. The harness builds each binary once and decodes /metrics into
# the daemons' own snapshot types. The package is behind the e2e build tag,
# so go test ./... and make race never build or run it.
e2e:
	$(GO) test -tags e2e -count=1 ./internal/e2e

# The stream benchmarks, raced on a tiny input: one pass of every serial
# and parallel stream benchmark with 256 KiB instead of 4 MiB, so the race
# detector covers the pooled hot paths (buffer recycling, job reuse,
# read-ahead slots) in seconds. The numbers from a race build mean nothing.
bench-smoke:
	$(GO) test -race ./internal/compress -run '^$$' -bench '^BenchmarkStream' -benchtime 1x \
		-args -bench-bytes=262144

# Per-core scaling gate: measure the workers 1,2,4,8 curve for every codec
# and direction on 1 MiB of synthetic field; compressbench prints the report
# and exits non-zero, listing every row, if parallel falls more than 10%
# below serial anywhere (25% on a 1-CPU machine). 1 MiB keeps the sweep
# fast — the gate compares ratios, not absolute MB/s.
bench-scaling:
	$(GO) run ./cmd/compressbench -workers-sweep -sweep-bytes 1048576

# Run every Fuzz* target in the module for FUZZTIME each. `go test -fuzz`
# only accepts one target per invocation, so targets are discovered with
# -list and run one by one.
fuzz-smoke:
	@set -e; for pkg in $$($(GO) list ./...); do \
		targets=$$($(GO) test -list '^Fuzz' $$pkg 2>/dev/null | grep '^Fuzz' || true); \
		for t in $$targets; do \
			echo "fuzz $$pkg $$t"; \
			$(GO) test -run='^$$' -fuzz="^$$t$$" -fuzztime=$(FUZZTIME) $$pkg; \
		done; \
	done

ci: check race test-parallel test-engine test-predict test-server test-advisor test-gateway test-range e2e bench-smoke bench-scaling fuzz-smoke
