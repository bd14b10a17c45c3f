# Build, test, and robustness gates for positbench.
#
#   make check       vet + build + unit tests (the tier-1 gate), plus vet
#                    and tests of the perfbench benchmark module, so a
#                    change that breaks the benchmark's build fails here;
#                    vet covers the e2e-tagged soaks too
#   make race        unit tests under the race detector
#   make fuzz-smoke  10 s of fuzzing per fuzz target (seeded with
#                    known-bad frames; catches decode-path panics fast)
#   make race-twice  the concurrency-sensitive packages (worker pool, chunk
#                    engine, predictive codecs, positd, the advisor, the
#                    container and chunk cache, resilience and positgw with
#                    its chaos soak) under the race detector, run twice:
#                    the second run sees different goroutine schedules,
#                    which is what shakes out ordering bugs
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

.PHONY: all check vet build test race race-twice e2e bench-smoke bench-scaling fuzz-smoke ci

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

# The concurrency-sensitive packages, twice under the race detector: the
# worker pool and the chunk engine on it, the predictive codecs'
# pooled predictor state, positd's streaming handlers, the advisor's
# single-flight decision cache, the chunk cache's single-flight fills and
# eviction, and the gateway's retries, hedging, breakers, probes and chaos
# soak are all goroutine choreography, so a second run with different
# schedules is the cheapest ordering fuzz. The rest of internal/compress/...
# runs only its stream-layer tests here: a raced pass of the whole tree
# takes about four times as long.
race-twice:
	$(GO) test -race -count=2 ./internal/pool/... ./internal/compress ./internal/predict/... ./internal/positpack/... \
		./internal/server/... ./cmd/positd/... ./internal/advisor/... ./cmd/positadvise/... \
		./internal/container/... ./internal/chunkcache/... \
		./internal/resilience/... ./internal/gateway/... ./cmd/positgw/...
	$(GO) test -race -count=2 -run 'Parallel|Stream|Equivalence|MultiBlockRoundtrip' ./internal/compress/...

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

ci: check race race-twice e2e bench-smoke bench-scaling fuzz-smoke
