# Build, test, and robustness gates for positbench.
#
#   make check       gofmt + vet + build + unit tests (the tier-1 gate),
#                    plus vet and tests of the perfbench benchmark module,
#                    so a change that breaks the benchmark's build fails
#                    here; vet covers the e2e-tagged soaks and the
#                    exhaustive-tagged posit sweep too
#   make race        unit tests under the race detector
#   make fuzz-smoke  10 s of fuzzing per fuzz target (seeded with
#                    known-bad frames; catches decode-path panics fast)
#   make race-twice  the concurrency-sensitive packages (worker pool, chunk
#                    engine, predictive codecs, positd, the advisor, the
#                    container and the single-flight cache, resilience,
#                    positgw with its chaos soak, and the LC search) under
#                    the race detector,
#                    run twice: the second run sees different goroutine
#                    schedules, which is what shakes out ordering bugs
#   make e2e         the process-level soaks (internal/e2e, build tag
#                    e2e): builds positd, race-built positd and positgw,
#                    and positload once, then runs the burst, auto and
#                    range soaks as subtests of TestSoak
#   make bench-smoke tiny-input benchmark pass under -race: catches data
#                    races and crashes on the hot paths without waiting for
#                    real measurements
#   make test-exhaustive
#                    at es = 2 and es = 3, all 2^32 posit32 patterns
#                    through the decode32 kernel against the scalar
#                    reference, and all 2^32 float32 patterns through
#                    FromFloat32 against the nearest-posit rule and the
#                    encode32 kernel against FromFloat32 (build tag
#                    exhaustive; minutes, so not part of check)
#   make ci          everything above, in order
#
# Speed claims are measured by the perfbench module (`bash perfbench/run.sh`,
# see perfbench/README.md), not by any target here; no target gates speed.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all check vet build test race race-twice e2e bench-smoke fuzz-smoke test-exhaustive ci

all: check

check: vet build test

# perfbench is its own module (it replaces positbench with ../), so ./...
# from the root does not reach it. The e2e tag brings internal/e2e into
# vet, so a change that breaks the soaks fails here; test and race leave
# that package out. The exhaustive tag does the same for the posit32
# sweeps, which only test-exhaustive runs. gofmt walks directories, not
# modules, so it covers perfbench too; any file it lists fails the target.
vet:
	@unformatted=$$(gofmt -l .) || exit 1; if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet -tags e2e,exhaustive ./...
	$(GO) -C perfbench vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...
	$(GO) -C perfbench test ./...

# Race instrumentation is a 10-20x slowdown: the study integration test
# takes ~12 s uninstrumented and ~3.5 min raced on 2 vCPUs, so the default
# 10 m per-package test timeout leaves little room on small runners.
race:
	$(GO) test -race -timeout 30m ./...

# The concurrency-sensitive packages, twice under the race detector: the
# worker pool and the chunk engine on it, the predictive codecs'
# pooled predictor state, positd's streaming handlers, the one
# single-flight cache (internal/chunkcache: its fills, ctx-bounded waits and
# eviction) and its two users, the advisor's decisions and the container's
# range reads, the gateway's retries, hedging, breakers, probes and chaos
# soak, and the LC search's items, whose size tables only the atomic count
# of pending items orders before the result set is built, are all goroutine
# choreography, so a second run with different schedules is the cheapest
# ordering fuzz. The rest of internal/compress/...
# runs only its stream-layer tests here: a raced pass of the whole tree
# takes about four times as long.
race-twice:
	$(GO) test -race -count=2 ./internal/pool/... ./internal/compress ./internal/predict/... ./internal/positpack/... \
		./internal/server/... ./cmd/positd/... ./internal/advisor/... ./cmd/positadvise/... \
		./internal/container/... ./internal/chunkcache/... \
		./internal/resilience/... ./internal/gateway/... ./cmd/positgw/... \
		./internal/lc/...
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
# and parallel stream benchmark with 256 KiB instead of 4 MiB. The
# benchmarks cut their input into four chunks, so at four workers the race
# detector covers the pooled hot paths (buffer recycling, job reuse,
# read-ahead slots, the in-order emitter) in seconds. The numbers from a
# race build mean nothing.
bench-smoke:
	$(GO) test -race ./internal/compress -run '^$$' -bench '^BenchmarkStream' -benchtime 1x \
		-args -bench-bytes=262144

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

# Every posit32 pattern through decode32, then every float32 pattern
# through FromFloat32 and encode32 in one pass, each at es = 2 and es = 3
# (one subtest per es) and sharded over GOMAXPROCS. -v prints each sweep's
# disagreement counts and wall time.
test-exhaustive:
	$(GO) test -tags exhaustive -run '^(TestDecode32Exhaustive|TestFromFloat32Exhaustive)$$' -count=1 -timeout 30m -v ./internal/posit

ci: check race race-twice e2e bench-smoke fuzz-smoke test-exhaustive
