# Build, test, and robustness gates for positbench.
#
#   make check       vet + build + unit tests (the tier-1 gate), plus vet
#                    and tests of the perfbench benchmark module, so a
#                    change that breaks the benchmark's build fails here
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
#   make smoke-server  boot a real positd, curl a compress/decompress
#                    roundtrip through it, diff byte-identity
#   make soak-smoke  ~5 s positload run against a race-built positd:
#                    zero 5xx / transport errors / roundtrip mismatches,
#                    and the engine gauges drained afterwards
#   make soak-auto   positload with the -auto arm against a race-built
#                    positd: advisor decisions flow, the cache gets hits,
#                    and auto's p50 stays within one latency-histogram
#                    bucket (2x) of direct compress — the coarse overhead
#                    gate the log2-bucketed histogram can support
#   make soak-gateway  chaos soak over real processes: positload through a
#                    race-built positgw over 3 positd backends, one backend
#                    kill -9'd and restarted mid-run; requires zero client
#                    failures and exact status-class reconciliation between
#                    the positload report and the gateway's /metrics
#   make soak-range  range-read chaos soak: an indexed object replicated to
#                    3 positd backends behind a race-built positgw, a burst
#                    of byte-compared Range reads through the front, the
#                    owning backend kill -9'd mid-burst and later restored;
#                    requires zero failed or byte-wrong reads and chunk-cache
#                    hits on the backends afterwards
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

.PHONY: all check vet build test race test-parallel test-engine test-predict test-server test-advisor test-gateway test-range smoke-server soak-smoke soak-auto soak-gateway soak-range bench-smoke bench-scaling fuzz-smoke ci

SOAK_DURATION ?= 5s
SOAK_QPS ?= 80
GW_SOAK_DURATION ?= 6s
GW_SOAK_QPS ?= 40

all: check

check: vet build test

# perfbench is its own module (it replaces positbench with ../), so ./...
# from the root does not reach it.
vet:
	$(GO) vet ./...
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

# End-to-end smoke over a real process and real sockets: boot positd on a
# random port, push a body through compress then decompress with curl, and
# require byte identity. The -addr-file handshake avoids port races.
smoke-server:
	@set -e; \
	tmp=$$(mktemp -d); trap 'kill $$pid 2>/dev/null || true; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/positd ./cmd/positd; \
	$$tmp/positd -addr 127.0.0.1:0 -addr-file $$tmp/addr >$$tmp/positd.log 2>&1 & pid=$$!; \
	for i in $$(seq 1 100); do [ -s $$tmp/addr ] && break; sleep 0.1; done; \
	[ -s $$tmp/addr ] || { echo "positd never wrote its address"; cat $$tmp/positd.log; exit 1; }; \
	addr=$$(cat $$tmp/addr); \
	curl -sSf "http://$$addr/healthz" >/dev/null; \
	head -c 262144 /dev/urandom >$$tmp/in.bin; \
	curl -sSf --data-binary @$$tmp/in.bin "http://$$addr/v1/compress/zstd" -o $$tmp/out.z; \
	curl -sSf --data-binary @$$tmp/out.z "http://$$addr/v1/decompress" -o $$tmp/out.bin; \
	cmp $$tmp/in.bin $$tmp/out.bin; \
	curl -sSf "http://$$addr/metrics" | grep -q '"codecs"'; \
	kill -TERM $$pid; wait $$pid; \
	echo "smoke-server: roundtrip byte-identical, drain clean"

# Soak smoke: a short open-loop positload burst against a positd built
# with the race detector. The run itself fails on any 5xx, transport
# error, or roundtrip mismatch (positload exits 1); afterwards the engine
# gauges must have drained back to zero and the daemon must stop clean.
soak-smoke:
	@set -e; \
	tmp=$$(mktemp -d); trap 'kill $$pid 2>/dev/null || true; rm -rf $$tmp' EXIT; \
	$(GO) build -race -o $$tmp/positd ./cmd/positd; \
	$(GO) build -o $$tmp/positload ./cmd/positload; \
	$$tmp/positd -addr 127.0.0.1:0 -addr-file $$tmp/addr >$$tmp/positd.log 2>&1 & pid=$$!; \
	for i in $$(seq 1 100); do [ -s $$tmp/addr ] && break; sleep 0.1; done; \
	[ -s $$tmp/addr ] || { echo "positd never wrote its address"; cat $$tmp/positd.log; exit 1; }; \
	addr=$$(cat $$tmp/addr); \
	$$tmp/positload -addr-file $$tmp/addr -duration $(SOAK_DURATION) -qps $(SOAK_QPS) >$$tmp/report.json; \
	drained=0; for i in $$(seq 1 100); do \
		curl -sSf "http://$$addr/metrics" >$$tmp/metrics.json; \
		if grep -q '"queue_depth": 0' $$tmp/metrics.json && grep -q '"inflight": 0' $$tmp/metrics.json && grep -q '"workers_busy": 0' $$tmp/metrics.json; \
			then drained=1; break; fi; \
		sleep 0.1; \
	done; \
	[ $$drained = 1 ] || { echo "gauges never drained"; cat $$tmp/metrics.json; exit 1; }; \
	kill -TERM $$pid; wait $$pid; \
	echo "soak-smoke: clean run, gauges drained"

# Auto-mode soak: positload mixes /v1/compress/auto into the workload (one
# auto roundtrip per 2 direct codec ops). The run must be clean, the
# advisor must have made decisions and — because the generator cycles a
# fixed body set — served repeats from its cache, and auto's p50 must stay
# within 2x of direct compress. 2x is one bucket of the log2 latency
# histogram: the smallest overhead gate that instrument can support, far
# above the <5% the advisor actually costs on cache hits, so a pass means
# "no pathological decision cost", not "free". positd is left unraced here
# (soak-smoke already races it): a raced server crawls through the first
# pass over the body set, which is exactly the all-miss phase, and the
# cache-hit assertion needs the workload to come back around.
soak-auto:
	@set -e; \
	tmp=$$(mktemp -d); trap 'kill $$pid 2>/dev/null || true; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/positd ./cmd/positd; \
	$(GO) build -o $$tmp/positload ./cmd/positload; \
	$$tmp/positd -addr 127.0.0.1:0 -addr-file $$tmp/addr >$$tmp/positd.log 2>&1 & pid=$$!; \
	for i in $$(seq 1 100); do [ -s $$tmp/addr ] && break; sleep 0.1; done; \
	[ -s $$tmp/addr ] || { echo "positd never wrote its address"; cat $$tmp/positd.log; exit 1; }; \
	addr=$$(cat $$tmp/addr); \
	$$tmp/positload -addr-file $$tmp/addr -duration $(SOAK_DURATION) -grace 3s \
		-qps $(SOAK_QPS) -codecs zstd -auto 2 -values 4096 >$$tmp/report.json; \
	grep -q '"auto"' $$tmp/report.json || { echo "report has no auto section"; cat $$tmp/report.json; exit 1; }; \
	curl -sSf "http://$$addr/metrics" >$$tmp/metrics.json; \
	decisions=$$(grep -o '"decisions": *[0-9]*' $$tmp/metrics.json | grep -o '[0-9]*$$'); \
	hits=$$(grep -o '"cache_hits": *[0-9]*' $$tmp/metrics.json | grep -o '[0-9]*$$'); \
	[ "$${decisions:-0}" -gt 0 ] || { echo "advisor made no decisions"; exit 1; }; \
	[ "$${hits:-0}" -gt 0 ] || { echo "repeated bodies never hit the decision cache"; exit 1; }; \
	autop50=$$(grep -A4 '"auto"' $$tmp/report.json | grep -o '"p50_us": *[0-9]*' | head -1 | grep -o '[0-9]*$$'); \
	compp50=$$(grep -A4 '"compress"' $$tmp/report.json | grep -o '"p50_us": *[0-9]*' | head -1 | grep -o '[0-9]*$$'); \
	[ -n "$$autop50" ] && [ -n "$$compp50" ] || { echo "missing latency sections"; cat $$tmp/report.json; exit 1; }; \
	[ "$$autop50" -le $$((2 * compp50)) ] || { echo "auto p50 $${autop50}us > 2x compress p50 $${compp50}us"; exit 1; }; \
	kill -TERM $$pid; wait $$pid; \
	echo "soak-auto: $$decisions decisions, $$hits cache hits, auto p50 $${autop50}us vs compress $${compp50}us"

# Chaos soak over real processes and real sockets: three positd backends
# behind a race-built positgw, positload driving a verified workload
# through the front while one backend is kill -9'd and later restarted on
# its original address. positload must exit 0 (no 5xx, no transport
# errors, no mismatches — the gateway masked the crash), and afterwards
# the generator's status_* counts must equal the gateway's responses_*
# counters exactly, with zero client aborts. positd is left unraced here
# (soak-smoke already races it) so one CPU can feed the raced gateway.
soak-gateway:
	@set -e; \
	tmp=$$(mktemp -d); trap 'kill $$gw $$b1 $$b2 $$b3 2>/dev/null || true; rm -rf $$tmp' EXIT; \
	$(GO) build -race -o $$tmp/positgw ./cmd/positgw; \
	$(GO) build -o $$tmp/positd ./cmd/positd; \
	$(GO) build -o $$tmp/positload ./cmd/positload; \
	for i in 1 2 3; do \
		$$tmp/positd -addr 127.0.0.1:0 -addr-file $$tmp/b$$i.addr >$$tmp/b$$i.log 2>&1 & eval b$$i=$$!; \
	done; \
	for i in 1 2 3; do \
		for j in $$(seq 1 100); do [ -s $$tmp/b$$i.addr ] && break; sleep 0.1; done; \
		[ -s $$tmp/b$$i.addr ] || { echo "backend $$i never wrote its address"; cat $$tmp/b$$i.log; exit 1; }; \
	done; \
	backends=$$(cat $$tmp/b1.addr),$$(cat $$tmp/b2.addr),$$(cat $$tmp/b3.addr); \
	$$tmp/positgw -addr 127.0.0.1:0 -addr-file $$tmp/gw.addr -backends $$backends \
		-breaker-threshold 2 -breaker-cooldown 100ms -probe-interval 50ms \
		-fail-threshold 2 -rise-threshold 1 -hedge-after 1s -quiet >$$tmp/gw.log 2>&1 & gw=$$!; \
	for j in $$(seq 1 100); do [ -s $$tmp/gw.addr ] && break; sleep 0.1; done; \
	[ -s $$tmp/gw.addr ] || { echo "gateway never wrote its address"; cat $$tmp/gw.log; exit 1; }; \
	gwaddr=$$(cat $$tmp/gw.addr); \
	$$tmp/positload -addr-file $$tmp/gw.addr -duration $(GW_SOAK_DURATION) -grace 3s \
		-qps $(GW_SOAK_QPS) -codecs gzip -values 4096 >$$tmp/report.json & ld=$$!; \
	sleep 2; \
	victim=$$(cat $$tmp/b2.addr); \
	kill -9 $$b2; echo "soak-gateway: kill -9 backend 2 ($$victim)"; \
	sleep 1; \
	$$tmp/positd -addr $$victim -addr-file $$tmp/b2.addr >>$$tmp/b2.log 2>&1 & b2=$$!; \
	echo "soak-gateway: restarted backend 2 on $$victim"; \
	wait $$ld || { echo "positload FAILED"; cat $$tmp/report.json; tail -20 $$tmp/gw.log; exit 1; }; \
	curl -sSf "http://$$gwaddr/metrics" >$$tmp/gw-metrics.json; \
	for cls in 2xx 4xx 429 5xx; do \
		want=$$(grep -o "\"status_$$cls\": *[0-9]*" $$tmp/report.json | grep -o '[0-9]*$$'); \
		got=$$(grep -o "\"responses_$$cls\": *[0-9]*" $$tmp/gw-metrics.json | grep -o '[0-9]*$$'); \
		[ "$$got" = "$$want" ] || { echo "responses_$$cls: gateway counted $$got, positload received $$want"; exit 1; }; \
	done; \
	grep -q '"responses_499": 0' $$tmp/gw-metrics.json || { echo "gateway recorded client aborts"; exit 1; }; \
	grep -q '"aborted_mid_stream": 0' $$tmp/gw-metrics.json || { echo "gateway aborted relays mid-stream"; exit 1; }; \
	retries=$$(grep -o '"retries_total": *[0-9]*' $$tmp/gw-metrics.json | grep -o '[0-9]*$$'); \
	kill -TERM $$gw; wait $$gw; \
	kill -TERM $$b1 $$b2 $$b3; wait $$b1 $$b2 $$b3; \
	echo "soak-gateway: crash masked, counters reconciled exactly (retries=$$retries)"

# Range-read chaos soak over real processes: an indexed object is written
# with compressbench -zs, PUT to all three positd backends (the replication
# that makes failover meaningful), and a burst of Range reads runs through
# a race-built positgw with every response byte-compared against a slice of
# the original input. Mid-burst the owning backend — the one the gateway's
# object-key sharding sent every read to — is kill -9'd; the burst must
# keep returning byte-exact 206es off the surviving replicas. The victim is
# then restarted, the object restored to it (the store is in-memory), and
# the burst finishes. Gate: zero failed or byte-wrong reads end to end, and
# the backends' chunk caches must show hits (the burst repeats windows, so
# a cold cache on every read means the cache is broken, not unlucky).
soak-range:
	@set -e; \
	tmp=$$(mktemp -d); trap 'kill $$gw $$b1 $$b2 $$b3 2>/dev/null || true; rm -rf $$tmp' EXIT; \
	$(GO) build -race -o $$tmp/positgw ./cmd/positgw; \
	$(GO) build -o $$tmp/positd ./cmd/positd; \
	$(GO) build -o $$tmp/compressbench ./cmd/compressbench; \
	seq 1 200000 | head -c 1048576 >$$tmp/in.bin; \
	$$tmp/compressbench -zs gzip -chunk 65536 $$tmp/in.bin $$tmp/obj.pbs; \
	for i in 1 2 3; do \
		$$tmp/positd -addr 127.0.0.1:0 -addr-file $$tmp/b$$i.addr >$$tmp/b$$i.log 2>&1 & eval b$$i=$$!; \
	done; \
	for i in 1 2 3; do \
		for j in $$(seq 1 100); do [ -s $$tmp/b$$i.addr ] && break; sleep 0.1; done; \
		[ -s $$tmp/b$$i.addr ] || { echo "backend $$i never wrote its address"; cat $$tmp/b$$i.log; exit 1; }; \
		curl -sSf -X PUT --data-binary @$$tmp/obj.pbs "http://$$(cat $$tmp/b$$i.addr)/v1/objects/soak" >/dev/null; \
	done; \
	backends=$$(cat $$tmp/b1.addr),$$(cat $$tmp/b2.addr),$$(cat $$tmp/b3.addr); \
	$$tmp/positgw -addr 127.0.0.1:0 -addr-file $$tmp/gw.addr -backends $$backends \
		-breaker-threshold 2 -breaker-cooldown 100ms -probe-interval 50ms \
		-fail-threshold 2 -rise-threshold 1 -hedge-after 1s -quiet >$$tmp/gw.log 2>&1 & gw=$$!; \
	for j in $$(seq 1 100); do [ -s $$tmp/gw.addr ] && break; sleep 0.1; done; \
	[ -s $$tmp/gw.addr ] || { echo "gateway never wrote its address"; cat $$tmp/gw.log; exit 1; }; \
	gwaddr=$$(cat $$tmp/gw.addr); \
	rr() { \
		a=$$1; n=$$2; \
		code=$$(curl -s -o $$tmp/got -w '%{http_code}' -H "Range: bytes=$$a-$$((a + n - 1))" "http://$$gwaddr/v1/read/soak") || { echo "range $$a:$$n: transport error"; return 1; }; \
		[ "$$code" = 206 ] || { echo "range $$a:$$n: status $$code, want 206"; return 1; }; \
		tail -c +$$((a + 1)) $$tmp/in.bin | head -c $$n >$$tmp/want; \
		cmp -s $$tmp/want $$tmp/got || { echo "range $$a:$$n: bytes differ"; return 1; }; \
	}; \
	windows="0:3000 131072:65536 524288:4096 700001:12345 1000000:48576"; \
	burst() { \
		for pass in $$(seq 1 $$1); do \
			for wdw in $$windows; do rr $${wdw%:*} $${wdw#*:} || return 1; done; \
		done; \
	}; \
	burst 3 || { echo "soak-range: warm burst failed"; tail -20 $$tmp/gw.log; exit 1; }; \
	victim=; \
	for i in 1 2 3; do \
		n=$$(curl -sSf "http://$$(cat $$tmp/b$$i.addr)/metrics" | grep -o '"range_reads_206": *[0-9]*' | grep -o '[0-9]*$$'); \
		[ "$${n:-0}" -gt 0 ] && { victim=$$i; break; }; \
	done; \
	[ -n "$$victim" ] || { echo "no backend served the range burst?"; exit 1; }; \
	case $$victim in 1) vpid=$$b1;; 2) vpid=$$b2;; 3) vpid=$$b3;; esac; \
	vaddr=$$(cat $$tmp/b$$victim.addr); \
	kill -9 $$vpid; echo "soak-range: kill -9 owning backend $$victim ($$vaddr) mid-burst"; \
	burst 2 || { echo "soak-range: burst failed after backend kill"; tail -20 $$tmp/gw.log; exit 1; }; \
	$$tmp/positd -addr $$vaddr -addr-file $$tmp/b$$victim.addr >>$$tmp/b$$victim.log 2>&1 & \
	case $$victim in 1) b1=$$!;; 2) b2=$$!;; 3) b3=$$!;; esac; \
	for j in $$(seq 1 100); do curl -sf "http://$$vaddr/healthz" >/dev/null && break; sleep 0.1; done; \
	curl -sSf -X PUT --data-binary @$$tmp/obj.pbs "http://$$vaddr/v1/objects/soak" >/dev/null; \
	echo "soak-range: backend $$victim restarted on $$vaddr, object restored"; \
	burst 1 || { echo "soak-range: burst failed after backend restart"; tail -20 $$tmp/gw.log; exit 1; }; \
	hits=0; \
	for i in 1 2 3; do \
		h=$$(curl -sSf "http://$$(cat $$tmp/b$$i.addr)/metrics" | grep -A3 '"chunk_cache"' | grep -o '"hits": *[0-9]*' | grep -o '[0-9]*$$'); \
		hits=$$((hits + $${h:-0})); \
	done; \
	[ "$$hits" -gt 0 ] || { echo "repeated windows never hit any backend chunk cache"; exit 1; }; \
	rreqs=$$(curl -sSf "http://$$gwaddr/metrics" | grep -o '"range_requests": *[0-9]*' | grep -o '[0-9]*$$'); \
	kill -TERM $$gw; wait $$gw; \
	kill -TERM $$b1 $$b2 $$b3; wait $$b1 $$b2 $$b3; \
	echo "soak-range: 30 range reads byte-exact across a backend crash ($$rreqs through the gateway, $$hits chunk-cache hits)"

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

ci: check race test-parallel test-engine test-predict test-server test-advisor test-gateway test-range smoke-server soak-smoke soak-auto soak-gateway soak-range bench-smoke bench-scaling fuzz-smoke
