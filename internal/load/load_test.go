package load

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"positbench/internal/compress"
	"positbench/internal/server"
	"positbench/internal/trace"
)

// TestBurstAgainstPositd is the end-to-end observability check: drive a
// short positload burst at an in-process positd, then reconcile the
// server's /metrics against the generator's own bookkeeping and walk a
// complete span tree out of /debug/traces.
func TestBurstAgainstPositd(t *testing.T) {
	// The span shapes and scheduler counters under test only exist on the
	// scheduler path; on a 1-CPU runner every engine would take the serial
	// fallback, so force the scheduler (positd resolves workers in-process).
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	pre := compress.EngineSnapshot()
	srv, err := server.New(server.Config{AccessLog: io.Discard, ChunkSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	dbg := httptest.NewServer(srv.DebugTracesHandler())
	defer dbg.Close()

	rep, err := Run(context.Background(), Config{
		BaseURL:  ts.URL,
		QPS:      200,
		Duration: 1500 * time.Millisecond,
		// Exact /metrics reconciliation needs the grace tail: an op cut
		// off at the deadline is work the server counted but we did not.
		Grace:       2 * time.Second,
		MaxInflight: 8,
		Codecs:      []string{"gzip", "bzip2"},
		Values:      8192,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("burst failed: 5xx=%d transport=%d mismatches=%d",
			rep.Status5xx, rep.Transport, rep.Mismatches)
	}
	if rep.Started == 0 || rep.Status2xx == 0 {
		t.Fatalf("burst did no work: started=%d 2xx=%d", rep.Started, rep.Status2xx)
	}
	if rep.Convert.Ops == 0 {
		t.Error("workload mix produced no convert operations")
	}
	for _, label := range []string{"compress", "decompress"} {
		if rep.Latency[label].Count == 0 {
			t.Errorf("no %s latency observations", label)
		}
	}

	// /metrics must reconcile with the generator's own bookkeeping.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Inflight int64 `json:"inflight"`
		Engine   struct {
			QueueDepth        int64   `json:"queue_depth"`
			WorkersBusy       int64   `json:"workers_busy"`
			TracesCaptured    uint64  `json:"traces_captured"`
			SchedSubmitted    int64   `json:"sched_submitted"`
			SchedLocalHits    int64   `json:"sched_local_hits"`
			SchedSteals       int64   `json:"sched_steals"`
			WorkerQueueDepths []int64 `json:"worker_queue_depths"`
			CompressChunks    int64   `json:"compress_chunks"`
			DecompressChunks  int64   `json:"decompress_chunks"`
		} `json:"engine"`
		Codecs map[string]map[string]struct {
			Ops      int64 `json:"ops"`
			BytesIn  int64 `json:"bytes_in"`
			BytesOut int64 `json:"bytes_out"`
		} `json:"codecs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Inflight != 0 {
		t.Errorf("inflight = %d after burst drained, want 0", snap.Inflight)
	}
	if snap.Engine.QueueDepth != 0 {
		t.Errorf("engine.queue_depth = %d after burst drained, want 0", snap.Engine.QueueDepth)
	}
	if snap.Engine.WorkersBusy != 0 {
		t.Errorf("engine.workers_busy = %d after burst drained, want 0", snap.Engine.WorkersBusy)
	}
	if snap.Engine.TracesCaptured == 0 {
		t.Error("no traces captured during the burst")
	}
	// Pool reconciliation: every chunk submitted during the burst was
	// executed exactly once by a pool worker — and with the burst fully
	// drained (healthy run, grace tail) the chunk counters account for
	// every submission. Counters are process-global,
	// so everything is measured as a delta from the pre-burst snapshot.
	subs := snap.Engine.SchedSubmitted - pre.SchedSubmitted
	local := snap.Engine.SchedLocalHits - pre.SchedLocalHits
	steals := snap.Engine.SchedSteals - pre.SchedSteals
	if subs == 0 {
		t.Error("burst submitted no chunks to the engine pool")
	}
	if local+steals != subs {
		t.Errorf("scheduler leaked work: local %d + stolen %d != submitted %d", local, steals, subs)
	}
	chunks := (snap.Engine.CompressChunks - pre.CompressChunks) +
		(snap.Engine.DecompressChunks - pre.DecompressChunks)
	if chunks != subs {
		t.Errorf("chunk counters disagree with the scheduler: %d chunks executed, %d submitted", chunks, subs)
	}
	for slot, depth := range snap.Engine.WorkerQueueDepths {
		if depth != 0 {
			t.Errorf("worker_queue_depths[%d] = %d after burst drained, want 0", slot, depth)
		}
	}
	for codec, want := range rep.Compress {
		got := snap.Codecs[codec]["compress"]
		if got.Ops != want.Ops || got.BytesIn != want.BytesIn || got.BytesOut != want.BytesOut {
			t.Errorf("codec %s compress: server {ops %d in %d out %d} != generator {ops %d in %d out %d}",
				codec, got.Ops, got.BytesIn, got.BytesOut, want.Ops, want.BytesIn, want.BytesOut)
		}
	}
	// Decompress op counts must reconcile too (byte totals include both
	// wire formats, which the server accounts identically).
	var wantDecOps, gotDecOps int64
	for _, want := range rep.Decompress {
		wantDecOps += want.Ops
	}
	for _, ops := range snap.Codecs {
		gotDecOps += ops["decompress"].Ops
	}
	if gotDecOps != wantDecOps {
		t.Errorf("decompress ops: server %d != generator %d", gotDecOps, wantDecOps)
	}

	// /debug/traces must hold a complete span tree for a compress
	// roundtrip: root -> chunk -> {queue-wait, compress, frame-write},
	// with codec-internal stages under the worker compress span.
	dresp, err := http.Get(dbg.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	var dump struct {
		Traces []*trace.Trace `json:"traces"`
	}
	if err := json.NewDecoder(dresp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Traces) == 0 {
		t.Fatal("trace ring is empty after the burst")
	}
	var found bool
	for _, tr := range dump.Traces {
		if tr.Root.Name != "compress" {
			continue
		}
		for _, chunk := range tr.Root.Children {
			if chunk.Name != "chunk" {
				continue
			}
			stages := map[string]*trace.SpanData{}
			for _, st := range chunk.Children {
				stages[st.Name] = st
			}
			cs := stages["compress"]
			if stages["queue-wait"] == nil || cs == nil || stages["frame-write"] == nil {
				continue
			}
			inner := 0
			for range cs.Children {
				inner++
			}
			if inner >= 2 {
				found = true
			}
		}
	}
	if !found {
		t.Error("no trace shows a complete chunk span tree (queue-wait + compress with >= 2 codec stages + frame-write)")
	}
}

// TestAutoArmReconciles drives a mix that includes the -auto arm and
// reconciles the generator's per-chosen-codec auto bookkeeping exactly
// against the server's codecs.<name>.auto metrics and advisor counters.
func TestAutoArmReconciles(t *testing.T) {
	srv, err := server.New(server.Config{AccessLog: io.Discard, ChunkSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rep, err := Run(context.Background(), Config{
		BaseURL:  ts.URL,
		QPS:      150,
		Duration: 1500 * time.Millisecond,
		// Exact reconciliation needs the grace tail, as in the burst test.
		Grace:        2 * time.Second,
		MaxInflight:  8,
		Codecs:       []string{"gzip"},
		ConvertEvery: -1,
		AutoEvery:    3,
		Values:       4096,
		Seed:         11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("auto burst failed: 5xx=%d transport=%d mismatches=%d",
			rep.Status5xx, rep.Transport, rep.Mismatches)
	}
	var autoOps int64
	for _, ob := range rep.Auto {
		autoOps += ob.Ops
	}
	if autoOps == 0 {
		t.Fatal("AutoEvery=3 produced no auto operations")
	}
	if rep.Latency["auto"].Count == 0 {
		t.Error("no auto latency observations")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Advisor struct {
			Decisions  int64            `json:"decisions"`
			CacheHits  int64            `json:"cache_hits"`
			Fallbacks  int64            `json:"fallbacks"`
			HitRatePct float64          `json:"hit_rate_pct"`
			Chosen     map[string]int64 `json:"chosen"`
		} `json:"advisor"`
		Codecs map[string]map[string]struct {
			Ops      int64 `json:"ops"`
			BytesIn  int64 `json:"bytes_in"`
			BytesOut int64 `json:"bytes_out"`
		} `json:"codecs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}

	// Every auto op the generator booked must appear, byte for byte, under
	// the chosen codec's "auto" op on the server.
	for codec, want := range rep.Auto {
		got := snap.Codecs[codec]["auto"]
		if got.Ops != want.Ops || got.BytesIn != want.BytesIn || got.BytesOut != want.BytesOut {
			t.Errorf("codec %s auto: server {ops %d in %d out %d} != generator {ops %d in %d out %d}",
				codec, got.Ops, got.BytesIn, got.BytesOut, want.Ops, want.BytesIn, want.BytesOut)
		}
	}
	// And nothing else: server-side auto ops across all codecs must equal
	// the generator's total, so no op was double-booked under "compress".
	var gotAutoOps int64
	for _, ops := range snap.Codecs {
		gotAutoOps += ops["auto"].Ops
	}
	if gotAutoOps != autoOps {
		t.Errorf("auto ops: server %d != generator %d", gotAutoOps, autoOps)
	}
	if snap.Advisor.Decisions != autoOps {
		t.Errorf("advisor decisions %d != auto ops %d", snap.Advisor.Decisions, autoOps)
	}
	var chosenTotal int64
	for _, n := range snap.Advisor.Chosen {
		chosenTotal += n
	}
	if chosenTotal != autoOps {
		t.Errorf("advisor chosen total %d != auto ops %d", chosenTotal, autoOps)
	}
	// The workload cycles a fixed body set, so repeats must hit the
	// decision cache once the set has been seen.
	if autoOps > 20 && snap.Advisor.CacheHits == 0 {
		t.Error("repeated bodies never hit the advisor cache")
	}
	if snap.Advisor.Fallbacks != 0 {
		t.Errorf("healthy traffic triggered %d advisor fallbacks", snap.Advisor.Fallbacks)
	}
}

// TestOpenLoopDropsUnderSaturation pins the open-loop property: with a
// stalled server and a tiny concurrency cap, excess ticks are dropped
// rather than queued.
func TestOpenLoopDropsUnderSaturation(t *testing.T) {
	release := make(chan struct{})
	stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer stall.Close()
	defer close(release)

	rep, err := Run(context.Background(), Config{
		BaseURL:     stall.URL,
		QPS:         500,
		Duration:    400 * time.Millisecond,
		MaxInflight: 2,
		Values:      64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dropped == 0 {
		t.Errorf("stalled server produced no drops (ticks=%d started=%d)", rep.Ticks, rep.Started)
	}
	if rep.Started > int64(2+rep.Ticks/10) {
		t.Errorf("open loop queued behind a stalled server: started=%d with cap 2", rep.Started)
	}
}
