package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"positbench/internal/trace"
)

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read GET %s: %v", url, err)
	}
	return resp, body
}

func TestRequestIDPropagation(t *testing.T) {
	var logBuf syncBuffer
	_, ts := newTestServer(t, Config{AccessLog: &logBuf})

	// A valid inbound ID is propagated.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/compress/gzip", strings.NewReader("hello request id"))
	req.Header.Set("X-Request-ID", "client-id-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-id-42" {
		t.Errorf("echoed X-Request-ID = %q, want client-id-42", got)
	}

	// A hostile inbound ID is replaced with a generated one.
	req, _ = http.NewRequest("POST", ts.URL+"/v1/compress/gzip", strings.NewReader("x"))
	req.Header.Set("X-Request-ID", "bad id with junk")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	got := resp.Header.Get("X-Request-ID")
	if got == "" || strings.Contains(got, " ") {
		t.Errorf("hostile inbound ID not replaced: %q", got)
	}

	// No inbound ID: one is minted.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("no X-Request-ID minted for bare request")
	}

	// The access log carries the propagated ID.
	if !bytes.Contains(logBuf.Bytes(), []byte(`"request_id":"client-id-42"`)) {
		t.Errorf("access log missing propagated request_id: %s", logBuf.Bytes())
	}
}

func TestMetricsEngineSection(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postBytes(t, ts.URL+"/v1/compress/gzip", sampleF32(4096))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress status = %d", resp.StatusCode)
	}
	_ = body

	mresp, mbody := get(t, ts.URL+"/metrics")
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", mresp.StatusCode)
	}
	var snap struct {
		Inflight int64 `json:"inflight"`
		Engine   struct {
			QueueDepth     int64   `json:"queue_depth"`
			WorkersBusy    int64   `json:"workers_busy"`
			Utilization    float64 `json:"worker_utilization"`
			CompressChunks int64   `json:"compress_chunks"`
			TracesCaptured uint64  `json:"traces_captured"`
		} `json:"engine"`
	}
	if err := json.Unmarshal(mbody, &snap); err != nil {
		t.Fatalf("/metrics not JSON: %v", err)
	}
	if snap.Engine.CompressChunks < 1 {
		t.Error("engine.compress_chunks did not move after a compress request")
	}
	if snap.Engine.QueueDepth != 0 {
		t.Errorf("engine.queue_depth = %d after requests drained, want 0", snap.Engine.QueueDepth)
	}
	if snap.Inflight != 0 {
		t.Errorf("inflight = %d after requests drained, want 0", snap.Inflight)
	}
	if snap.Engine.TracesCaptured < 1 {
		t.Error("engine.traces_captured did not move with tracing enabled")
	}
}

func TestDebugTracesSpanTree(t *testing.T) {
	// The queue-wait stage under each chunk only exists on the scheduler
	// path; on a 1-CPU runner the engine falls back to the serial writer,
	// so force the scheduler (the server resolves workers in-process).
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	s, ts := newTestServer(t, Config{ChunkSize: 8 << 10})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/compress/bzip2?workers=2", bytes.NewReader(sampleF32(8192)))
	req.Header.Set("X-Request-ID", "trace-roundtrip-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress status = %d", resp.StatusCode)
	}

	dbg := httptest.NewServer(s.DebugTracesHandler())
	defer dbg.Close()
	dresp, dbody := get(t, dbg.URL)
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces status = %d", dresp.StatusCode)
	}
	var dump struct {
		Capacity int            `json:"capacity"`
		Traces   []*trace.Trace `json:"traces"`
	}
	if err := json.Unmarshal(dbody, &dump); err != nil {
		t.Fatalf("/debug/traces not JSON: %v", err)
	}
	if dump.Capacity != trace.DefaultCapacity {
		t.Errorf("capacity = %d, want %d", dump.Capacity, trace.DefaultCapacity)
	}
	var tr *trace.Trace
	for _, cand := range dump.Traces {
		if cand.ID == "trace-roundtrip-1" {
			tr = cand
		}
	}
	if tr == nil {
		t.Fatalf("trace for request ID not captured (have %d traces)", len(dump.Traces))
	}
	if tr.Root.Name != "compress" {
		t.Errorf("root span name = %q, want compress", tr.Root.Name)
	}
	var chunk *trace.SpanData
	for _, c := range tr.Root.Children {
		if c.Name == "chunk" {
			chunk = c
		}
	}
	if chunk == nil {
		t.Fatal("no chunk span under the request root")
	}
	stages := map[string]*trace.SpanData{}
	for _, c := range chunk.Children {
		stages[c.Name] = c
	}
	for _, want := range []string{"queue-wait", "compress", "frame-write"} {
		if stages[want] == nil {
			t.Errorf("chunk span missing %q stage (have %v)", want, chunkStageNames(chunk))
		}
	}
	// The codec-internal stages ride under the worker compress span.
	if cs := stages["compress"]; cs != nil {
		inner := map[string]bool{}
		for _, c := range cs.Children {
			inner[c.Name] = true
		}
		n := 0
		for _, stage := range []string{"rle1", "bwt", "mtf-rle2", "huffman"} {
			if inner[stage] {
				n++
			}
		}
		if n < 2 {
			t.Errorf("compress span has %d codec-internal stages, want >= 2 (children %v)", n, chunkStageNames(cs))
		}
	}
}

func chunkStageNames(sp *trace.SpanData) []string {
	var names []string
	for _, c := range sp.Children {
		names = append(names, c.Name)
	}
	return names
}

func TestTracingDisabled(t *testing.T) {
	s, ts := newTestServer(t, Config{TraceCapacity: -1})
	resp, _ := postBytes(t, ts.URL+"/v1/compress/gzip", sampleF32(1024))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress status = %d", resp.StatusCode)
	}
	// Request IDs still flow with tracing off.
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("no X-Request-ID with tracing disabled")
	}
	dbg := httptest.NewServer(s.DebugTracesHandler())
	defer dbg.Close()
	dresp, dbody := get(t, dbg.URL)
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces status = %d", dresp.StatusCode)
	}
	var dump struct {
		Capacity int               `json:"capacity"`
		Traces   []json.RawMessage `json:"traces"`
	}
	if err := json.Unmarshal(dbody, &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Capacity != 0 || len(dump.Traces) != 0 {
		t.Errorf("disabled tracer reported capacity=%d traces=%d", dump.Capacity, len(dump.Traces))
	}
}
