package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"positbench/internal/advisor"
	"positbench/internal/trace"
)

// TestAutoRoundtrip drives the full auto path: the advisor picks a codec
// from the stream head, the whole body (larger than the sample budget, so
// the prefix-replay path is exercised) streams through it, and
// /v1/decompress inverts the result via the container's codec sniff.
func TestAutoRoundtrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	orig := sampleF32(64 << 10) // 256 KiB, 4x the default sample budget

	resp, comp := postBytes(t, ts.URL+"/v1/compress/auto?chunk=8192", orig)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("auto status = %d: %s", resp.StatusCode, comp)
	}
	chosen := resp.Header.Get("X-Positd-Codec")
	if chosen == "" || chosen == "auto" {
		t.Fatalf("X-Positd-Codec = %q, want a concrete codec", chosen)
	}
	if src := resp.Header.Get(headerAutoSource); src != advisor.SourceTrial {
		t.Fatalf("first auto request source = %q, want %q", src, advisor.SourceTrial)
	}
	if resp.Header.Get(headerAutoFallback) != "" {
		t.Fatal("healthy float data must not fall back")
	}
	if resp.Header.Get(headerAutoConfidence) == "" {
		t.Fatal("missing confidence header")
	}

	resp2, out := postBytes(t, ts.URL+"/v1/decompress", comp)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("decompress status = %d: %s", resp2.StatusCode, out)
	}
	if got := resp2.Header.Get("X-Positd-Codec"); got != chosen {
		t.Fatalf("decompress sniffed %q, auto chose %q", got, chosen)
	}
	if !bytes.Equal(out, orig) {
		t.Fatalf("auto roundtrip mismatch: %d bytes in, %d out", len(orig), len(out))
	}

	// An identical body is an identical sample: the second request must be
	// served from the decision cache and choose the same codec.
	resp3, _ := postBytes(t, ts.URL+"/v1/compress/auto?chunk=8192", orig)
	if src := resp3.Header.Get(headerAutoSource); src != advisor.SourceCache {
		t.Fatalf("second auto request source = %q, want %q", src, advisor.SourceCache)
	}
	if got := resp3.Header.Get("X-Positd-Codec"); got != chosen {
		t.Fatalf("cached decision chose %q, first chose %q", got, chosen)
	}
}

// TestAutoMetrics checks the /metrics surface: auto operations are
// accounted under the chosen codec's "auto" op (never "compress"), and the
// advisor section exports decisions and the cache hit rate.
func TestAutoMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	orig := sampleF32(4096)
	var chosen string
	for i := 0; i < 3; i++ {
		resp, body := postBytes(t, ts.URL+"/v1/compress/auto", orig)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("auto status = %d: %s", resp.StatusCode, body)
		}
		chosen = resp.Header.Get("X-Positd-Codec")
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var snap MetricsSnapshot
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Advisor == nil {
		t.Fatal("/metrics has no advisor section")
	}
	if snap.Advisor.Decisions != 3 || snap.Advisor.CacheHits != 2 || snap.Advisor.CacheMisses != 1 {
		t.Fatalf("advisor stats = %+v, want 3 decisions / 2 hits / 1 miss", snap.Advisor)
	}
	if want := 100 * 2.0 / 3.0; snap.Advisor.HitRatePct < want-0.01 || snap.Advisor.HitRatePct > want+0.01 {
		t.Fatalf("hit rate %.2f, want %.2f", snap.Advisor.HitRatePct, want)
	}
	if snap.Advisor.Chosen[chosen] != 3 {
		t.Fatalf("chosen[%s] = %d, want 3", chosen, snap.Advisor.Chosen[chosen])
	}
	auto := snap.Codecs[chosen]["auto"]
	if auto.Ops != 3 || auto.BytesIn != int64(3*len(orig)) {
		t.Fatalf("codecs.%s.auto = %+v, want 3 ops / %d bytes in", chosen, auto, 3*len(orig))
	}
	if auto.Ratio <= 1 {
		t.Fatalf("auto ratio %.3f, want > 1", auto.Ratio)
	}
	if _, hasCompress := snap.Codecs[chosen]["compress"]; hasCompress {
		t.Fatal("auto requests must not pollute the direct-compress op")
	}
}

// TestAutoHints covers ?hint= constraint and rejection.
func TestAutoHints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	orig := sampleF32(2048)

	resp, comp := postBytes(t, ts.URL+"/v1/compress/auto?hint=gzip", orig)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hinted auto status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Positd-Codec"); got != "gzip" {
		t.Fatalf("hint=gzip chose %q", got)
	}
	if resp2, out := postBytes(t, ts.URL+"/v1/decompress", comp); resp2.StatusCode != http.StatusOK || !bytes.Equal(out, orig) {
		t.Fatalf("hinted roundtrip failed: status %d", resp2.StatusCode)
	}

	// Comma-separated and repeated hints both parse.
	resp3, _ := postBytes(t, ts.URL+"/v1/compress/auto?hint=gzip,zstd&hint=lz4", orig)
	switch resp3.Header.Get("X-Positd-Codec") {
	case "gzip", "zstd", "lz4":
	default:
		t.Fatalf("constrained choice %q outside hint set", resp3.Header.Get("X-Positd-Codec"))
	}

	resp4, body := postBytes(t, ts.URL+"/v1/compress/auto?hint=nope", orig)
	wantAPIError(t, resp4, body, http.StatusBadRequest, "bad_param")
}

// TestAutoLCPipeline forces the LC candidate and verifies the decided
// pipeline travels in the response header and the stream decompresses
// through the registry's self-describing "lc" entry.
func TestAutoLCPipeline(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	orig := sampleF32(8192)

	resp, comp := postBytes(t, ts.URL+"/v1/compress/auto?hint=lc", orig)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lc auto status = %d: %s", resp.StatusCode, comp)
	}
	if got := resp.Header.Get("X-Positd-Codec"); got != "lc" {
		t.Fatalf("hint=lc chose %q", got)
	}
	if resp.Header.Get(headerAutoPipeline) == "" {
		t.Fatal("lc decision must name its pipeline")
	}
	resp2, out := postBytes(t, ts.URL+"/v1/decompress", comp)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("lc decompress status = %d: %s", resp2.StatusCode, out)
	}
	if !bytes.Equal(out, orig) {
		t.Fatal("lc auto roundtrip mismatch")
	}
}

// TestAutoEmptyBody: nothing to sample degrades to the default codec with
// the fallback marker, and still produces a valid (empty) stream.
func TestAutoEmptyBody(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, comp := postBytes(t, ts.URL+"/v1/compress/auto", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty auto status = %d", resp.StatusCode)
	}
	if resp.Header.Get(headerAutoFallback) != "true" {
		t.Fatal("empty body should be a fallback decision")
	}
	if got := resp.Header.Get("X-Positd-Codec"); got != advisor.DefaultCodecName {
		t.Fatalf("fallback codec %q, want %q", got, advisor.DefaultCodecName)
	}
	// The stream is just the terminator; decompress yields no bytes but
	// must not error.
	resp2, out := postBytes(t, ts.URL+"/v1/decompress", comp)
	if resp2.StatusCode == http.StatusOK && len(out) != 0 {
		t.Fatalf("empty roundtrip returned %d bytes", len(out))
	}
}

// TestAutoDecisionTraced asserts the advise span subtree lands in the
// debug trace ring with its stages and decision annotations.
func TestAutoDecisionTraced(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if resp, body := postBytes(t, ts.URL+"/v1/compress/auto", sampleF32(2048)); resp.StatusCode != http.StatusOK {
		t.Fatalf("auto status = %d: %s", resp.StatusCode, body)
	}

	dts := httptest.NewServer(s.DebugTracesHandler())
	defer dts.Close()
	resp, err := http.Get(dts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Traces []*trace.Trace `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var advise *trace.SpanData
	for _, tr := range doc.Traces {
		if tr.Root.Name != "auto" {
			continue
		}
		for _, c := range tr.Root.Children {
			if c.Name == "advise" {
				advise = c
			}
		}
	}
	if advise == nil {
		t.Fatal("no advise span in /debug/traces")
	}
	var stages int
	for _, c := range advise.Children {
		if c.Name == "fingerprint" || (len(c.Name) > 6 && c.Name[:6] == "trial:") {
			stages++
		}
	}
	if stages < 2 {
		t.Fatalf("advise span has %d decision stages, want fingerprint + trials", stages)
	}
	attrs := map[string]string{}
	for _, a := range advise.Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["codec"] == "" || attrs["source"] == "" || attrs["confidence"] == "" {
		t.Fatalf("advise span attrs = %v, want codec/source/confidence", attrs)
	}
}
