package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"positbench/internal/compress"
	"positbench/internal/container"
)

// putObject uploads body as object key and returns the response, its raw
// body, and the parsed meta document on 201.
func putObject(t *testing.T, base, key string, body []byte) (*http.Response, []byte, objectMeta) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, base+"/v1/objects/"+key, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("PUT object: %v", err)
	}
	defer resp.Body.Close()
	blob, _ := io.ReadAll(resp.Body)
	var meta objectMeta
	if resp.StatusCode == http.StatusCreated {
		if err := json.Unmarshal(blob, &meta); err != nil {
			t.Fatalf("PUT meta not JSON: %v (%s)", err, blob)
		}
	}
	return resp, blob, meta
}

// getRange issues GET /v1/read/{key} with an optional Range header.
func getRange(t *testing.T, base, key, rangeHdr string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/read/"+key, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rangeHdr != "" {
		req.Header.Set("Range", rangeHdr)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET read: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, body
}

// compressVia round-trips orig through POST /v1/compress/{codec} and
// returns the (indexed) stream the server emitted.
func compressVia(t *testing.T, base, codec string, orig []byte, chunk int) []byte {
	t.Helper()
	resp, comp := postBytes(t, fmt.Sprintf("%s/v1/compress/%s?chunk=%d", base, codec, chunk), orig)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress status = %d: %s", resp.StatusCode, comp)
	}
	return comp
}

// TestCompressEmitsTrailer pins the tentpole's server half: every stream
// POST /v1/compress emits now carries a parseable index trailer, and the
// trailer is invisible to the sequential /v1/decompress path.
func TestCompressEmitsTrailer(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	orig := sampleF32(16 << 10) // 64 KiB
	comp := compressVia(t, ts.URL, "gzip", orig, 8192)

	ix, err := container.ParseTrailer(bytes.NewReader(comp), int64(len(comp)))
	if err != nil {
		t.Fatalf("compress output has no valid trailer: %v", err)
	}
	if ix.RawLen != int64(len(orig)) {
		t.Fatalf("trailer RawLen = %d, want %d", ix.RawLen, len(orig))
	}
	if want := (len(orig) + 8191) / 8192; len(ix.Chunks) != want {
		t.Fatalf("trailer indexes %d chunks, want %d", len(ix.Chunks), want)
	}
	resp, out := postBytes(t, ts.URL+"/v1/decompress", comp)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(out, orig) {
		t.Fatalf("decompress of indexed stream: status %d, %d bytes (want %d)",
			resp.StatusCode, len(out), len(orig))
	}
}

func TestObjectRangeRead(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	orig := sampleF32(16 << 10) // 64 KiB raw
	comp := compressVia(t, ts.URL, "gzip", orig, 8192)

	resp, _, meta := putObject(t, ts.URL, "field.f32.gz", comp)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT status = %d", resp.StatusCode)
	}
	if !meta.Indexed || meta.Codec != "gzip" || meta.RawLen != int64(len(orig)) || meta.Chunks != 8 {
		t.Fatalf("PUT meta = %+v", meta)
	}

	t.Run("FullRead", func(t *testing.T) {
		resp, body := getRange(t, ts.URL, "field.f32.gz", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		if resp.Header.Get("Accept-Ranges") != "bytes" {
			t.Fatalf("Accept-Ranges = %q", resp.Header.Get("Accept-Ranges"))
		}
		if resp.Header.Get("X-Positd-Codec") != "gzip" {
			t.Fatalf("X-Positd-Codec = %q", resp.Header.Get("X-Positd-Codec"))
		}
		if !bytes.Equal(body, orig) {
			t.Fatalf("full read: %d bytes, want %d", len(body), len(orig))
		}
	})
	t.Run("PartialRange", func(t *testing.T) {
		const a, b = 10_000, 30_000 // inclusive, spans chunk boundaries
		resp, body := getRange(t, ts.URL, "field.f32.gz", fmt.Sprintf("bytes=%d-%d", a, b))
		if resp.StatusCode != http.StatusPartialContent {
			t.Fatalf("status = %d, want 206", resp.StatusCode)
		}
		wantCR := fmt.Sprintf("bytes %d-%d/%d", a, b, len(orig))
		if got := resp.Header.Get("Content-Range"); got != wantCR {
			t.Fatalf("Content-Range = %q, want %q", got, wantCR)
		}
		if !bytes.Equal(body, orig[a:b+1]) {
			t.Fatal("partial range content mismatch")
		}
	})
	t.Run("OpenEndedRange", func(t *testing.T) {
		resp, body := getRange(t, ts.URL, "field.f32.gz", "bytes=60000-")
		if resp.StatusCode != http.StatusPartialContent {
			t.Fatalf("status = %d, want 206", resp.StatusCode)
		}
		if !bytes.Equal(body, orig[60000:]) {
			t.Fatal("open-ended range content mismatch")
		}
	})
	t.Run("SuffixRange", func(t *testing.T) {
		resp, body := getRange(t, ts.URL, "field.f32.gz", "bytes=-1000")
		if resp.StatusCode != http.StatusPartialContent {
			t.Fatalf("status = %d, want 206", resp.StatusCode)
		}
		if !bytes.Equal(body, orig[len(orig)-1000:]) {
			t.Fatal("suffix range content mismatch")
		}
	})
	t.Run("QueryParams", func(t *testing.T) {
		resp, body := get(t, fmt.Sprintf("%s/v1/read/field.f32.gz?off=%d&len=%d", ts.URL, 8192+1, 4096))
		if resp.StatusCode != http.StatusPartialContent {
			t.Fatalf("status = %d, want 206", resp.StatusCode)
		}
		if !bytes.Equal(body, orig[8193:8193+4096]) {
			t.Fatal("?off/?len content mismatch")
		}
	})
	t.Run("Unsatisfiable", func(t *testing.T) {
		resp, body := getRange(t, ts.URL, "field.f32.gz", fmt.Sprintf("bytes=%d-", len(orig)))
		wantAPIError(t, resp, body, http.StatusRequestedRangeNotSatisfiable, "unsatisfiable_range")
		wantCR := fmt.Sprintf("bytes */%d", len(orig))
		if got := resp.Header.Get("Content-Range"); got != wantCR {
			t.Fatalf("416 Content-Range = %q, want %q", got, wantCR)
		}
	})
	t.Run("UnsatisfiableParams", func(t *testing.T) {
		resp, body := get(t, fmt.Sprintf("%s/v1/read/field.f32.gz?off=%d", ts.URL, len(orig)+5))
		wantAPIError(t, resp, body, http.StatusRequestedRangeNotSatisfiable, "unsatisfiable_range")
	})
	t.Run("MultiRangeIgnored", func(t *testing.T) {
		resp, body := getRange(t, ts.URL, "field.f32.gz", "bytes=0-99,200-299")
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, orig) {
			t.Fatalf("multi-range: status %d, %d bytes; want full 200", resp.StatusCode, len(body))
		}
	})
	t.Run("BadLenParam", func(t *testing.T) {
		resp, body := get(t, ts.URL+"/v1/read/field.f32.gz?off=0&len=0")
		wantAPIError(t, resp, body, http.StatusBadRequest, "bad_param")
	})
}

// TestReadV1Fallback pins the forward-compat contract end to end: an
// object uploaded as a trailer-less v1 stream stays fully readable, and a
// Range request against it degrades to a 200 full read — never an error.
func TestReadV1Fallback(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	orig := sampleF32(4 << 10)
	codec, _ := s.codec("gzip")
	var v1 bytes.Buffer
	w := compress.NewWriter(context.Background(), codec, &v1, 8192, 1) // no index sink: v1 wire format
	if _, err := w.Write(orig); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	resp, _, meta := putObject(t, ts.URL, "legacy", v1.Bytes())
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT status = %d", resp.StatusCode)
	}
	if meta.Indexed {
		t.Fatalf("v1 stream reported as indexed: %+v", meta)
	}
	resp2, body := getRange(t, ts.URL, "legacy", "bytes=100-199")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("ranged read of v1 object: status = %d, want 200 full fallback", resp2.StatusCode)
	}
	if resp2.Header.Get("Accept-Ranges") == "bytes" {
		t.Fatal("v1 object must not advertise Accept-Ranges")
	}
	if !bytes.Equal(body, orig) {
		t.Fatal("v1 fallback did not return the full object")
	}
}

// TestReadBareFrame stores a single container frame (the compressbench -z
// on-disk format) and reads it back whole.
func TestReadBareFrame(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	orig := sampleF32(1 << 10)
	codec, _ := s.codec("gzip")
	frame, err := codec.Compress(orig)
	if err != nil {
		t.Fatal(err)
	}
	resp, _, meta := putObject(t, ts.URL, "one-frame", frame)
	if resp.StatusCode != http.StatusCreated || meta.Indexed || !meta.Bare {
		t.Fatalf("PUT bare frame: status %d, meta %+v", resp.StatusCode, meta)
	}
	resp2, body := getRange(t, ts.URL, "one-frame", "")
	if resp2.StatusCode != http.StatusOK || !bytes.Equal(body, orig) {
		t.Fatalf("bare-frame read: status %d, %d bytes", resp2.StatusCode, len(body))
	}
}

func TestPutObjectValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxStoreBytes: 4 << 10})
	comp := compressVia(t, ts.URL, "gzip", sampleF32(256), 8192)

	t.Run("BadKey", func(t *testing.T) {
		resp, blob, _ := putObject(t, ts.URL, "no%2Fslashes", comp)
		wantAPIError(t, resp, blob, http.StatusBadRequest, "bad_key")
	})
	t.Run("EmptyBody", func(t *testing.T) {
		resp, _, _ := putObject(t, ts.URL, "empty", nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
	})
	t.Run("CorruptTrailerRejected", func(t *testing.T) {
		bad := append([]byte(nil), comp...)
		bad[len(bad)-17] ^= 1 // flip a body-CRC byte in the 17-byte footer
		resp, _, _ := putObject(t, ts.URL, "corrupt", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("corrupt trailer accepted: status = %d, want 400", resp.StatusCode)
		}
	})
	t.Run("StoreFull", func(t *testing.T) {
		big := compressVia(t, ts.URL, "gzip", sampleF32(64<<10), 65536)
		if len(big) <= 4<<10 {
			t.Skipf("fixture compressed too well (%d bytes) to overflow the store", len(big))
		}
		resp, _, _ := putObject(t, ts.URL, "too-big", big)
		if resp.StatusCode != http.StatusInsufficientStorage {
			t.Fatalf("status = %d, want 507", resp.StatusCode)
		}
	})
	t.Run("UnknownObject", func(t *testing.T) {
		resp, body := getRange(t, ts.URL, "never-stored", "")
		wantAPIError(t, resp, body, http.StatusNotFound, "unknown_object")
	})
}

// TestMetricsCacheReconciliation replays one range request twice and checks
// the /metrics chunk-cache section against a client-side reconstruction of
// exactly which chunks the window touches: the first pass misses once per
// touched chunk, the replay hits once per touched chunk, and the cache
// invariants (hits+misses == lookups) hold in the exported document.
func TestMetricsCacheReconciliation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	orig := sampleF32(16 << 10)
	comp := compressVia(t, ts.URL, "gzip", orig, 8192)
	if resp, _, _ := putObject(t, ts.URL, "replay", comp); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT status = %d", resp.StatusCode)
	}

	// The client computes the expected touched-chunk count from the
	// trailer it uploaded — the same arithmetic the server must do.
	ix, err := container.ParseTrailer(bytes.NewReader(comp), int64(len(comp)))
	if err != nil {
		t.Fatal(err)
	}
	const off, length = 9_000, 20_000
	first, last := ix.Locate(off, length)
	touched := int64(last - first)
	if touched < 2 {
		t.Fatalf("test window touches %d chunks; want a multi-chunk window", touched)
	}

	url := fmt.Sprintf("%s/v1/read/replay?off=%d&len=%d", ts.URL, off, length)
	for i := 0; i < 2; i++ {
		resp, body := get(t, url)
		if resp.StatusCode != http.StatusPartialContent {
			t.Fatalf("pass %d: status = %d", i, resp.StatusCode)
		}
		if !bytes.Equal(body, orig[off:off+length]) {
			t.Fatalf("pass %d: content mismatch", i)
		}
	}

	mresp, mbody := get(t, ts.URL+"/metrics")
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", mresp.StatusCode)
	}
	var snap struct {
		ChunkCache *struct {
			Lookups int64 `json:"lookups"`
			Hits    int64 `json:"hits"`
			Misses  int64 `json:"misses"`
			Entries int64 `json:"entries"`
		} `json:"chunk_cache"`
		ObjectStore *struct {
			RangeReads  int64 `json:"range_reads_206"`
			BytesServed int64 `json:"bytes_served"`
		} `json:"object_store"`
	}
	if err := json.Unmarshal(mbody, &snap); err != nil {
		t.Fatalf("/metrics not JSON: %v", err)
	}
	if snap.ChunkCache == nil || snap.ObjectStore == nil {
		t.Fatalf("/metrics missing chunk_cache or object_store sections: %s", mbody)
	}
	cc := snap.ChunkCache
	if cc.Lookups != 2*touched {
		t.Fatalf("cache lookups = %d, want %d (two passes x %d touched chunks)", cc.Lookups, 2*touched, touched)
	}
	if cc.Misses != touched || cc.Hits != touched {
		t.Fatalf("cache hits/misses = %d/%d, want %d/%d (miss once, hit on replay)",
			cc.Hits, cc.Misses, touched, touched)
	}
	if cc.Hits+cc.Misses != cc.Lookups {
		t.Fatalf("cache invariant broken in /metrics: %d + %d != %d", cc.Hits, cc.Misses, cc.Lookups)
	}
	if snap.ObjectStore.RangeReads != 2 {
		t.Fatalf("object_store range_reads_206 = %d, want 2", snap.ObjectStore.RangeReads)
	}
	if snap.ObjectStore.BytesServed != 2*length {
		t.Fatalf("object_store bytes_served = %d, want %d", snap.ObjectStore.BytesServed, 2*length)
	}
}

// TestRangeReadTraced checks the observability satellite: a range read
// leaves a "range-read" child span annotated with the chunk accounting.
func TestRangeReadTraced(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	orig := sampleF32(8 << 10)
	comp := compressVia(t, ts.URL, "gzip", orig, 8192)
	if resp, _, _ := putObject(t, ts.URL, "traced", comp); resp.StatusCode != http.StatusCreated {
		t.Fatal("PUT failed")
	}
	if resp, _ := getRange(t, ts.URL, "traced", "bytes=1000-5000"); resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("range status = %d", resp.StatusCode)
	}

	dbg := httptest.NewServer(s.DebugTracesHandler())
	defer dbg.Close()
	resp, body := get(t, dbg.URL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug traces status = %d", resp.StatusCode)
	}
	text := string(body)
	if !strings.Contains(text, `"range-read"`) {
		t.Fatalf("no range-read span in /debug/traces:\n%s", text)
	}
	for _, key := range []string{`"chunks"`, `"cache_hits"`, `"off"`, `"len"`} {
		if !strings.Contains(text, key) {
			t.Fatalf("range-read span missing %s annotation", key)
		}
	}
}
