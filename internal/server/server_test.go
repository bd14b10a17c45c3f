package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"positbench/internal/compress"
	"positbench/internal/compress/all"
	"positbench/internal/container"
	"positbench/internal/httpshell"
	"positbench/internal/posit"
)

// newTestServer builds a Server plus an httptest front end. Access logs are
// discarded unless the config says otherwise.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.AccessLog == nil {
		cfg.AccessLog = io.Discard
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// sampleF32 builds a deterministic float-field body: compressible, non-trivial,
// and valid input for every endpoint including /v1/convert and /v1/analyze.
func sampleF32(n int) []byte {
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(math.Sin(float64(i)/37.0)) * float32(1+i%5)
	}
	return posit.EncodeFloat32LE(vals)
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	return postBytes(t, url, []byte(body))
}

func postBytes(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response of POST %s: %v", url, err)
	}
	return resp, out
}

// wantAPIError asserts status and the machine-readable error kind.
func wantAPIError(t *testing.T, resp *http.Response, body []byte, status int, kind string) {
	t.Helper()
	if resp.StatusCode != status {
		t.Fatalf("status = %d (%s), want %d", resp.StatusCode, bytes.TrimSpace(body), status)
	}
	var ae httpshell.ErrorBody
	if err := json.Unmarshal(body, &ae); err != nil {
		t.Fatalf("error body %q is not JSON: %v", body, err)
	}
	if ae.Kind != kind {
		t.Fatalf("error kind = %q (%s), want %q", ae.Kind, ae.Error, kind)
	}
}

// TestRoundtripEveryCodec is the core acceptance test: a body POSTed through
// /v1/compress/{codec} and back through /v1/decompress must come out
// byte-identical, for every codec in the registry, over a multi-chunk stream.
func TestRoundtripEveryCodec(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	orig := sampleF32(8 << 10) // 32 KiB, several 8 KiB chunks
	for _, name := range all.Names() {
		t.Run(name, func(t *testing.T) {
			resp, comp := postBytes(t, ts.URL+"/v1/compress/"+name+"?chunk=8192", orig)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("compress status = %d: %s", resp.StatusCode, comp)
			}
			if got := resp.Header.Get("X-Positd-Codec"); got != name {
				t.Fatalf("X-Positd-Codec = %q, want %q", got, name)
			}
			if resp.Header.Get("Content-Type") != contentTypeStream {
				t.Fatalf("Content-Type = %q", resp.Header.Get("Content-Type"))
			}
			resp2, out := postBytes(t, ts.URL+"/v1/decompress", comp)
			if resp2.StatusCode != http.StatusOK {
				t.Fatalf("decompress status = %d: %s", resp2.StatusCode, out)
			}
			if got := resp2.Header.Get("X-Positd-Codec"); got != name {
				t.Fatalf("decompress X-Positd-Codec = %q, want %q", got, name)
			}
			if !bytes.Equal(out, orig) {
				t.Fatalf("roundtrip mismatch: %d bytes in, %d bytes out", len(orig), len(out))
			}
		})
	}
}

// TestDecompressBareFrame feeds /v1/decompress a single container frame (the
// compressbench on-disk format) rather than a chunked stream.
func TestDecompressBareFrame(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	orig := sampleF32(2048)
	for _, c := range all.Codecs() {
		t.Run(c.Name(), func(t *testing.T) {
			frame, err := c.Compress(orig)
			if err != nil {
				t.Fatal(err)
			}
			resp, out := postBytes(t, ts.URL+"/v1/decompress", frame)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d: %s", resp.StatusCode, out)
			}
			if !bytes.Equal(out, orig) {
				t.Fatalf("bare-frame roundtrip mismatch")
			}
		})
	}
}

func TestCompressUnknownCodec(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/compress/nope", "data")
	wantAPIError(t, resp, body, http.StatusNotFound, "unknown_codec")
}

func TestCompressBadParam(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/compress/gzip?workers=abc", "data")
	wantAPIError(t, resp, body, http.StatusBadRequest, "bad_param")
}

// TestOversizedBody covers 413 on both detection paths: a declared
// Content-Length over the cap (rejected before any read) and a chunked upload
// that trips the bounding reader mid-stream.
func TestOversizedBody(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 1 << 10})
	big := sampleF32(2 << 10) // 8 KiB > 1 KiB cap

	t.Run("DeclaredLength", func(t *testing.T) {
		resp, body := postBytes(t, ts.URL+"/v1/compress/gzip", big)
		wantAPIError(t, resp, body, http.StatusRequestEntityTooLarge, "body_too_large")
	})

	t.Run("ChunkedUpload", func(t *testing.T) {
		req, err := http.NewRequest("POST", ts.URL+"/v1/compress/gzip", struct{ io.Reader }{bytes.NewReader(big)})
		if err != nil {
			t.Fatal(err)
		}
		// Hiding the reader's length forces chunked transfer encoding, so the
		// server cannot see the size up front.
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		wantAPIError(t, resp, body, http.StatusRequestEntityTooLarge, "body_too_large")
	})

	t.Run("AnalyzeDeclaredLength", func(t *testing.T) {
		resp, body := postBytes(t, ts.URL+"/v1/analyze", big)
		wantAPIError(t, resp, body, http.StatusRequestEntityTooLarge, "body_too_large")
	})
}

// TestDecompressFaultClasses drives each corruption class through the HTTP
// path and asserts the taxonomy-mapped status and kind.
func TestDecompressFaultClasses(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	codec, err := all.Get("gzip")
	if err != nil {
		t.Fatal(err)
	}
	orig := sampleF32(2048)
	frame, err := codec.Compress(orig)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("EmptyBody", func(t *testing.T) {
		resp, body := post(t, ts.URL+"/v1/decompress", "")
		wantAPIError(t, resp, body, http.StatusBadRequest, "truncated")
	})

	t.Run("BadMagic", func(t *testing.T) {
		resp, body := post(t, ts.URL+"/v1/decompress", strings.Repeat("X", 64))
		wantAPIError(t, resp, body, http.StatusBadRequest, "bad_magic")
	})

	t.Run("TruncatedHeader", func(t *testing.T) {
		resp, body := postBytes(t, ts.URL+"/v1/decompress", frame[:6])
		wantAPIError(t, resp, body, http.StatusBadRequest, "truncated")
	})

	t.Run("UnsupportedVersion", func(t *testing.T) {
		mut := append([]byte(nil), frame...)
		mut[len(container.Magic)] = 0x7F
		resp, body := postBytes(t, ts.URL+"/v1/decompress", mut)
		wantAPIError(t, resp, body, http.StatusBadRequest, "unsupported_version")
	})

	t.Run("CorruptPayload", func(t *testing.T) {
		mut := append([]byte(nil), frame...)
		mut[len(mut)-1] ^= 0xFF
		resp, body := postBytes(t, ts.URL+"/v1/decompress", mut)
		wantAPIError(t, resp, body, http.StatusBadRequest, "corrupt")
	})

	t.Run("UnknownStreamCodec", func(t *testing.T) {
		// A well-formed frame naming a codec the registry does not serve.
		payload := []byte("data")
		f := append([]byte(nil), container.Magic[:]...)
		f = append(f, container.Version, byte(len("mystery")))
		f = append(f, "mystery"...)
		f = binary.AppendUvarint(f, uint64(len(payload)))
		f = binary.AppendUvarint(f, uint64(len(payload)))
		f = binary.LittleEndian.AppendUint32(f, container.Checksum(payload))
		f = binary.LittleEndian.AppendUint32(f, container.Checksum(payload))
		f = append(f, payload...)
		resp, body := postBytes(t, ts.URL+"/v1/decompress", f)
		wantAPIError(t, resp, body, http.StatusBadRequest, "unknown_codec")
	})

	t.Run("OutputLimit", func(t *testing.T) {
		resp, body := postBytes(t, ts.URL+"/v1/decompress?max_out=16", frame)
		wantAPIError(t, resp, body, http.StatusRequestEntityTooLarge, "limit_exceeded")
	})
}

// TestSaturationSheds429 fills the admission semaphore with a request whose
// body never finishes, then asserts the next request is shed immediately with
// 429 + Retry-After rather than queued.
func TestSaturationSheds429(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 1})

	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		req, err := http.NewRequest("POST", ts.URL+"/v1/compress/gzip", pr)
		if err != nil {
			done <- err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("blocked request finished with status %d", resp.StatusCode)
			}
		}
		done <- err
	}()

	// Wait until the slow request actually holds the semaphore.
	deadline := time.Now().Add(5 * time.Second)
	for s.metrics.inflight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("blocked request never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	resp, body := post(t, ts.URL+"/v1/compress/gzip", "shed me")
	wantAPIError(t, resp, body, http.StatusTooManyRequests, "saturated")
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}
	if got := s.metrics.rejected.Load(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}

	// Ops endpoints bypass admission: the saturated server still answers.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz under saturation = %d, want 200", hresp.StatusCode)
	}

	pw.Write(sampleF32(64))
	pw.Close()
	if err := <-done; err != nil {
		t.Fatalf("blocked request failed: %v", err)
	}
}

func TestConvertRoundtrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	vals := []float32{0, 1, -1, 0.5, 3.75, -123.25, 1e-3, 6.5e4}
	body := posit.EncodeFloat32LE(vals)

	resp, words := postBytes(t, ts.URL+"/v1/convert?to=posit&n=32&es=3", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("convert status = %d: %s", resp.StatusCode, words)
	}
	if got := resp.Header.Get(headerValues); got != fmt.Sprint(len(vals)) {
		t.Fatalf("%s = %q, want %d", headerValues, got, len(vals))
	}
	if len(words) != 4*len(vals) {
		t.Fatalf("posit body = %d bytes, want %d", len(words), 4*len(vals))
	}

	resp2, back := postBytes(t, ts.URL+"/v1/convert?to=float32&n=32&es=3", words)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("inverse status = %d: %s", resp2.StatusCode, back)
	}
	got, err := posit.DecodeFloat32LE(back)
	if err != nil {
		t.Fatal(err)
	}

	// The HTTP path must agree with the library exactly.
	cfg := posit.Config{N: 32, ES: 3}
	want := cfg.ToFloat32Slice(nil, cfg.FromFloat32Slice(nil, vals))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("value %d: HTTP roundtrip %g, library roundtrip %g", i, got[i], want[i])
		}
	}
}

func TestConvertRejects(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, url, body string
		status          int
		kind            string
	}{
		{"BadTarget", "/v1/convert?to=doubles", "\x00\x00\x00\x00", http.StatusBadRequest, "bad_param"},
		{"BadConfig", "/v1/convert?n=64", "\x00\x00\x00\x00", http.StatusBadRequest, "bad_param"},
		{"Misaligned", "/v1/convert", "abc", http.StatusBadRequest, "misaligned_input"},
		{"Empty", "/v1/convert", "", http.StatusBadRequest, "empty_input"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(t, ts.URL+tc.url, tc.body)
			wantAPIError(t, resp, body, tc.status, tc.kind)
		})
	}
}

func TestAnalyze(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	vals := []float32{0, 1.5, -2.25, float32(math.Inf(1)), float32(math.NaN()), 1e-40}
	resp, body := postBytes(t, ts.URL+"/v1/analyze", posit.EncodeFloat32LE(vals))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var got analyzeResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("analyze body not JSON: %v\n%s", err, body)
	}
	if got.Values != len(vals) {
		t.Fatalf("values = %d, want %d", got.Values, len(vals))
	}
	wantClasses := map[string]int{"zero": 1, "normal": 3, "inf": 1, "nan": 1, "subnormal": 1}
	for class, want := range wantClasses {
		if class == "normal" {
			continue // counted below
		}
		if got.Classes[class] != want {
			t.Fatalf("classes[%s] = %d, want %d (%v)", class, got.Classes[class], want, got.Classes)
		}
	}
	total := 0
	for _, n := range got.Classes {
		total += n
	}
	if total != len(vals) {
		t.Fatalf("class counts sum to %d, want %d", total, len(vals))
	}
	if got.Posit.Config == "" || got.Posit.Exact < 0 {
		t.Fatalf("posit roundtrip block missing: %+v", got.Posit)
	}

	t.Run("Misaligned", func(t *testing.T) {
		resp, body := post(t, ts.URL+"/v1/analyze", "abcde")
		wantAPIError(t, resp, body, http.StatusBadRequest, "misaligned_input")
	})
	t.Run("Empty", func(t *testing.T) {
		resp, body := post(t, ts.URL+"/v1/analyze", "")
		wantAPIError(t, resp, body, http.StatusBadRequest, "empty_input")
	})
}

func TestCodecsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/codecs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got []codecsResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	// The registry is all.Names() plus the "lc" entry the advisor adds so
	// auto-mode LC streams stay decompressible.
	want := append(all.Names(), "lc")
	if len(got) != len(want) {
		t.Fatalf("got %d codecs, want %d", len(got), len(want))
	}
	for i, entry := range got {
		if entry.Name != want[i] {
			t.Fatalf("codec %d = %q, want %q", i, entry.Name, want[i])
		}
		if !entry.AdvisorEligible {
			t.Fatalf("codec %q not advisor-eligible; default advisor should cover the registry", entry.Name)
		}
	}
	// Capability hints: the frame forwards the inner codec's weight class
	// and stage tracing, so fpc32 must read light+traced while bzip2 is
	// neither.
	byName := map[string]codecsResponse{}
	for _, entry := range got {
		byName[entry.Name] = entry
	}
	if e := byName["fpc32"]; !e.LightDecoder {
		t.Fatalf("fpc32 hints = %+v, want light decoder", e)
	}
	if e := byName["bzip2"]; e.LightDecoder {
		t.Fatalf("bzip2 hints = %+v, want heavy decoder", e)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Generate some traffic first so /metrics has something to show.
	orig := sampleF32(1024)
	resp, comp := postBytes(t, ts.URL+"/v1/compress/gzip", orig)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress status = %d", resp.StatusCode)
	}
	if resp2, _ := postBytes(t, ts.URL+"/v1/decompress", comp); resp2.StatusCode != http.StatusOK {
		t.Fatalf("decompress status = %d", resp2.StatusCode)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health healthzResponse
	json.NewDecoder(hresp.Body).Decode(&health)
	hresp.Body.Close()
	if health.Status != "ok" || health.Codecs != len(all.Names())+1 { // +1: the advisor's "lc" entry
		t.Fatalf("healthz = %+v", health)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap MetricsSnapshot
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if snap.Requests["compress"].Total < 1 || snap.Requests["decompress"].Total < 1 {
		t.Fatalf("route counters missing: %+v", snap.Requests)
	}
	gz := snap.Codecs["gzip"]
	if gz["compress"].Ops < 1 || gz["decompress"].Ops < 1 {
		t.Fatalf("codec counters missing: %+v", snap.Codecs)
	}
	if gz["compress"].Ratio <= 1 {
		t.Fatalf("gzip compress ratio = %v, want > 1 on smooth data", gz["compress"].Ratio)
	}
	if gz["compress"].Latency.P99US < gz["compress"].Latency.P50US {
		t.Fatalf("latency quantiles not monotone: %+v", gz["compress"].Latency)
	}
}

// /metrics encodes its snapshot after the registry lock is released, so the
// snapshot must share no map with requests still finishing. Under -race a
// shared map is a reported race; without it, a crash at worst.
func TestMetricsSnapshotWhileRecording(t *testing.T) {
	m := newMetrics()
	m.recordRequest(httpshell.Record{Route: "compress", Status: http.StatusOK, BytesOut: 1}, time.Millisecond)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			m.recordRequest(httpshell.Record{Route: "compress", Status: 200 + i%300, BytesOut: 1}, time.Millisecond)
		}
	}()
	for i := 0; i < 1000; i++ {
		if _, err := json.Marshal(m.snapshot()); err != nil {
			t.Fatal(err)
		}
	}
	<-done
}

func TestAccessLogWritesJSONLines(t *testing.T) {
	var buf syncBuffer
	_, ts := newTestServer(t, Config{AccessLog: &buf})
	if resp, _ := post(t, ts.URL+"/v1/compress/gzip", "hello"); resp.StatusCode != http.StatusOK {
		t.Fatalf("compress failed")
	}
	line := strings.TrimSpace(buf.String())
	var rec httpshell.Record
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("access log line %q not JSON: %v", line, err)
	}
	if rec.Route != "compress" || rec.Status != http.StatusOK || rec.Method != "POST" {
		t.Fatalf("access record = %+v", rec)
	}
}

// The access log's bytes_in counts the body bytes the handler read, not
// the declared Content-Length: a chunked upload (no declared length) logs
// its true size, and a body refused on its declared length before any read
// logs 0.
func TestAccessLogBytesIn(t *testing.T) {
	var buf syncBuffer
	_, ts := newTestServer(t, Config{AccessLog: &buf, MaxBodyBytes: 1 << 20})

	small := sampleF32(4 << 10) // 16 KiB
	req, err := http.NewRequest("POST", ts.URL+"/v1/compress/gzip", struct{ io.Reader }{bytes.NewReader(small)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chunked compress = %d, want 200", resp.StatusCode)
	}
	resp, body := postBytes(t, ts.URL+"/v1/compress/gzip", make([]byte, 2<<20))
	wantAPIError(t, resp, body, http.StatusRequestEntityTooLarge, "body_too_large")

	var recs []httpshell.Record
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec httpshell.Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("access log line %q not JSON: %v", line, err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d access records, want 2: %+v", len(recs), recs)
	}
	if recs[0].BytesIn != int64(len(small)) {
		t.Errorf("chunked upload logged bytes_in %d, want %d", recs[0].BytesIn, len(small))
	}
	if recs[1].Status != http.StatusRequestEntityTooLarge || recs[1].BytesIn != 0 {
		t.Errorf("refused body logged status %d bytes_in %d, want 413 and 0", recs[1].Status, recs[1].BytesIn)
	}
}

// syncBuffer is a mutex-free stand-in safe here because the shell's access
// log already serializes writes; reads happen only after the response
// returns.
type syncBuffer struct{ bytes.Buffer }

func TestRequestDeadline(t *testing.T) {
	// A client that sends headers and then stalls forever must not pin a
	// worker: the connection read deadline fires, the body read errors, and
	// the stalled request ends with 408 well before any client-side timeout.
	_, ts := newTestServer(t, Config{RequestTimeout: 200 * time.Millisecond})
	pr, pw := io.Pipe()
	// Escape hatch so a regression cannot wedge the whole test binary: the
	// transport's write loop blocks in pr.Read until the pipe dies.
	timer := time.AfterFunc(10*time.Second, func() { pw.CloseWithError(io.ErrClosedPipe) })
	defer timer.Stop()
	defer pw.Close()

	req, err := http.NewRequest("POST", ts.URL+"/v1/compress/gzip", pr)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	elapsed := time.Since(start)
	if err == nil {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		wantAPIError(t, resp, body, http.StatusRequestTimeout, "deadline_exceeded")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("stalled request took %v, server deadline never fired", elapsed)
	}
}

func TestNewRejectsDuplicateCodecs(t *testing.T) {
	cs := all.Codecs()
	if _, err := New(Config{Codecs: []compress.Codec{cs[0], cs[0]}, AccessLog: io.Discard}); err == nil {
		t.Fatal("duplicate codec registry accepted")
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/decompress")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET on POST route = %d, want 405", resp.StatusCode)
	}
}
