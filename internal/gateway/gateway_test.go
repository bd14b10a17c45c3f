package gateway

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"positbench/internal/httpshell"
	"positbench/internal/resilience"
)

// fastRetry removes wall-clock padding from retry paths under test.
var fastRetry = resilience.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond, NoJitter: true}

// newTestGateway builds a gateway over the given backends with test-speed
// resilience settings; callers override cfg fields via mutate.
func newTestGateway(t *testing.T, backendURLs []string, mutate func(*Config)) (*Gateway, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Backends:      backendURLs,
		Backoff:       fastRetry,
		ProbeInterval: -1, // probing is opt-in per test
		AccessLog:     io.Discard,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	front := httptest.NewServer(g.Handler())
	t.Cleanup(front.Close)
	return g, front
}

// keyOwnedBy finds an X-Shard-Key whose ring owner is backend idx.
func keyOwnedBy(t *testing.T, g *Gateway, idx int) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		k := fmt.Sprintf("key-%d", i)
		if g.ring.sequence(hashString(k))[0] == idx {
			return k
		}
	}
	t.Fatalf("no key owned by backend %d", idx)
	return ""
}

func postShard(t *testing.T, url, key, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("X-Shard-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	return resp
}

func TestProxyRelaysSuccess(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("X-Backend", "b0")
		w.Header().Set("Content-Type", "application/octet-stream")
		w.WriteHeader(http.StatusOK)
		w.Write(body)
	}))
	defer backend.Close()
	g, front := newTestGateway(t, []string{backend.URL}, nil)

	resp := postShard(t, front.URL+"/v1/echo", "", "hello posits")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Backend"); got != "b0" {
		t.Fatalf("X-Backend = %q, backend headers not relayed", got)
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Fatal("no X-Request-ID on the relayed response")
	}
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "hello posits" {
		t.Fatalf("body = %q, want the echo", body)
	}
	snap := g.snapshot()
	if snap.Responses2xx != 1 || snap.RetriesTotal != 0 {
		t.Fatalf("snapshot = %+v, want one clean 2xx", snap)
	}
}

// A 5xx from the shard owner is retried on the next ring backend; the
// client never sees the failure.
func TestProxyRetriesOn5xx(t *testing.T) {
	var hits0, hits1 atomic.Int64
	b0 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits0.Add(1)
		httpshell.WriteError(w, http.StatusInternalServerError, "boom", "injected")
	}))
	defer b0.Close()
	b1 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits1.Add(1)
		io.WriteString(w, "recovered")
	}))
	defer b1.Close()
	g, front := newTestGateway(t, []string{b0.URL, b1.URL}, nil)

	resp := postShard(t, front.URL+"/v1/x", keyOwnedBy(t, g, 0), "payload")
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || string(body) != "recovered" {
		t.Fatalf("got %d %q, want 200 recovered", resp.StatusCode, body)
	}
	if hits0.Load() != 1 || hits1.Load() != 1 {
		t.Fatalf("hits = %d/%d, want exactly one try each", hits0.Load(), hits1.Load())
	}
	snap := g.snapshot()
	if snap.RetriesTotal != 1 || snap.Responses2xx != 1 || snap.Responses5xx != 0 {
		t.Fatalf("snapshot = %+v, want 1 retry and a clean 2xx", snap)
	}
	if be := snap.Backends[strings.TrimPrefix(b0.URL, "http://")]; be.Failures != 1 {
		t.Fatalf("backend0 failures = %d, want 1", be.Failures)
	}
}

// A dead backend (connection refused) is retried the same way.
func TestProxyRetriesDeadBackend(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // keep the address, kill the listener
	alive := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "alive")
	}))
	defer alive.Close()
	g, front := newTestGateway(t, []string{dead.URL, alive.URL}, nil)

	resp := postShard(t, front.URL+"/v1/x", keyOwnedBy(t, g, 0), "payload")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 via failover", resp.StatusCode)
	}
	if snap := g.snapshot(); snap.RetriesTotal != 1 {
		t.Fatalf("retries = %d, want 1", snap.RetriesTotal)
	}
}

// When every backend sheds with 429, the client receives the backend's own
// 429 — Retry-After intact — not a synthetic gateway error, and no breaker
// counts it as a failure.
func TestProxy429ForwardedOnExhaustion(t *testing.T) {
	shed := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		httpshell.WriteError(w, http.StatusTooManyRequests, "saturated", "at limit")
	}
	b0 := httptest.NewServer(http.HandlerFunc(shed))
	defer b0.Close()
	b1 := httptest.NewServer(http.HandlerFunc(shed))
	defer b1.Close()
	g, front := newTestGateway(t, []string{b0.URL, b1.URL}, nil)

	resp := postShard(t, front.URL+"/v1/x", "", "payload")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q, want the backend's 7", got)
	}
	snap := g.snapshot()
	if snap.Responses429 != 1 || snap.Responses4xx != 0 || snap.Responses5xx != 0 {
		t.Fatalf("snapshot = %+v, want exactly one 429", snap)
	}
	for name, be := range snap.Backends {
		if be.BreakerState != "closed" {
			t.Fatalf("backend %s breaker %s after 429s, want closed", name, be.BreakerState)
		}
	}
}

// Deterministic client errors (4xx) are relayed, never retried.
func TestProxy4xxNotRetried(t *testing.T) {
	var hits atomic.Int64
	b0 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		httpshell.WriteError(w, http.StatusNotFound, "unknown_codec", "no such codec")
	}))
	defer b0.Close()
	b1 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		io.WriteString(w, "should not be reached")
	}))
	defer b1.Close()
	g, front := newTestGateway(t, []string{b0.URL, b1.URL}, nil)

	resp := postShard(t, front.URL+"/v1/x", keyOwnedBy(t, g, 0), "payload")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want the backend's 404", resp.StatusCode)
	}
	if hits.Load() != 1 {
		t.Fatalf("backends saw %d requests, want 1 (no retry on 4xx)", hits.Load())
	}
	if snap := g.snapshot(); snap.Responses4xx != 1 || snap.RetriesTotal != 0 {
		t.Fatalf("snapshot = %+v, want one un-retried 4xx", snap)
	}
}

// With every backend unreachable the client gets one 502 and the gateway
// counts the exhaustion.
func TestProxyNoBackend(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close()
	g, front := newTestGateway(t, []string{dead.URL}, nil)

	resp := postShard(t, front.URL+"/v1/x", "", "payload")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", resp.StatusCode)
	}
	if snap := g.snapshot(); snap.NoBackend != 1 || snap.Responses5xx != 1 {
		t.Fatalf("snapshot = %+v, want one no_backend 502", snap)
	}
}

// A backend that dies mid-body on a buffered (small) response is invisible
// to the client: the gateway catches the truncation while buffering and
// replays the request on the next backend.
func TestProxyRetriesMidBodyCrashBuffered(t *testing.T) {
	crash := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "1000")
		w.Write(make([]byte, 100))
		panic(http.ErrAbortHandler) // sever the connection mid-body
	}))
	defer crash.Close()
	ok := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(make([]byte, 1000))
	}))
	defer ok.Close()
	g, front := newTestGateway(t, []string{crash.URL, ok.URL}, nil)

	resp := postShard(t, front.URL+"/v1/x", keyOwnedBy(t, g, 0), "payload")
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK || len(body) != 1000 {
		t.Fatalf("got %d, %d bytes, err %v; want a clean 200 with 1000 bytes", resp.StatusCode, len(body), err)
	}
	if snap := g.snapshot(); snap.RetriesTotal != 1 || snap.Responses2xx != 1 {
		t.Fatalf("snapshot = %+v, want one transparent retry", snap)
	}
}

// A backend crash after the gateway has started streaming an over-cap
// response must surface as exactly one client error — an aborted
// connection — never as a silently truncated 200 body.
func TestProxyAbortsMidStreamCrash(t *testing.T) {
	crash := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "1048576")
		w.Write(make([]byte, 8192))
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	}))
	defer crash.Close()
	g, front := newTestGateway(t, []string{crash.URL}, func(cfg *Config) {
		cfg.MaxBufferBytes = 1024 // force the streaming relay path
	})

	resp := postShard(t, front.URL+"/v1/x", "", "payload")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d; the crash happens after the status line", resp.StatusCode)
	}
	if _, err := io.ReadAll(resp.Body); err == nil {
		t.Fatal("client read a complete body from a half-streamed response")
	}
	snap := g.snapshot()
	if snap.AbortedMidStream != 1 {
		t.Fatalf("aborted_mid_stream = %d, want 1", snap.AbortedMidStream)
	}
	if snap.Responses2xx != 0 {
		t.Fatalf("aborted response also counted as 2xx: %+v", snap)
	}
}

// Requests whose bodies exceed the buffer cap are streamed through exactly
// once: a failure is answered, not retried.
func TestProxyOversizedBodyNotRetried(t *testing.T) {
	var hits0, hits1 atomic.Int64
	b0 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits0.Add(1)
		io.Copy(io.Discard, r.Body)
		httpshell.WriteError(w, http.StatusInternalServerError, "boom", "injected")
	}))
	defer b0.Close()
	b1 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits1.Add(1)
		io.WriteString(w, "ok")
	}))
	defer b1.Close()
	g, front := newTestGateway(t, []string{b0.URL, b1.URL}, func(cfg *Config) {
		cfg.MaxBufferBytes = 64
	})

	key := keyOwnedBy(t, g, 0)
	resp := postShard(t, front.URL+"/v1/x", key, strings.Repeat("x", 1024))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want the backend's 500 relayed un-retried", resp.StatusCode)
	}
	if hits0.Load() != 1 || hits1.Load() != 0 {
		t.Fatalf("hits = %d/%d: an unbuffered body was replayed", hits0.Load(), hits1.Load())
	}
	if snap := g.snapshot(); snap.BodiesStreamed != 1 || snap.RetriesTotal != 0 {
		t.Fatalf("snapshot = %+v, want one streamed body, zero retries", snap)
	}
}

// A streamed (over-cap) body must reach the backend whole even when the
// backend answers first and the client sends the rest only after the
// response headers arrive. Without full duplex the gateway's HTTP/1 server
// stops to discard the unread body at the first response write, so the
// exchange deadlocks until the client's deadline.
func TestProxyStreamingFullDuplex(t *testing.T) {
	const head, total = 128 << 10, 256 << 10
	got := make(chan int64, 1)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = http.NewResponseController(w).EnableFullDuplex()
		n, _ := io.CopyN(io.Discard, r.Body, head)
		w.Write(make([]byte, 8<<10))
		w.(http.Flusher).Flush()
		rest, _ := io.Copy(io.Discard, r.Body)
		got <- n + rest
	}))
	defer backend.Close()
	_, front := newTestGateway(t, []string{backend.URL}, func(cfg *Config) {
		cfg.MaxBufferBytes = 64 << 10
	})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	pr, pw := io.Pipe()
	defer pr.Close()
	headers := make(chan struct{})
	go func() {
		pw.Write(make([]byte, head))
		select {
		case <-headers:
			pw.Write(make([]byte, total-head))
			pw.Close()
		case <-ctx.Done():
			// The transport waits for its body writer before Do returns.
			pw.CloseWithError(ctx.Err())
		}
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, front.URL+"/v1/x", pr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	close(headers)
	if err != nil {
		t.Fatalf("no response headers before the deadline: %v", err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatalf("reading the relayed response: %v", err)
	}
	select {
	case n := <-got:
		if n != total {
			t.Fatalf("backend received %d of %d body bytes", n, total)
		}
	case <-ctx.Done():
		t.Fatal("backend never finished reading the body")
	}
}

// The same body keeps landing on the same backend; distinct bodies spread.
func TestProxyShardAffinity(t *testing.T) {
	var hits [3]atomic.Int64
	var urls []string
	for i := 0; i < 3; i++ {
		i := i
		s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits[i].Add(1)
			io.Copy(io.Discard, r.Body)
			io.WriteString(w, "ok")
		}))
		defer s.Close()
		urls = append(urls, s.URL)
	}
	_, front := newTestGateway(t, urls, nil)

	for i := 0; i < 10; i++ {
		resp := postShard(t, front.URL+"/v1/x", "", "the same payload every time")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	owners := 0
	for i := range hits {
		if n := hits[i].Load(); n == 10 {
			owners++
		} else if n != 0 {
			t.Fatalf("backend %d saw %d of 10 identical requests: affinity broken", i, n)
		}
	}
	if owners != 1 {
		t.Fatalf("%d backends owned the key, want exactly 1", owners)
	}

	for i := 0; i < 60; i++ {
		resp := postShard(t, front.URL+"/v1/x", "", fmt.Sprintf("distinct payload %d", i))
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	spread := 0
	for i := range hits {
		if hits[i].Load() > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("60 distinct payloads all hit one backend of %d", len(hits))
	}
}

// Once a backend's breaker opens, requests stop trying it: the shard owner
// is skipped at claim time instead of burning a retry per request.
func TestProxyBreakerSkipsOpenBackend(t *testing.T) {
	var hitsBad atomic.Int64
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hitsBad.Add(1)
		httpshell.WriteError(w, http.StatusInternalServerError, "boom", "injected")
	}))
	defer bad.Close()
	good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer good.Close()
	g, front := newTestGateway(t, []string{bad.URL, good.URL}, func(cfg *Config) {
		cfg.BreakerThreshold = 2
		cfg.BreakerCooldown = time.Hour // stays open for the whole test
	})

	key := keyOwnedBy(t, g, 0)
	for i := 0; i < 5; i++ {
		resp := postShard(t, front.URL+"/v1/x", key, "payload")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d, want failover 200", i, resp.StatusCode)
		}
	}
	if got := hitsBad.Load(); got != 2 {
		t.Fatalf("failing backend saw %d tries, want 2 (then the breaker holds)", got)
	}
	snap := g.snapshot()
	be := snap.Backends[strings.TrimPrefix(bad.URL, "http://")]
	if be.BreakerState != "open" || be.BreakerOpens != 1 {
		t.Fatalf("bad backend breaker = %+v, want open once", be)
	}
	if snap.RetriesTotal != 2 {
		t.Fatalf("retries_total = %d, want 2 (only the pre-open requests)", snap.RetriesTotal)
	}
}

// The gateway's own readiness: 200 while serving, 503 once draining.
func TestGatewayReadyzDraining(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer backend.Close()
	g, front := newTestGateway(t, []string{backend.URL}, nil)

	get := func() int {
		resp, err := http.Get(front.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get(); got != http.StatusOK {
		t.Fatalf("readyz before drain = %d, want 200", got)
	}
	g.SetDraining(true)
	if got := get(); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", got)
	}
	g.SetDraining(false)
	g.backends[0].ready.Store(false)
	if got := get(); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz with zero ready backends = %d, want 503", got)
	}
}

func TestGatewayConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New with no backends succeeded")
	}
	if _, err := New(Config{Backends: []string{"127.0.0.1:1", "127.0.0.1:1"}}); err == nil {
		t.Fatal("New with duplicate backends succeeded")
	}
	if _, err := New(Config{Backends: []string{"://bad"}}); err == nil {
		t.Fatal("New with an unparsable backend succeeded")
	}
	g, err := New(Config{Backends: []string{"127.0.0.1:9011", "http://127.0.0.1:9012"}, AccessLog: io.Discard})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	want := []string{"127.0.0.1:9011", "127.0.0.1:9012"}
	got := g.Backends()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Backends() = %v, want %v", got, want)
		}
	}
	if g.cfg.MaxTries != 2 {
		t.Fatalf("MaxTries = %d, want clamped to backend count", g.cfg.MaxTries)
	}
}
