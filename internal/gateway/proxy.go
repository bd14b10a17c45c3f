package gateway

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"positbench/internal/httpshell"
	"positbench/internal/resilience"
	"positbench/internal/trace"
)

// errNoBackend means every eligible backend was already tried.
var errNoBackend = errors.New("gateway: no backend available")

// upstream is one try's successful outcome: the response, body-buffered up
// to the cap, plus the remaining stream and its release when it overflowed.
type upstream struct {
	status  int
	header  http.Header
	body    []byte
	rest    io.ReadCloser // non-nil when the body exceeded the buffer cap
	release func()        // ends the try's context; call once done with rest
	backend *backend
}

// dispose tears down a result that lost the race or finished relaying.
func (u *upstream) dispose() {
	if u.rest != nil {
		u.rest.Close()
	}
	if u.release != nil {
		u.release()
	}
}

// handleProxy is the catch-all data-plane route: shard, try, retry, hedge,
// relay.
func (g *Gateway) handleProxy(w http.ResponseWriter, r *http.Request) {
	var sp *trace.Span
	if g.tracer != nil {
		sp = g.tracer.Start("proxy", httpshell.RequestID(r.Context()))
		sp.Annotate("path", r.URL.Path)
		defer sp.End()
	}

	body, overflowed, err := readUpTo(r.Body, g.cfg.MaxBufferBytes)
	if err != nil {
		httpshell.WriteError(w, http.StatusBadRequest, "body_read", err.Error())
		return
	}
	if isAutoCompress(r) {
		g.metrics.autoRequests.Add(1)
	}
	if _, ok := objectKey(r.URL.Path); ok {
		g.metrics.objectRequests.Add(1)
		if isRangeRead(r) {
			g.metrics.rangeRequests.Add(1)
		}
	}
	key := shardKey(r, body)
	st := newTryState(g.ring.sequence(key), len(g.backends))
	sp.Annotate("shard_key", strconv.FormatUint(key, 16))

	if overflowed {
		// The body cannot be replayed: stream it through exactly once, no
		// retries, no hedging. Half-streamed POSTs must never be resent.
		// Auto requests take this path too: the backend only samples the
		// stream head, so replay safety, not advice quality, is what the
		// buffering boundary protects.
		g.metrics.bodiesStreamed.Add(1)
		if isAutoCompress(r) {
			g.metrics.autoStreamed.Add(1)
		}
		sp.Annotate("mode", "streamed")
		g.proxyStreaming(w, r, body, st, sp)
		return
	}
	g.proxyBuffered(w, r, body, st, sp)
}

// isAutoCompress reports whether r asks a backend's advisor to pick the
// codec; the gateway surfaces those decisions in its own metrics.
func isAutoCompress(r *http.Request) bool {
	return r.Method == http.MethodPost && r.URL.Path == "/v1/compress/auto"
}

// isRangeRead reports whether r is a partial object read: GET /v1/read
// with a Range header or explicit ?off=/?len= window.
func isRangeRead(r *http.Request) bool {
	if r.Method != http.MethodGet || !strings.HasPrefix(r.URL.Path, "/v1/read/") {
		return false
	}
	if r.Header.Get("Range") != "" {
		return true
	}
	q := r.URL.Query()
	return q.Get("off") != "" || q.Get("len") != ""
}

// observeAutoChoice records which codec the backend's advisor chose for a
// successfully answered auto request, from the relayed response header.
func (g *Gateway) observeAutoChoice(r *http.Request, status int, hdr http.Header, sp *trace.Span) {
	if !isAutoCompress(r) || status < 200 || status >= 300 {
		return
	}
	if chosen := hdr.Get("X-Positd-Codec"); chosen != "" {
		g.metrics.recordAutoChosen(chosen)
		sp.Annotate("auto_codec", chosen)
	}
}

// proxyBuffered runs the full resilience plan over a replayable request.
func (g *Gateway) proxyBuffered(w http.ResponseWriter, r *http.Request, body []byte, st *tryState, sp *trace.Span) {
	hedge := g.cfg.HedgeAfter
	if hedge < 0 {
		hedge = 0
	}
	plan := resilience.Plan[*upstream]{
		Clock:      g.clock,
		HedgeAfter: hedge,
		Delay:      func(i int) time.Duration { return g.cfg.Backoff.Delay(i - 1) },
		Dispose:    func(u *upstream) { u.dispose() },
	}
	arms := make([]func(ctx context.Context) (*upstream, error), 0, g.cfg.MaxTries)
	for i := 0; i < g.cfg.MaxTries; i++ {
		arms = append(arms, func(ctx context.Context) (*upstream, error) {
			return g.tryBuffered(ctx, r, body, st)
		})
	}
	u, stats, err := plan.Do(r.Context(), arms)

	if retries := int64(stats.Launched) - 1 - int64(stats.Hedges); retries > 0 {
		g.metrics.retriesTotal.Add(retries)
	}
	g.metrics.hedgesLaunched.Add(int64(stats.Hedges))
	if stats.HedgeWon {
		g.metrics.hedgeWins.Add(1)
	}
	sp.Annotate("tries", strconv.Itoa(stats.Launched))
	if stats.Hedges > 0 {
		sp.Annotate("hedges", strconv.Itoa(stats.Hedges))
	}

	if err != nil {
		if r.Context().Err() != nil {
			sp.Annotate("outcome", "client_gone")
			httpshell.WriteError(w, httpshell.StatusClientClosedRequest, "client_closed_request",
				"client went away before a backend answered")
			return
		}
		// Forward the last retryable upstream answer (a 429 with its
		// Retry-After, or a 5xx) so the client reacts to the backend's own
		// signal; fall back to a synthetic 502 when no backend answered.
		if status, hdr, blob := st.lastFail(); status != 0 {
			sp.Annotate("outcome", "exhausted_"+strconv.Itoa(status))
			copyRelayHeaders(w.Header(), hdr)
			w.WriteHeader(status)
			w.Write(blob)
			return
		}
		sp.Annotate("outcome", "no_backend")
		g.metrics.noBackend.Add(1)
		httpshell.WriteError(w, http.StatusBadGateway, "no_backend", err.Error())
		return
	}

	sp.Annotate("backend", u.backend.name)
	sp.SetBytes(int64(len(body)), int64(len(u.body)))
	g.observeAutoChoice(r, u.status, u.header, sp)
	g.relay(w, u)
}

// proxyStreaming forwards an unbuffered (over-cap) request body in a
// single try.
func (g *Gateway) proxyStreaming(w http.ResponseWriter, r *http.Request, prefix []byte, st *tryState, sp *trace.Span) {
	b := g.claim(st)
	if b == nil {
		g.metrics.noBackend.Add(1)
		httpshell.WriteError(w, http.StatusBadGateway, "no_backend", errNoBackend.Error())
		return
	}
	sp.Annotate("backend", b.name)
	// The backend may answer before the whole body has been forwarded.
	// Relaying that answer must not stop the client's body: without full
	// duplex, HTTP/1 discards the unread body at the first response write,
	// and the bytes still in flight never reach the backend. The error only
	// means the writer has no such discard to turn off.
	_ = http.NewResponseController(w).EnableFullDuplex()
	resp, err := g.send(r.Context(), r, b, io.MultiReader(bytes.NewReader(prefix), r.Body), r.ContentLength)
	if err != nil {
		httpshell.WriteError(w, http.StatusBadGateway, "upstream_failure", err.Error())
		return
	}
	defer resp.Body.Close()
	b.record(resp.StatusCode < 500)
	g.observeAutoChoice(r, resp.StatusCode, resp.Header, sp)
	copyRelayHeaders(w.Header(), resp.Header)
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil {
		// The status line is on the wire: kill the connection rather than
		// let a truncated body masquerade as a complete response.
		panic(http.ErrAbortHandler)
	}
}

// tryBuffered sends one try of a replayable request to the next backend in
// the preference order. Retryable outcomes (transport error, per-try
// timeout, 429, 5xx) return an error; everything else — including
// deterministic 4xx client errors — is a result to relay.
func (g *Gateway) tryBuffered(ctx context.Context, r *http.Request, body []byte, st *tryState) (*upstream, error) {
	b := g.claim(st)
	if b == nil {
		return nil, errNoBackend
	}

	tctx, tcancel := context.WithCancel(ctx)
	// The watchdog stops when the try returns; a relayed over-cap stream
	// keeps tctx open until its release.
	settled := make(chan struct{})
	defer close(settled)
	var timedOut atomic.Bool
	if g.cfg.PerTryTimeout > 0 {
		go func() {
			select {
			case <-g.clock.After(g.cfg.PerTryTimeout):
				timedOut.Store(true)
				tcancel()
			case <-settled:
			}
		}()
	}
	fail := func(err error) (*upstream, error) {
		tcancel()
		if timedOut.Load() {
			err = fmt.Errorf("gateway: per-try timeout on %s: %w", b.name, err)
		}
		return nil, err
	}

	resp, err := g.send(tctx, r, b, bytes.NewReader(body), int64(len(body)))
	if err != nil {
		return fail(err)
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500 {
		blob, _ := io.ReadAll(io.LimitReader(resp.Body, 16<<10))
		resp.Body.Close()
		st.saveFail(resp.StatusCode, resp.Header, blob)
		tcancel()
		// A 429 is a healthy backend shedding load, not a failure the
		// breaker should count; a 5xx is.
		b.record(resp.StatusCode == http.StatusTooManyRequests)
		return nil, fmt.Errorf("gateway: backend %s answered %d", b.name, resp.StatusCode)
	}

	buf, overflowed, err := readUpTo(resp.Body, g.cfg.MaxBufferBytes)
	if err != nil {
		// The backend died mid-body before the client saw anything: fully
		// retryable, the next try replays the request elsewhere.
		resp.Body.Close()
		b.record(false)
		return fail(fmt.Errorf("gateway: reading %s response: %w", b.name, err))
	}
	b.record(true)
	u := &upstream{status: resp.StatusCode, header: resp.Header, body: buf, backend: b}
	if overflowed {
		u.rest = resp.Body
		u.release = tcancel
	} else {
		resp.Body.Close()
		tcancel()
	}
	return u, nil
}

// relay writes a winning upstream result to the client, streaming any
// over-cap remainder and aborting the connection on a mid-stream failure.
func (g *Gateway) relay(w http.ResponseWriter, u *upstream) {
	copyRelayHeaders(w.Header(), u.header)
	w.WriteHeader(u.status)
	w.Write(u.body)
	if u.rest != nil {
		if _, err := io.Copy(w, u.rest); err != nil {
			u.dispose()
			panic(http.ErrAbortHandler)
		}
	}
	u.dispose()
}

// shardKey picks the routing hash: an explicit X-Shard-Key wins, then the
// object key for object-tier routes, then the body fingerprint, then the
// path (for bodyless requests). Object routes must hash by key — not body
// — so a PUT and every later ranged GET of the same object land on the
// same backend preference order, and range requests find the chunks the
// upload left behind (and each other's warm chunk cache).
func shardKey(r *http.Request, body []byte) uint64 {
	if k := r.Header.Get("X-Shard-Key"); k != "" {
		return hashString(k)
	}
	if key, ok := objectKey(r.URL.Path); ok {
		return hashString("object:" + key)
	}
	if len(body) > 0 {
		return hashBytes(body)
	}
	return hashString(r.URL.Path)
}

// objectKey extracts the {key} segment of /v1/objects/{key} and
// /v1/read/{key}; reads and writes of one object must shard identically.
func objectKey(path string) (string, bool) {
	for _, prefix := range []string{"/v1/objects/", "/v1/read/"} {
		if rest, ok := strings.CutPrefix(path, prefix); ok && rest != "" && !strings.Contains(rest, "/") {
			return rest, true
		}
	}
	return "", false
}

// readUpTo reads rd until EOF or just past the cap. overflowed reports
// that rd has more to give; the returned bytes are then a prefix and rd
// continues where they stop.
func readUpTo(rd io.Reader, capBytes int64) (buf []byte, overflowed bool, err error) {
	if rd == nil {
		return nil, false, nil
	}
	var b bytes.Buffer
	n, err := io.Copy(&b, io.LimitReader(rd, capBytes+1))
	if err != nil {
		return nil, false, err
	}
	return b.Bytes(), n > capBytes, nil
}

// send runs one try of r against b with the given body, and books a
// transport error with b. The caller books every answer.
func (g *Gateway) send(ctx context.Context, r *http.Request, b *backend, body io.Reader, contentLength int64) (*http.Response, error) {
	u := *r.URL
	u.Scheme = b.url.Scheme
	u.Host = b.url.Host
	req, _ := http.NewRequestWithContext(ctx, r.Method, u.String(), body)
	req.Header = r.Header.Clone()
	stripHopByHop(req.Header)
	req.ContentLength = contentLength
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		if prior := req.Header.Get("X-Forwarded-For"); prior != "" {
			req.Header.Set("X-Forwarded-For", prior+", "+host)
		} else {
			req.Header.Set("X-Forwarded-For", host)
		}
	}
	resp, err := g.client.Do(req)
	if err != nil {
		b.record(false)
	}
	return resp, err
}

// hopByHopHeaders never cross a proxy (RFC 9110 §7.6.1).
var hopByHopHeaders = []string{
	"Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
	"Proxy-Connection", "Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

func stripHopByHop(h http.Header) {
	for _, k := range hopByHopHeaders {
		h.Del(k)
	}
}

// copyRelayHeaders copies end-to-end response headers to the client. A
// key the backend sent replaces the gateway's own value for it, so the
// X-Request-ID both hops set reaches the client once.
func copyRelayHeaders(dst http.Header, src map[string][]string) {
	for k, vv := range src {
		dst[k] = slices.Clone(vv)
	}
	stripHopByHop(dst)
}
