package gateway

import (
	"net/url"
	"sync"
	"sync/atomic"

	"positbench/internal/resilience"
)

// backend is one positd instance behind the gateway: its address, circuit
// breaker, health-probe verdict, and per-backend counters.
type backend struct {
	url     *url.URL
	name    string // host:port, the stable key in metrics
	breaker *resilience.Breaker

	// ready is the active health checker's verdict. Backends start ready
	// (optimistic: the breaker covers the window before the first probe) and
	// are ejected after FailThreshold consecutive probe failures.
	ready atomic.Bool

	// Prober-goroutine-local consecutive counters (single writer).
	probeFails int
	probeRises int

	requests  atomic.Int64 // tries sent to this backend
	failures  atomic.Int64 // tries that failed (transport error or 5xx)
	ejections atomic.Int64 // ready -> ejected transitions
}

func (b *backend) Ready() bool { return b.ready.Load() }

// tryState is the shared per-request state the arms of one proxied request
// coordinate through: which backends have been tried, and the last
// retryable upstream response (429 or 5xx) kept for exhaustion forwarding.
type tryState struct {
	mu    sync.Mutex
	order []int // ring preference order
	tried []bool

	lastStatus int
	lastHeader map[string][]string
	lastBody   []byte
}

func newTryState(order []int, n int) *tryState {
	return &tryState{order: order, tried: make([]bool, n)}
}

// saveFail remembers a retryable upstream response so that, if every try
// fails, the client sees the backend's own answer (with its Retry-After)
// instead of a synthetic gateway error.
func (st *tryState) saveFail(status int, header map[string][]string, body []byte) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.lastStatus = status
	st.lastHeader = header
	st.lastBody = body
}

func (st *tryState) lastFail() (int, map[string][]string, []byte) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lastStatus, st.lastHeader, st.lastBody
}

// record books a finished try's outcome: it feeds the breaker, and counts a
// failure when !ok.
func (b *backend) record(ok bool) {
	b.breaker.Record(ok)
	if !ok {
		b.failures.Add(1)
	}
}

// claim picks the next backend for a try and counts the try, in three
// passes over the ring preference order:
//
//  1. untried, probe-ready, breaker admits — the healthy path;
//  2. untried, probe-ready, breaker refusing — forced through (fail-static:
//     when everything looks broken, trying a refusing backend beats
//     refusing the client);
//  3. any untried backend at all.
//
// A try from pass 2 or 3 also counts as forced: the breaker did not admit
// it, and its outcome is still recorded so a forced success can close the
// breaker. claim returns nil when every backend has been tried.
func (g *Gateway) claim(st *tryState) *backend {
	st.mu.Lock()
	defer st.mu.Unlock()
	for pass := 1; pass <= 3; pass++ {
		for _, i := range st.order {
			b := g.backends[i]
			if st.tried[i] || pass < 3 && !b.Ready() || pass == 1 && !b.breaker.Allow() {
				continue
			}
			st.tried[i] = true
			b.requests.Add(1)
			if pass > 1 {
				g.metrics.forcedTries.Add(1)
			}
			return b
		}
	}
	return nil
}
