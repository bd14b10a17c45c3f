package gateway

import (
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"positbench/internal/httpshell"
)

// gwMetrics is the gateway's counter registry. Response-class counters are
// flat top-level JSON keys shaped to reconcile exactly against positload's
// report ("responses_2xx" here vs "status_2xx" there): every proxied
// request the gateway answers increments exactly one class, and every
// response the load generator receives increments exactly one class, so
// after a clean drain the two documents must agree number for number.
type gwMetrics struct {
	start time.Time

	responses2xx atomic.Int64
	responses3xx atomic.Int64
	responses4xx atomic.Int64 // excludes 429, mirroring positload's split
	responses429 atomic.Int64
	responses5xx atomic.Int64
	responses499 atomic.Int64 // client went away; never received, never reconciled

	retriesTotal     atomic.Int64 // failure-triggered extra tries
	hedgesLaunched   atomic.Int64 // latency-triggered extra tries
	hedgeWins        atomic.Int64 // requests won by a hedge try
	forcedTries      atomic.Int64 // tries sent past a refusing breaker (fail-static)
	noBackend        atomic.Int64 // requests that exhausted every backend
	abortedMidStream atomic.Int64 // connections aborted after the status line
	bodiesStreamed   atomic.Int64 // requests too large to buffer (single-try)

	// Object-tier passthrough: requests routed by object key rather than
	// body hash, and the subset that asked for a byte range.
	objectRequests atomic.Int64 // /v1/objects + /v1/read requests proxied
	rangeRequests  atomic.Int64 // of those, partial reads (Range or ?off/?len)

	// Adaptive-codec passthrough: the gateway never decides codecs itself,
	// but it watches POST /v1/compress/auto go by and surfaces what the
	// backends' advisors chose (the relayed X-Positd-Codec header).
	autoRequests atomic.Int64 // auto requests proxied
	autoStreamed atomic.Int64 // auto requests too large to buffer
	autoMu       sync.Mutex
	autoChosen   map[string]int64 // successful auto responses per chosen codec
}

func newGWMetrics() *gwMetrics {
	return &gwMetrics{start: time.Now(), autoChosen: map[string]int64{}}
}

// recordAutoChosen accounts one successful auto response by chosen codec.
func (m *gwMetrics) recordAutoChosen(codec string) {
	m.autoMu.Lock()
	m.autoChosen[codec]++
	m.autoMu.Unlock()
}

// autoChosenSnapshot copies the per-codec choice counters.
func (m *gwMetrics) autoChosenSnapshot() map[string]int64 {
	m.autoMu.Lock()
	defer m.autoMu.Unlock()
	out := make(map[string]int64, len(m.autoChosen))
	for k, v := range m.autoChosen {
		out[k] = v
	}
	return out
}

// countResponse accounts one fully-delivered proxied response.
func (m *gwMetrics) countResponse(status int) {
	switch {
	case status >= 500:
		m.responses5xx.Add(1)
	case status == httpshell.StatusClientClosedRequest:
		m.responses499.Add(1)
	case status == http.StatusTooManyRequests:
		m.responses429.Add(1)
	case status >= 400:
		m.responses4xx.Add(1)
	case status >= 300:
		m.responses3xx.Add(1)
	default:
		m.responses2xx.Add(1)
	}
}

// backendExport is one backend's /metrics entry.
type backendExport struct {
	Ready        bool   `json:"ready"`
	BreakerState string `json:"breaker_state"`
	BreakerOpens uint64 `json:"breaker_opens"`
	Requests     int64  `json:"requests"`
	Failures     int64  `json:"failures"`
	Ejections    int64  `json:"ejections"`
}

// MetricsSnapshot is the full GET /metrics document. It is exported so
// clients outside the package, such as the e2e soaks, decode /metrics into
// the gateway's own type instead of matching JSON by hand.
type MetricsSnapshot struct {
	UptimeSeconds    float64                  `json:"uptime_seconds"`
	Draining         bool                     `json:"draining"`
	Responses2xx     int64                    `json:"responses_2xx"`
	Responses3xx     int64                    `json:"responses_3xx"`
	Responses4xx     int64                    `json:"responses_4xx"`
	Responses429     int64                    `json:"responses_429"`
	Responses5xx     int64                    `json:"responses_5xx"`
	Responses499     int64                    `json:"responses_499"`
	RetriesTotal     int64                    `json:"retries_total"`
	HedgesLaunched   int64                    `json:"hedges_launched"`
	HedgeWins        int64                    `json:"hedge_wins"`
	ForcedTries      int64                    `json:"forced_tries"`
	NoBackend        int64                    `json:"no_backend"`
	AbortedMidStream int64                    `json:"aborted_mid_stream"`
	BodiesStreamed   int64                    `json:"bodies_streamed"`
	ObjectRequests   int64                    `json:"object_requests"`
	RangeRequests    int64                    `json:"range_requests"`
	AutoRequests     int64                    `json:"auto_requests"`
	AutoStreamed     int64                    `json:"auto_streamed"`
	AutoChosen       map[string]int64         `json:"auto_chosen,omitempty"`
	TracesCaptured   uint64                   `json:"traces_captured"`
	Backends         map[string]backendExport `json:"backends"`
}

// snapshot assembles the /metrics document.
func (g *Gateway) snapshot() MetricsSnapshot {
	m := g.metrics
	snap := MetricsSnapshot{
		UptimeSeconds:    time.Since(m.start).Seconds(),
		Draining:         g.draining.Load(),
		Responses2xx:     m.responses2xx.Load(),
		Responses3xx:     m.responses3xx.Load(),
		Responses4xx:     m.responses4xx.Load(),
		Responses429:     m.responses429.Load(),
		Responses5xx:     m.responses5xx.Load(),
		Responses499:     m.responses499.Load(),
		RetriesTotal:     m.retriesTotal.Load(),
		HedgesLaunched:   m.hedgesLaunched.Load(),
		HedgeWins:        m.hedgeWins.Load(),
		ForcedTries:      m.forcedTries.Load(),
		NoBackend:        m.noBackend.Load(),
		AbortedMidStream: m.abortedMidStream.Load(),
		BodiesStreamed:   m.bodiesStreamed.Load(),
		ObjectRequests:   m.objectRequests.Load(),
		RangeRequests:    m.rangeRequests.Load(),
		AutoRequests:     m.autoRequests.Load(),
		AutoStreamed:     m.autoStreamed.Load(),
		AutoChosen:       m.autoChosenSnapshot(),
		Backends:         make(map[string]backendExport, len(g.backends)),
	}
	if g.tracer != nil {
		snap.TracesCaptured = g.tracer.Len()
	}
	for _, b := range g.backends {
		snap.Backends[b.name] = backendExport{
			Ready:        b.Ready(),
			BreakerState: b.breaker.State().String(),
			BreakerOpens: b.breaker.Opens(),
			Requests:     b.requests.Load(),
			Failures:     b.failures.Load(),
			Ejections:    b.ejections.Load(),
		}
	}
	return snap
}

// handleMetrics serves the counter registry as JSON.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(g.snapshot())
}
