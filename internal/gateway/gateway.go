// Package gateway implements positgw: a resilient reverse proxy that
// shards requests across a fleet of positd backends.
//
// Requests are routed by consistent hashing — an explicit X-Shard-Key
// header when the client has an affinity key, the request-body fingerprint
// otherwise — so the same payload keeps hitting the same backend while it
// is healthy. Around that placement sits a resilience layer built from
// positbench/internal/resilience:
//
//   - per-try timeouts with capped-exponential-backoff retries across the
//     ring's failover sequence,
//   - idempotency-aware retry policy: only requests whose bodies were fully
//     buffered (<= MaxBufferBytes) are retried or hedged; half-streamed
//     uploads are never replayed,
//   - latency-triggered hedging: a stalled try launches a second one on the
//     next backend, first success wins, the loser is cancelled,
//   - a circuit breaker per backend with half-open probing, plus fail-static
//     override when every backend looks broken,
//   - active health checking of each backend's /readyz with ejection and
//     rise-threshold recovery.
//
// Mid-stream upstream failures past the point where the client saw a 200
// abort the connection (http.ErrAbortHandler) rather than truncating
// silently: a partial body must never parse as a complete one, even though
// the container CRC would catch it one layer down.
package gateway

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"positbench/internal/httpshell"
	"positbench/internal/resilience"
	"positbench/internal/trace"
)

// Config tunes a Gateway. The zero value of every field selects a
// production default; Backends is required.
type Config struct {
	// Backends are the positd base URLs (e.g. "http://127.0.0.1:9011").
	// A bare host:port gets "http://" prepended.
	Backends []string
	// MaxBufferBytes caps request- and response-body buffering. Bodies at
	// or under the cap make the request retry- and hedge-safe; larger ones
	// are streamed through exactly once. 0 selects DefaultMaxBufferBytes.
	MaxBufferBytes int64
	// MaxTries bounds how many backends one request may be sent to.
	// 0 selects min(DefaultMaxTries, len(Backends)).
	MaxTries int
	// PerTryTimeout bounds each individual try. 0 selects
	// DefaultPerTryTimeout; negative disables.
	PerTryTimeout time.Duration
	// HedgeAfter launches a hedge try when the current one has not resolved
	// in time. 0 selects DefaultHedgeAfter; negative disables hedging.
	HedgeAfter time.Duration
	// Backoff shapes the delay before failure-triggered retries.
	Backoff resilience.Backoff
	// BreakerThreshold and BreakerCooldown configure each backend's circuit
	// breaker (consecutive failures to open; time open before a half-open
	// probe). 0 selects the resilience defaults.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// ProbeInterval is the active health-check period, each probe a GET of
	// the backend's /readyz bounded by probeTimeout. 0 selects
	// DefaultProbeInterval; negative disables active probing.
	ProbeInterval time.Duration
	// FailThreshold ejects a backend after this many consecutive probe
	// failures; RiseThreshold recovers it after this many consecutive
	// successes. 0 selects the defaults (3 and 2).
	FailThreshold int
	RiseThreshold int
	// Clock drives retries, hedging, breakers, and probe scheduling. Nil
	// selects the system clock; tests inject resilience.FakeClock.
	Clock resilience.Clock
	// AccessLog receives one JSON line per proxied request. Nil selects
	// os.Stderr; io.Discard silences.
	AccessLog io.Writer
	// TraceCapacity sizes the ring of recent gateway traces. 0 selects
	// trace.DefaultCapacity; negative disables tracing.
	TraceCapacity int
}

// Defaults for the zero Config.
const (
	DefaultMaxBufferBytes = int64(8) << 20 // 8 MiB
	DefaultMaxTries       = 3
	DefaultPerTryTimeout  = 30 * time.Second
	DefaultHedgeAfter     = 250 * time.Millisecond
	DefaultProbeInterval  = time.Second
	DefaultFailThreshold  = 3
	DefaultRiseThreshold  = 2
)

// probePath is the readiness endpoint every positd serves; probeTimeout
// bounds one probe.
const (
	probePath    = "/readyz"
	probeTimeout = 2 * time.Second
)

// Gateway is the positgw request handler. Create with New, mount via
// Handler, start active health checking with StartProbes.
type Gateway struct {
	cfg      Config
	backends []*backend
	ring     *ring
	clock    resilience.Clock
	client   *http.Client
	metrics  *gwMetrics
	shell    *httpshell.Shell
	tracer   *trace.Tracer // nil when tracing is disabled
	draining atomic.Bool
}

// New validates cfg, fills defaults, and returns a ready Gateway.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("gateway: no backends configured")
	}
	if cfg.MaxBufferBytes <= 0 {
		cfg.MaxBufferBytes = DefaultMaxBufferBytes
	}
	if cfg.MaxTries <= 0 {
		cfg.MaxTries = DefaultMaxTries
	}
	if cfg.MaxTries > len(cfg.Backends) {
		cfg.MaxTries = len(cfg.Backends)
	}
	if cfg.PerTryTimeout == 0 {
		cfg.PerTryTimeout = DefaultPerTryTimeout
	}
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = DefaultHedgeAfter
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = DefaultFailThreshold
	}
	if cfg.RiseThreshold <= 0 {
		cfg.RiseThreshold = DefaultRiseThreshold
	}
	if cfg.Clock == nil {
		cfg.Clock = resilience.System
	}
	g := &Gateway{
		cfg:   cfg,
		clock: cfg.Clock,
		client: &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        64,
				MaxIdleConnsPerHost: 16,
				IdleConnTimeout:     90 * time.Second,
			},
			// Relay 3xx verbatim; following them would hide the backend's
			// answer from the client.
			CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
		},
		metrics: newGWMetrics(),
	}
	g.shell = httpshell.New(cfg.AccessLog, g.finish)
	if cfg.TraceCapacity >= 0 {
		g.tracer = trace.New(cfg.TraceCapacity)
	}
	seen := map[string]bool{}
	for _, raw := range cfg.Backends {
		u, err := parseBackendURL(raw)
		if err != nil {
			return nil, err
		}
		if seen[u.Host] {
			return nil, fmt.Errorf("gateway: duplicate backend %q", u.Host)
		}
		seen[u.Host] = true
		b := &backend{
			url:     u,
			name:    u.Host,
			breaker: resilience.NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Clock),
		}
		b.ready.Store(true)
		g.backends = append(g.backends, b)
	}
	g.ring = newRing(len(g.backends))
	return g, nil
}

// parseBackendURL normalizes one backend address to a scheme+host URL.
func parseBackendURL(raw string) (*url.URL, error) {
	if raw == "" {
		return nil, fmt.Errorf("gateway: empty backend address")
	}
	withScheme := raw
	if !strings.Contains(raw, "://") {
		withScheme = "http://" + raw
	}
	u, err := url.Parse(withScheme)
	if err != nil || u.Host == "" {
		return nil, fmt.Errorf("gateway: bad backend address %q", raw)
	}
	return &url.URL{Scheme: u.Scheme, Host: u.Host}, nil
}

// SetDraining flips the gateway's own /readyz: true answers 503 so an
// upstream balancer stops sending new work before Shutdown closes the
// listener. Proxying continues while draining.
func (g *Gateway) SetDraining(v bool) { g.draining.Store(v) }

// Backends reports the configured backend names (host:port), ring order.
func (g *Gateway) Backends() []string {
	names := make([]string, len(g.backends))
	for i, b := range g.backends {
		names[i] = b.name
	}
	return names
}

// Handler returns the gateway mux: ops endpoints plus the catch-all proxy.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /healthz", g.shell.Wrap("healthz", http.HandlerFunc(g.handleHealthz)))
	mux.Handle("GET /readyz", g.shell.Wrap("readyz", http.HandlerFunc(g.handleReadyz)))
	mux.Handle("GET /metrics", g.shell.Wrap("metrics", http.HandlerFunc(g.handleMetrics)))
	mux.Handle("/", g.shell.Wrap("proxy", http.HandlerFunc(g.handleProxy)))
	return mux
}

// finish books a finished proxied request in exactly one response class,
// the accounting the soak harness reconciles against the load generator.
func (g *Gateway) finish(rec httpshell.Record, _ time.Duration) {
	if rec.Route != "proxy" {
		return
	}
	if rec.Aborted {
		// The client never got a complete response; counting a class
		// would double-book against the load generator's error count.
		g.metrics.abortedMidStream.Add(1)
		return
	}
	g.metrics.countResponse(rec.Status)
}

// handleHealthz is gateway liveness: alive as long as the process serves.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"status":   "ok",
		"backends": len(g.backends),
	})
}

// handleReadyz is gateway readiness: 503 while draining or when no backend
// is available to take traffic.
func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ready := 0
	for _, b := range g.backends {
		if b.Ready() {
			ready++
		}
	}
	w.Header().Set("Content-Type", "application/json")
	status := http.StatusOK
	state := "ready"
	switch {
	case g.draining.Load():
		status, state = http.StatusServiceUnavailable, "draining"
	case ready == 0:
		status, state = http.StatusServiceUnavailable, "no_ready_backends"
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{
		"status":         state,
		"ready_backends": ready,
		"backends":       len(g.backends),
	})
}
