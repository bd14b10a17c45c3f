package server

import (
	"encoding/json"
	"maps"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"positbench/internal/advisor"
	"positbench/internal/chunkcache"
	"positbench/internal/compress"
	"positbench/internal/httpshell"
	"positbench/internal/stats"
)

// metrics is the server's expvar-style counter registry: cheap enough to
// update on every request, rich enough to answer "is p99 moving" and "what
// ratio are we actually delivering" from a single GET /metrics.
type metrics struct {
	start    time.Time
	inflight atomic.Int64
	rejected atomic.Int64 // admission 429s

	mu       sync.Mutex
	routes   map[string]*routeStats
	codecOps map[string]*codecStats // keyed codec|op
}

// routeStats aggregates one route's request counters.
type routeStats struct {
	Total    int64             `json:"total"`
	ByClass  map[string]int64  `json:"by_status_class"`
	BytesOut int64             `json:"bytes_out"`
	lat      stats.LatencyHist `json:"-"`
}

// codecStats aggregates one codec x operation's data-plane counters.
type codecStats struct {
	Ops      int64             `json:"ops"`
	BytesIn  int64             `json:"bytes_in"`
	BytesOut int64             `json:"bytes_out"`
	lat      stats.LatencyHist `json:"-"`
}

func newMetrics() *metrics {
	return &metrics{
		start:    time.Now(),
		routes:   map[string]*routeStats{},
		codecOps: map[string]*codecStats{},
	}
}

func statusClass(status int) string {
	switch {
	case status >= 500:
		return "5xx"
	case status == httpshell.StatusClientClosedRequest:
		return "499"
	case status >= 400:
		return "4xx"
	case status >= 300:
		return "3xx"
	default:
		return "2xx"
	}
}

// recordRequest accounts one finished request on its route; the shell
// calls it for every request it wraps.
func (m *metrics) recordRequest(rec httpshell.Record, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs := m.routes[rec.Route]
	if rs == nil {
		rs = &routeStats{ByClass: map[string]int64{}}
		m.routes[rec.Route] = rs
	}
	rs.Total++
	rs.ByClass[statusClass(rec.Status)]++
	rs.BytesOut += rec.BytesOut
	rs.lat.Observe(d)
}

// recordCodec accounts one data-plane operation (op is "compress" or
// "decompress") with its byte flow.
func (m *metrics) recordCodec(codec, op string, d time.Duration, bytesIn, bytesOut int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	key := codec + "|" + op
	cs := m.codecOps[key]
	if cs == nil {
		cs = &codecStats{}
		m.codecOps[key] = cs
	}
	cs.Ops++
	cs.BytesIn += bytesIn
	cs.BytesOut += bytesOut
	cs.lat.Observe(d)
}

// latencyExport is the JSON rendering of a LatencyHist.
type latencyExport struct {
	MeanUS  int64                 `json:"mean_us"`
	P50US   int64                 `json:"p50_us"`
	P99US   int64                 `json:"p99_us"`
	Buckets []stats.LatencyBucket `json:"buckets,omitempty"`
}

func exportLatency(h *stats.LatencyHist) latencyExport {
	return latencyExport{
		MeanUS:  h.Mean().Microseconds(),
		P50US:   h.Quantile(0.5).Microseconds(),
		P99US:   h.Quantile(0.99).Microseconds(),
		Buckets: h.Snapshot(),
	}
}

// routeExport is one route's /metrics entry.
type routeExport struct {
	routeStats
	Latency latencyExport `json:"latency"`
}

// codecExport is one codec x op /metrics entry. Ratio is the aggregate
// original/compressed ratio over everything this codec has moved.
type codecExport struct {
	codecStats
	Ratio   float64       `json:"ratio,omitempty"`
	Latency latencyExport `json:"latency"`
}

// engineExport is the /metrics view of the process-wide chunk-engine
// counters: the raw gauges plus a derived worker-pool utilization.
type engineExport struct {
	compress.EngineStats
	// Utilization is busy workers over alive workers at snapshot time
	// (0 when no pool is running).
	Utilization float64 `json:"worker_utilization"`
	// TracesCaptured counts traces ever published to the debug ring.
	TracesCaptured uint64 `json:"traces_captured"`
}

// MetricsSnapshot is the full GET /metrics document. It is exported so
// clients outside the package, such as the e2e soaks, decode /metrics into
// the server's own type instead of matching JSON by hand.
type MetricsSnapshot struct {
	UptimeSeconds float64                           `json:"uptime_seconds"`
	Inflight      int64                             `json:"inflight"`
	Rejected429   int64                             `json:"rejected_429"`
	Engine        engineExport                      `json:"engine"`
	Advisor       *advisor.Stats                    `json:"advisor,omitempty"`
	ChunkCache    *chunkcache.Stats                 `json:"chunk_cache,omitempty"`
	ObjectStore   *objectStoreStats                 `json:"object_store,omitempty"`
	Requests      map[string]routeExport            `json:"requests"`
	Codecs        map[string]map[string]codecExport `json:"codecs"`
}

// snapshot assembles the /metrics document under the registry lock.
func (m *metrics) snapshot() MetricsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := MetricsSnapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		Inflight:      m.inflight.Load(),
		Rejected429:   m.rejected.Load(),
		Requests:      make(map[string]routeExport, len(m.routes)),
		Codecs:        map[string]map[string]codecExport{},
	}
	snap.Engine.EngineStats = compress.EngineSnapshot()
	if alive := snap.Engine.WorkersAlive; alive > 0 {
		snap.Engine.Utilization = float64(snap.Engine.WorkersBusy) / float64(alive)
	}
	for route, rs := range m.routes {
		exp := routeExport{routeStats: *rs, Latency: exportLatency(&rs.lat)}
		// The snapshot is encoded after the lock is released, while
		// recordRequest keeps counting into the live map.
		exp.ByClass = maps.Clone(rs.ByClass)
		snap.Requests[route] = exp
	}
	for key, cs := range m.codecOps {
		codec, op := splitKey(key)
		exp := codecExport{codecStats: *cs, Latency: exportLatency(&cs.lat)}
		// original/compressed regardless of direction: compress and auto
		// shrink in->out, decompress expands in->out.
		switch {
		case (op == "compress" || op == "auto") && cs.BytesOut > 0:
			exp.Ratio = float64(cs.BytesIn) / float64(cs.BytesOut)
		case op == "decompress" && cs.BytesIn > 0:
			exp.Ratio = float64(cs.BytesOut) / float64(cs.BytesIn)
		}
		if snap.Codecs[codec] == nil {
			snap.Codecs[codec] = map[string]codecExport{}
		}
		snap.Codecs[codec][op] = exp
	}
	return snap
}

func splitKey(key string) (codec, op string) {
	for i := 0; i < len(key); i++ {
		if key[i] == '|' {
			return key[:i], key[i+1:]
		}
	}
	return key, ""
}

// handleMetrics serves the counter registry as JSON.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	snap := s.metrics.snapshot()
	snap.Engine.TracesCaptured = s.tracer.Len()
	advStats := s.advisor.Stats()
	snap.Advisor = &advStats
	if s.chunkCache != nil {
		cc := s.chunkCache.Snapshot()
		snap.ChunkCache = &cc
	}
	storeStats := s.store.snapshot()
	snap.ObjectStore = &storeStats
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(snap)
}

// healthzResponse is the GET /healthz body.
type healthzResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Inflight      int64   `json:"inflight"`
	Codecs        int     `json:"codecs"`
}

// handleHealthz answers liveness probes. It bypasses admission so a
// saturated server still reports alive (saturation is visible separately
// via inflight and rejected_429). Liveness never flips during drain —
// restarting a draining process would only lose the in-flight work.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(healthzResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.metrics.start).Seconds(),
		Inflight:      s.metrics.inflight.Load(),
		Codecs:        len(s.names),
	})
}

// handleReadyz answers readiness probes: 200 while the server should
// receive new traffic, 503 before the listener is warmed up and again once
// a drain begins (see SetReady). Routers act on /readyz; supervisors act
// on /healthz.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	status, state := http.StatusOK, "ready"
	if !s.ready.Load() {
		status, state = http.StatusServiceUnavailable, "unready"
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(struct {
		Status   string `json:"status"`
		Inflight int64  `json:"inflight"`
	}{Status: state, Inflight: s.metrics.inflight.Load()})
}
