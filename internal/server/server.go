// Package server implements positd's HTTP surface: a long-lived
// compression/conversion service over the codec registry. Six endpoints
// expose what the paper reproduction built —
//
//	POST /v1/compress/{codec}  stream a body into a framed chunked stream
//	POST /v1/compress/auto     same, with the codec chosen per stream by
//	                           the advisor (?hint= constrains candidates)
//	POST /v1/decompress        invert it, auto-detecting the codec from the
//	                           container frame header
//	POST /v1/convert           float32 <-> posit<n,es> batch conversion
//	POST /v1/analyze           IEEE field / posit-roundtrip statistics
//	GET  /v1/codecs            the registry inventory
//
// plus GET /healthz and GET /metrics for operations. The serving posture
// treats every request as untrusted and every resource as bounded: a hard
// body cap is enforced before any allocation, decode limits ride on every
// chunk, a bounded admission semaphore sheds load with 429 + Retry-After,
// request deadlines cancel in-flight worker pools through context, and the
// decode error taxonomy maps onto HTTP statuses (corruption -> 400, limit
// trips -> 413) so clients can triage without parsing messages.
package server

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"positbench/internal/advisor"
	"positbench/internal/chunkcache"
	"positbench/internal/compress"
	"positbench/internal/compress/all"
	"positbench/internal/container"
	"positbench/internal/httpshell"
	"positbench/internal/lc"
	"positbench/internal/trace"
)

// Config tunes a Server. The zero value selects production defaults.
type Config struct {
	// Codecs is the registry to serve; nil selects all.Codecs().
	Codecs []compress.Codec
	// MaxBodyBytes caps every request body, enforced from Content-Length
	// before any read and by a bounding reader for chunked uploads.
	// 0 selects DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// MaxOutputBytes caps the decoded size of any single chunk
	// (compress.DecodeLimits.MaxOutputBytes). 0 selects the compress
	// package default. Clients may lower (never raise) it per request
	// with ?max_out=N.
	MaxOutputBytes int64
	// MaxInflight bounds concurrently served API requests; excess load is
	// shed with 429 + Retry-After. 0 selects DefaultMaxInflight.
	MaxInflight int
	// RequestTimeout bounds each API request end to end; expiry cancels
	// the request context (stopping worker pools) and the connection's
	// read deadline. 0 selects DefaultRequestTimeout; negative disables.
	RequestTimeout time.Duration
	// ChunkSize is the streaming chunk granularity. 0 selects
	// compress.DefaultChunkSize. Clients may shrink it with ?chunk=N.
	ChunkSize int
	// Workers bounds each request's compression worker pool. 0 selects
	// GOMAXPROCS. Clients may lower it with ?workers=N.
	Workers int
	// AccessLog receives one JSON line per request. Nil selects
	// os.Stderr; use io.Discard to silence.
	AccessLog io.Writer
	// TraceCapacity sizes the ring buffer of recent request traces served
	// by DebugTracesHandler. 0 selects trace.DefaultCapacity; negative
	// disables tracing entirely (request spans are never created, leaving
	// only a nil-check per pipeline stage).
	TraceCapacity int
	// MaxStoreBytes bounds the object tier (PUT /v1/objects/{key}); past it
	// uploads are refused with 507. 0 selects DefaultMaxStoreBytes.
	MaxStoreBytes int64
	// ChunkCacheBytes bounds the content-addressed decoded-chunk cache
	// behind GET /v1/read/{key}. 0 selects DefaultChunkCacheBytes;
	// negative disables caching (every read decodes).
	ChunkCacheBytes int64
}

// Defaults for the zero Config.
const (
	DefaultMaxBodyBytes    = int64(1) << 30 // 1 GiB
	DefaultMaxInflight     = 64
	DefaultRequestTimeout  = 5 * time.Minute
	DefaultMaxStoreBytes   = int64(256) << 20 // 256 MiB object tier
	DefaultChunkCacheBytes = int64(64) << 20  // 64 MiB decoded-chunk cache
)

// Server is the positd request handler. Create with New, mount via
// Handler.
type Server struct {
	cfg     Config
	codecs  map[string]compress.Codec
	names   []string // registry order, for /v1/codecs
	sem     chan struct{}
	metrics *metrics
	shell   *httpshell.Shell
	tracer  *trace.Tracer // nil when tracing is disabled
	advisor *advisor.Advisor
	ready   atomic.Bool // GET /readyz verdict; see SetReady

	store      *objectStore                              // PUT /v1/objects tier
	chunkCache *chunkcache.Cache[chunkcache.Key, []byte] // nil when caching is disabled
}

// New validates cfg, fills defaults, and returns a ready Server.
func New(cfg Config) (*Server, error) {
	if cfg.Codecs == nil {
		cfg.Codecs = all.Codecs()
	}
	if len(cfg.Codecs) == 0 {
		return nil, fmt.Errorf("server: empty codec registry")
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = compress.DefaultChunkSize
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxStoreBytes <= 0 {
		cfg.MaxStoreBytes = DefaultMaxStoreBytes
	}
	if cfg.ChunkCacheBytes == 0 {
		cfg.ChunkCacheBytes = DefaultChunkCacheBytes
	}
	s := &Server{
		cfg:     cfg,
		codecs:  make(map[string]compress.Codec, len(cfg.Codecs)),
		sem:     make(chan struct{}, cfg.MaxInflight),
		metrics: newMetrics(),
		store:   newObjectStore(cfg.MaxStoreBytes),
	}
	s.shell = httpshell.New(cfg.AccessLog, s.metrics.recordRequest)
	if cfg.ChunkCacheBytes > 0 {
		s.chunkCache = chunkcache.New[chunkcache.Key](cfg.ChunkCacheBytes, chunkcache.Bytes)
	}
	if cfg.TraceCapacity >= 0 {
		s.tracer = trace.New(cfg.TraceCapacity)
	}
	for _, c := range cfg.Codecs {
		if _, dup := s.codecs[c.Name()]; dup {
			return nil, fmt.Errorf("server: duplicate codec %q", c.Name())
		}
		s.codecs[c.Name()] = c
		s.names = append(s.names, c.Name())
	}
	// POST /v1/compress/auto's advisor runs its defaults over the served
	// registry.
	adv, err := advisor.New(advisor.Config{Codecs: cfg.Codecs})
	if err != nil {
		return nil, fmt.Errorf("server: advisor: %w", err)
	}
	s.advisor = adv
	if _, have := s.codecs["lc"]; !have && adv.Eligible("lc") {
		// Auto mode can elect an LC pipeline, so the registry needs an "lc"
		// entry for /v1/decompress (and direct /v1/compress/lc). LC streams
		// are self-describing — any instance decodes any pipeline — so one
		// default-pipeline codec serves the whole family.
		pipe, err := lc.NewPipeline(strings.Split(advisor.DefaultLCPipelines()[0], "|")...)
		if err != nil {
			return nil, fmt.Errorf("server: lc registry entry: %w", err)
		}
		lcCodec := container.Wrap(lc.NewCodec(pipe))
		s.codecs["lc"] = lcCodec
		s.names = append(s.names, "lc")
	}
	s.ready.Store(true)
	return s, nil
}

// SetReady flips the GET /readyz verdict. Liveness (/healthz) and
// readiness (/readyz) are deliberately split: a process is alive from New
// until exit, but only ready while it should receive new traffic. The
// daemon turns readiness off before the listener is accepting and again at
// the start of a drain, so load balancers and the positgw health checker
// stop routing to it before the listener actually closes.
func (s *Server) SetReady(v bool) { s.ready.Store(v) }

// Handler returns the fully middleware-wrapped route mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	api := func(route string, h http.HandlerFunc) http.Handler {
		// Innermost to outermost: deadline, admission, tracing, then the
		// request-ID/log/recovery shell shared with the ops routes. The
		// root span sits outside admission so shed requests still leave a
		// (tiny) trace, and inside the shell so the request ID exists.
		return s.shell.Wrap(route, s.traced(route, s.admit(s.deadline(h))))
	}
	mux.Handle("POST /v1/compress/auto", api("auto", s.handleAuto))
	mux.Handle("POST /v1/compress/{codec}", api("compress", s.handleCompress))
	mux.Handle("POST /v1/decompress", api("decompress", s.handleDecompress))
	mux.Handle("POST /v1/convert", api("convert", s.handleConvert))
	mux.Handle("POST /v1/analyze", api("analyze", s.handleAnalyze))
	mux.Handle("PUT /v1/objects/{key}", api("put_object", s.handlePutObject))
	mux.Handle("GET /v1/objects/{key}", s.shell.Wrap("stat_object", http.HandlerFunc(s.handleStatObject)))
	mux.Handle("GET /v1/read/{key}", api("read", s.handleRead))
	mux.Handle("GET /v1/codecs", s.shell.Wrap("codecs", http.HandlerFunc(s.handleCodecs)))
	// Ops endpoints bypass admission and deadlines: a saturated or
	// draining server must still answer its probes.
	mux.Handle("GET /healthz", s.shell.Wrap("healthz", http.HandlerFunc(s.handleHealthz)))
	mux.Handle("GET /readyz", s.shell.Wrap("readyz", http.HandlerFunc(s.handleReadyz)))
	mux.Handle("GET /metrics", s.shell.Wrap("metrics", http.HandlerFunc(s.handleMetrics)))
	return mux
}

// codec resolves a registry codec by name.
func (s *Server) codec(name string) (compress.Codec, bool) {
	c, ok := s.codecs[name]
	return c, ok
}
