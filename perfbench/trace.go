package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"positbench/internal/compress"
	"positbench/internal/container"
	"positbench/internal/trace"
)

// maxSpans caps the recorder so a long traced run cannot grow without
// bound; spans past the cap are counted, not kept.
const maxSpans = 1 << 20

// span is one recorded interval. Times are nanoseconds since the
// recorder's epoch. Req joins the client, gateway and backend spans of one
// HTTP request (the X-Request-ID the client sent).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory for the traced run and writes them as
// JSON when the run ends. It lives in the benchmark, not in the program:
// spans are taken around the calls the benchmark makes into each layer.
// A nil *recorder records nothing, which is how the untraced passes run.
type recorder struct {
	epoch   time.Time
	nextID  atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records one finished span and returns its ID (0 on a nil recorder).
func (r *recorder) add(name, req string, parent int64, start, end time.Time, bytes int64) int64 {
	if r == nil {
		return 0
	}
	id := r.nextID.Add(1)
	s := span{ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(), Bytes: bytes}
	r.mu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
	return id
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// reqSpans are one request's spans, by name prefix.
type reqSpans struct{ client, gateway, server []span }

// byRequest groups the spans that carry a request ID.
func (r *recorder) byRequest() map[string]*reqSpans {
	out := map[string]*reqSpans{}
	for _, s := range r.snapshot() {
		if s.Req == "" {
			continue
		}
		rs := out[s.Req]
		if rs == nil {
			rs = &reqSpans{}
			out[s.Req] = rs
		}
		switch {
		case strings.HasPrefix(s.Name, "client."):
			rs.client = append(rs.client, s)
		case strings.HasPrefix(s.Name, "gateway."):
			rs.gateway = append(rs.gateway, s)
		case strings.HasPrefix(s.Name, "server."):
			rs.server = append(rs.server, s)
		}
	}
	return out
}

// write links each request's spans into one tree (client, then gateway,
// then backend) and writes every span, with the stamp, as one JSON file.
func (r *recorder) write(path string, st stamp) error {
	spans := r.snapshot()
	hops := map[string]*[3]int64{} // req -> a span ID at each depth
	sort.SliceStable(spans, func(i, j int) bool { return spanDepth(spans[i]) < spanDepth(spans[j]) })
	for i := range spans {
		s := &spans[i]
		if s.Req == "" || s.Parent != 0 {
			continue
		}
		h := hops[s.Req]
		if h == nil {
			h = &[3]int64{}
			hops[s.Req] = h
		}
		d := spanDepth(*s)
		for up := d - 1; up >= 0 && s.Parent == 0; up-- {
			s.Parent = h[up] // the nearest outer hop: positd has no gateway in front on ingest
		}
		h[d] = s.ID
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Stamp   stamp  `json:"stamp"`
		Dropped int64  `json:"dropped"`
		Spans   []span `json:"spans"`
	}{st, r.dropped, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func spanDepth(s span) int {
	switch {
	case strings.HasPrefix(s.Name, "client."):
		return 0
	case strings.HasPrefix(s.Name, "gateway."):
		return 1
	}
	return 2
}

// handlerSpans wraps h so every request it serves leaves one span named
// prefix+"."+route, joined to its client span by X-Request-ID.
func handlerSpans(rec *recorder, prefix string, h http.Handler) http.Handler {
	if rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		rec.add(prefix+"."+routeOf(r), r.Header.Get("X-Request-ID"), 0, start, time.Now(), r.ContentLength)
	})
}

// routeOf names the positd route a request hits, as the server's own
// metrics name it.
func routeOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/compress/auto":
		return "auto"
	case strings.HasPrefix(p, "/v1/compress/"):
		return "compress"
	case p == "/v1/decompress":
		return "decompress"
	case p == "/v1/convert":
		return "convert"
	case strings.HasPrefix(p, "/v1/read/"):
		return "read"
	case strings.HasPrefix(p, "/v1/objects/") && r.Method == http.MethodPut:
		return "put_object"
	}
	return "other"
}

// codecTally accumulates one codec direction's work: bytes of raw data and
// the busy time spent inside the codec call.
type codecTally struct {
	bytes  atomic.Int64
	busyNS atomic.Int64
}

func (t *codecTally) add(bytes int, d time.Duration) {
	t.bytes.Add(int64(bytes))
	t.busyNS.Add(int64(d))
}

// mbPerS is raw MB over busy seconds; 0 when the codec did no work.
func (t *codecTally) mbPerS() float64 {
	if t.busyNS.Load() == 0 {
		return 0
	}
	return float64(t.bytes.Load()) / 1e6 / (float64(t.busyNS.Load()) / 1e9)
}

// reset zeroes every tally, so a pass counts only its timed phase.
func (ct *codecTallies) reset() {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	for _, t := range ct.m {
		for i := range t {
			t[i].bytes.Store(0)
			t[i].busyNS.Store(0)
		}
	}
}

// codecTallies holds the compress and decompress tallies of every wrapped
// codec, keyed by codec name.
type codecTallies struct {
	mu sync.Mutex
	m  map[string]*[2]codecTally // [0] compress, [1] decompress
}

func (ct *codecTallies) get(name string) *[2]codecTally {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if ct.m == nil {
		ct.m = map[string]*[2]codecTally{}
	}
	t := ct.m[name]
	if t == nil {
		t = &[2]codecTally{}
		ct.m[name] = t
	}
	return t
}

// tracedCodec forwards every call to a registry codec (a *container.Codec)
// and times it. It implements exactly the capabilities *container.Codec
// implements, so the engine and server take the same paths with it as
// without it; TestTracedCodecCapabilities pins that set.
type tracedCodec struct {
	inner *container.Codec
	rec   *recorder
	tally *[2]codecTally
}

// traceCodecs wraps each registry codec for the traced pass.
func traceCodecs(codecs []compress.Codec, rec *recorder, ct *codecTallies) ([]compress.Codec, error) {
	out := make([]compress.Codec, len(codecs))
	for i, c := range codecs {
		fc, ok := c.(*container.Codec)
		if !ok {
			return nil, fmt.Errorf("codec %s is not framed; the wrapper forwards *container.Codec only", c.Name())
		}
		out[i] = &tracedCodec{inner: fc, rec: rec, tally: ct.get(c.Name())}
	}
	return out, nil
}

// done records one call; a failed call counts its time but no bytes.
func (c *tracedCodec) done(dir int, start time.Time, rawBytes int, err error) {
	end := time.Now()
	if err != nil {
		rawBytes = 0
	}
	c.tally[dir].add(rawBytes, end.Sub(start))
	c.rec.add("codec."+c.inner.Name()+"."+[2]string{"compress", "decompress"}[dir], "", 0, start, end, int64(rawBytes))
}

func (c *tracedCodec) Name() string        { return c.inner.Name() }
func (c *tracedCodec) DecodeIsLight() bool { return c.inner.DecodeIsLight() }
func (c *tracedCodec) Info() compress.Info { return c.inner.Info() }

func (c *tracedCodec) Compress(src []byte) ([]byte, error) {
	start := time.Now()
	out, err := c.inner.Compress(src)
	c.done(0, start, len(src), err)
	return out, err
}

func (c *tracedCodec) CompressAppendTrace(dst, src []byte, sp *trace.Span) ([]byte, error) {
	start := time.Now()
	out, err := c.inner.CompressAppendTrace(dst, src, sp)
	c.done(0, start, len(src), err)
	return out, err
}

func (c *tracedCodec) Decompress(comp []byte) ([]byte, error) {
	start := time.Now()
	out, err := c.inner.Decompress(comp)
	c.done(1, start, len(out), err)
	return out, err
}

func (c *tracedCodec) DecompressLimits(comp []byte, lim compress.DecodeLimits) ([]byte, error) {
	start := time.Now()
	out, err := c.inner.DecompressLimits(comp, lim)
	c.done(1, start, len(out), err)
	return out, err
}

func (c *tracedCodec) DecompressAppendLimitsTrace(dst, comp []byte, lim compress.DecodeLimits, sp *trace.Span) ([]byte, error) {
	start := time.Now()
	out, err := c.inner.DecompressAppendLimitsTrace(dst, comp, lim, sp)
	c.done(1, start, len(out)-len(dst), err)
	return out, err
}
