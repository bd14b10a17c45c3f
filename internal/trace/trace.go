// Package trace is positbench's in-process request tracer: a lightweight
// span tree recording where the time and bytes of one request go (queue
// wait vs worker time in the parallel engine, BWT vs Huffman vs range-coder
// phases inside a codec), plus a fixed-size ring buffer of recently
// finished traces for the /debug/traces endpoint.
//
// The design goal is that *disabled* tracing costs nearly nothing: every
// Span method is safe on a nil receiver and returns immediately, so
// instrumented code holds a nil *Span and pays one predictable branch per
// call — no time.Now, no allocation, no atomic. Code that would do real
// work to feed a span (timing a phase, formatting an attribute) must gate
// it on Enabled().
//
// Concurrency: one Span's methods may be called from multiple goroutines
// (the parallel engine attributes chunk work from its workers), so child
// registration and mutation take a per-span mutex. The ring buffer is
// lock-free-ish: writers claim a slot with one atomic increment and publish
// with one atomic pointer store; readers snapshot pointers without blocking
// writers.
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// maxChildren bounds one span's direct children so an adversarial or
// enormous stream (millions of chunks) cannot grow a trace without bound.
// Children past the cap are counted, not stored.
const maxChildren = 512

// maxAttrs bounds per-span attributes the same way.
const maxAttrs = 32

// Attr is one key=value annotation on a span.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Span is one timed region of a request. Spans form a tree under a root
// created by Tracer.Start; a nil *Span is the disabled tracer and all its
// methods no-op.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	end      time.Time // zero until End
	bytesIn  int64
	bytesOut int64
	attrs    []Attr
	children []*Span
	dropped  int // children beyond maxChildren

	root *rootState // non-nil only on root spans
}

// rootState ties a root span back to its tracer for publication on End.
type rootState struct {
	tracer *Tracer
	id     string
	done   atomic.Bool // first End wins; later Ends are no-ops
}

// Enabled reports whether the span records anything. Instrumented code uses
// it to gate work done purely to feed the span (time.Now calls, string
// formatting).
func (s *Span) Enabled() bool { return s != nil }

// Child opens a sub-span named name, started now. It is safe to call from
// multiple goroutines on the same parent. On a nil span it returns nil.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now()}
	s.adopt(c)
	return c
}

// adopt registers c as a child, dropping (but counting) children past the
// cap. Dropped children still record into their own subtree; they are just
// invisible in the exported trace.
func (s *Span) adopt(c *Span) {
	s.mu.Lock()
	if len(s.children) < maxChildren {
		s.children = append(s.children, c)
	} else {
		s.dropped++
	}
	s.mu.Unlock()
}

// AddStage attaches an already-measured phase as a completed child span:
// callers that time a phase themselves (or aggregate one phase across
// parallel workers) report it in a single call. The recorded interval is
// [now-d, now]; for phases summed across concurrent workers the duration is
// CPU-like and may exceed the parent's wall time.
func (s *Span) AddStage(name string, d time.Duration, bytesIn, bytesOut int64) {
	if s == nil {
		return
	}
	now := time.Now()
	c := &Span{name: name, start: now.Add(-d), end: now, bytesIn: bytesIn, bytesOut: bytesOut}
	s.adopt(c)
}

// SetBytes records the span's input/output byte counts.
func (s *Span) SetBytes(in, out int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.bytesIn, s.bytesOut = in, out
	s.mu.Unlock()
}

// Annotate attaches a key=value attribute.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if len(s.attrs) < maxAttrs {
		s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	}
	s.mu.Unlock()
}

// End closes the span. Ending a root span exports the whole tree into its
// tracer's ring buffer; unfinished descendants are exported with the root's
// end time so a dropped End cannot hold a trace hostage. End is idempotent
// on roots and harmless to repeat elsewhere.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = now
	}
	s.mu.Unlock()
	if s.root != nil && s.root.done.CompareAndSwap(false, true) {
		s.root.tracer.publish(s)
	}
}

// SpanData is the exported, immutable form of one span, relative to the
// trace's start so a JSON consumer can lay out a flame view directly.
type SpanData struct {
	Name     string      `json:"name"`
	StartUS  int64       `json:"start_us"` // offset from trace start
	DurUS    int64       `json:"dur_us"`
	BytesIn  int64       `json:"bytes_in,omitempty"`
	BytesOut int64       `json:"bytes_out,omitempty"`
	Attrs    []Attr      `json:"attrs,omitempty"`
	Dropped  int         `json:"dropped_children,omitempty"`
	Children []*SpanData `json:"children,omitempty"`
}

// Trace is one finished request's span tree, as stored in the ring.
type Trace struct {
	ID    string    `json:"id"`
	Start time.Time `json:"start"`
	Root  *SpanData `json:"root"`
}

// export freezes the span subtree. base is the trace start; fallbackEnd
// closes any span still open at export time.
func (s *Span) export(base, fallbackEnd time.Time) *SpanData {
	s.mu.Lock()
	end := s.end
	if end.IsZero() {
		end = fallbackEnd
	}
	d := &SpanData{
		Name:     s.name,
		StartUS:  s.start.Sub(base).Microseconds(),
		DurUS:    end.Sub(s.start).Microseconds(),
		BytesIn:  s.bytesIn,
		BytesOut: s.bytesOut,
		Attrs:    append([]Attr(nil), s.attrs...),
		Dropped:  s.dropped,
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		d.Children = append(d.Children, c.export(base, fallbackEnd))
	}
	return d
}

// Tracer owns the ring buffer of recent traces. A nil *Tracer is the
// disabled tracer: Start returns a nil span and Snapshot returns nil.
type Tracer struct {
	slots []atomic.Pointer[Trace]
	seq   atomic.Uint64
}

// DefaultCapacity is the ring size New selects for capacity <= 0.
const DefaultCapacity = 128

// New returns a tracer retaining the last capacity finished traces.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{slots: make([]atomic.Pointer[Trace], capacity)}
}

// Start opens a root span for one request. id is the request's correlation
// ID (exported with the trace); name labels the root span. On a nil tracer
// it returns nil, which disables the whole subtree for free.
func (t *Tracer) Start(name, id string) *Span {
	if t == nil {
		return nil
	}
	return &Span{
		name:  name,
		start: time.Now(),
		root:  &rootState{tracer: t, id: id},
	}
}

// publish freezes a finished root into the next ring slot.
func (t *Tracer) publish(root *Span) {
	root.mu.Lock()
	end := root.end
	root.mu.Unlock()
	tr := &Trace{ID: root.root.id, Start: root.start, Root: root.export(root.start, end)}
	slot := (t.seq.Add(1) - 1) % uint64(len(t.slots))
	t.slots[slot].Store(tr)
}

// Snapshot returns the retained traces, most recent first. It never blocks
// writers; a trace published concurrently may or may not appear.
func (t *Tracer) Snapshot() []*Trace {
	if t == nil {
		return nil
	}
	n := t.seq.Load()
	capN := uint64(len(t.slots))
	if n > capN {
		n = capN
	}
	out := make([]*Trace, 0, n)
	next := t.seq.Load()
	for i := uint64(0); i < capN && uint64(len(out)) < n; i++ {
		// Walk backwards from the most recently claimed slot.
		slot := (next - 1 - i + capN*2) % capN
		if tr := t.slots[slot].Load(); tr != nil {
			out = append(out, tr)
		}
	}
	return out
}

// Len reports how many traces have ever been published (not the ring size).
func (t *Tracer) Len() uint64 {
	if t == nil {
		return 0
	}
	return t.seq.Load()
}

// Capacity reports the ring size (0 on a nil tracer).
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	return len(t.slots)
}
