package advisor

import (
	"bytes"
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"positbench/internal/chunkcache"
	"positbench/internal/compress"
	"positbench/internal/trace"
)

// waveBytes serializes n float32 samples of a smooth wave — representative
// float data every registry codec compresses meaningfully.
func waveBytes(n int, phase float64) []byte {
	out := make([]byte, 0, 4*n)
	for i := 0; i < n; i++ {
		b := math.Float32bits(float32(math.Sin(phase + float64(i)/50)))
		out = append(out, byte(b), byte(b>>8), byte(b>>16), byte(b>>24))
	}
	return out
}

func TestSampleDeterministic(t *testing.T) {
	data := waveBytes(1<<18, 0) // 1 MiB, well over budget
	s1 := Sample(data, DefaultSampleBytes)
	s2 := Sample(data, DefaultSampleBytes)
	if !bytes.Equal(s1, s2) {
		t.Fatal("Sample is not deterministic on identical input")
	}
	if len(s1) > DefaultSampleBytes {
		t.Fatalf("sample len %d exceeds budget %d", len(s1), DefaultSampleBytes)
	}
	if len(s1) == 0 {
		t.Fatal("sample is empty")
	}
	small := waveBytes(16, 0)
	if got := Sample(small, DefaultSampleBytes); !bytes.Equal(got, small) {
		t.Fatal("under-budget input should sample to itself")
	}
}

func TestDecideDeterministic(t *testing.T) {
	data := waveBytes(1<<16, 0)
	sample := Sample(data, DefaultSampleBytes)

	decide := func() Decision {
		a, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		d, err := a.Decide(context.Background(), sample, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d1, d2 := decide(), decide()
	if d1.Codec != d2.Codec || d1.Pipeline != d2.Pipeline {
		t.Fatalf("identical input decided differently: %s/%s vs %s/%s",
			d1.Codec, d1.Pipeline, d2.Codec, d2.Pipeline)
	}
	if d1.Confidence != d2.Confidence || d1.SampleRatio != d2.SampleRatio {
		t.Fatalf("identical input scored differently: %+v vs %+v", d1, d2)
	}
	if d1.Fingerprint.Key != d2.Fingerprint.Key {
		t.Fatalf("fingerprint keys differ: %s vs %s", d1.Fingerprint.Key, d2.Fingerprint.Key)
	}
	if d1.Source != SourceTrial || d1.Fallback {
		t.Fatalf("fresh decision has Source=%s Fallback=%v", d1.Source, d1.Fallback)
	}
	if d1.SampleRatio <= 1 {
		t.Fatalf("winner ratio %.3f should beat 1.0 on smooth wave data", d1.SampleRatio)
	}
	if len(d1.Candidates) == 0 || d1.Candidates[0].Codec != d1.Codec {
		t.Fatalf("candidates not winner-first: %+v", d1.Candidates)
	}
}

func TestDecideCacheHit(t *testing.T) {
	a, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	sample := Sample(waveBytes(1<<15, 1), 0)
	d1, err := a.Decide(context.Background(), sample, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := a.Decide(context.Background(), sample, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Source != SourceCache || !d2.CacheHit() {
		t.Fatalf("second decide source = %s, want cache hit", d2.Source)
	}
	if d2.Codec != d1.Codec || d2.Pipeline != d1.Pipeline {
		t.Fatalf("cache returned different decision: %s/%s vs %s/%s",
			d2.Codec, d2.Pipeline, d1.Codec, d1.Pipeline)
	}
	st := a.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 || st.Decisions != 2 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 2 decisions", st)
	}
	if st.HitRatePct != 50 {
		t.Fatalf("hit rate %.1f, want 50", st.HitRatePct)
	}
}

func TestDecideHints(t *testing.T) {
	a, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	sample := Sample(waveBytes(1<<14, 2), 0)
	d, err := a.Decide(context.Background(), sample, []string{"gzip"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Codec != "gzip" {
		t.Fatalf("hint-constrained decision chose %s, want gzip", d.Codec)
	}
	if len(d.Candidates) != 1 {
		t.Fatalf("hint should restrict candidates, got %d", len(d.Candidates))
	}
	// Hints are part of the cache key: the unconstrained decision must not
	// be served from the hinted entry.
	d2, err := a.Decide(context.Background(), sample, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Source != SourceTrial {
		t.Fatalf("differently-hinted decide reused cache entry (source %s)", d2.Source)
	}
	if _, err := a.Decide(context.Background(), sample, []string{"nope"}, nil); err == nil {
		t.Fatal("unknown hint should error")
	}
}

func TestDecideLCHint(t *testing.T) {
	a, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	sample := Sample(waveBytes(1<<14, 3), 0)
	d, err := a.Decide(context.Background(), sample, []string{"lc"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Codec != "lc" || d.Pipeline == "" {
		t.Fatalf("lc hint decided %s/%q, want lc with a pipeline", d.Codec, d.Pipeline)
	}
	if len(d.Candidates) != len(DefaultLCPipelines()) {
		t.Fatalf("%d lc candidates, want %d", len(d.Candidates), len(DefaultLCPipelines()))
	}
	codec, err := a.CodecFor(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := compress.Roundtrip(codec, sample); err != nil {
		t.Fatalf("decided lc codec does not roundtrip: %v", err)
	}
}

func TestCacheEviction(t *testing.T) {
	a, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	a.cache = chunkcache.New[string](2, func(Decision) int64 { return 1 })
	samples := [][]byte{
		Sample(waveBytes(1<<12, 0), 0),
		Sample(waveBytes(1<<12, 10), 0),
		Sample(waveBytes(1<<12, 20), 0),
	}
	for _, s := range samples {
		if _, err := a.Decide(context.Background(), s, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	st := a.Stats()
	if st.CacheLen != 2 || st.Evictions != 1 {
		t.Fatalf("after 3 inserts into cap-2 cache: len=%d evictions=%d", st.CacheLen, st.Evictions)
	}
	// The first sample was evicted (LRU), so re-deciding it is a miss.
	d, err := a.Decide(context.Background(), samples[0], nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Source != SourceTrial {
		t.Fatalf("evicted entry served from %s, want fresh trial", d.Source)
	}
	if st := a.Stats(); st.Evictions != 2 {
		t.Fatalf("re-insert should evict again, evictions=%d", st.Evictions)
	}
}

// gateCodec blocks every Compress until the gate closes and counts calls.
type gateCodec struct {
	gate  chan struct{}
	mu    sync.Mutex
	calls int
}

func (g *gateCodec) Name() string { return "gate" }
func (g *gateCodec) Compress(src []byte) ([]byte, error) {
	g.mu.Lock()
	g.calls++
	g.mu.Unlock()
	<-g.gate
	return append([]byte(nil), src...), nil
}
func (g *gateCodec) Decompress(comp []byte) ([]byte, error) {
	return append([]byte(nil), comp...), nil
}

func TestSingleFlight(t *testing.T) {
	gc := &gateCodec{gate: make(chan struct{})}
	a, err := New(Config{Codecs: []compress.Codec{gc}, LCPipelines: []string{}})
	if err != nil {
		t.Fatal(err)
	}
	sample := waveBytes(1<<10, 0)

	const n = 8
	var wg sync.WaitGroup
	decs := make([]Decision, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, err := a.Decide(context.Background(), sample, nil, nil)
			if err != nil {
				t.Error(err)
				return
			}
			decs[i] = d
		}(i)
	}
	// The leader is parked inside Compress; everyone else must coalesce
	// onto its flight before we open the gate.
	deadline := time.Now().Add(5 * time.Second)
	for a.Stats().Coalesced != n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("coalesced=%d, want %d waiters", a.Stats().Coalesced, n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(gc.gate)
	wg.Wait()

	if gc.calls != 1 {
		t.Fatalf("%d trial compressions for %d concurrent identical uploads, want 1", gc.calls, n)
	}
	st := a.Stats()
	if st.CacheMisses != 1 || st.Coalesced != n-1 || st.Decisions != n {
		t.Fatalf("stats = %+v, want 1 miss + %d coalesced over %d decisions", st, n-1, n)
	}
	for i, d := range decs {
		if d.Codec != "gate" {
			t.Fatalf("decision %d chose %q", i, d.Codec)
		}
	}
}

// TestDecideWaitHonoursCtx: a Decide waiting on a concurrent identical
// decision stops when its ctx ends, without counting as a decision, and the
// leader's decision is cached once its trials finish.
func TestDecideWaitHonoursCtx(t *testing.T) {
	gc := &gateCodec{gate: make(chan struct{})}
	a, err := New(Config{Codecs: []compress.Codec{gc}, LCPipelines: []string{}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		select {
		case <-gc.gate:
		default:
			close(gc.gate) // let the leader finish if a check failed early
		}
	}()
	sample := waveBytes(1<<10, 0)
	leader := make(chan error, 1)
	go func() {
		_, err := a.Decide(context.Background(), sample, nil, nil)
		leader <- err
	}()
	// The leader is parked inside Compress once the trial has started.
	deadline := time.After(5 * time.Second)
	for a.Stats().CacheMisses != 1 {
		select {
		case <-deadline:
			t.Fatal("leader never started its trial")
		case <-time.After(time.Millisecond):
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan error, 1)
	go func() {
		_, err := a.Decide(ctx, sample, nil, nil)
		waiter <- err
	}()
	for a.Stats().Coalesced != 1 {
		select {
		case <-deadline:
			t.Fatal("second Decide never coalesced onto the leader's trial")
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	// A waiter that ignores its ctx would park until the gate opens, which
	// only happens after this bound: it fails here instead of hanging.
	select {
	case err := <-waiter:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
		}
	case <-deadline:
		t.Fatal("cancelled Decide still waiting on the parked trial")
	}
	if st := a.Stats(); st.Decisions != 0 || st.CacheHits != 0 {
		t.Fatalf("cancelled wait counted: %+v", st)
	}

	close(gc.gate)
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	d, err := a.Decide(context.Background(), sample, nil, nil)
	if err != nil || d.Source != SourceCache || d.Codec != "gate" {
		t.Fatalf("after the trial: %+v, %v; want the leader's decision from cache", d, err)
	}
	if gc.calls != 1 {
		t.Fatalf("%d trial compressions, want 1", gc.calls)
	}
	if st := a.Stats(); st.Decisions != 2 || st.CacheHits != 1 || st.CacheMisses != 1 || st.Coalesced != 1 {
		t.Fatalf("stats = %+v, want 2 decisions: 1 hit, 1 miss, 1 coalesced wait", st)
	}
}

// faultCodec fails every compression, either by error or by panic —
// standing in for a codec facing a sample it cannot digest.
type faultCodec struct {
	name   string
	panics bool
}

func (f *faultCodec) Name() string { return f.name }
func (f *faultCodec) Compress(src []byte) ([]byte, error) {
	if f.panics {
		panic("corrupt sample")
	}
	return nil, errors.New("corrupt sample")
}
func (f *faultCodec) Decompress(comp []byte) ([]byte, error) {
	return nil, errors.New("unreachable")
}

func TestFallbackOnCorruptSample(t *testing.T) {
	a, err := New(Config{
		Codecs:      []compress.Codec{&faultCodec{name: "erroring"}, &faultCodec{name: "panicking", panics: true}},
		LCPipelines: []string{},
	})
	if err != nil {
		t.Fatal(err)
	}
	sp := trace.New(4).Start("test", "t1")
	d, err := a.Decide(context.Background(), waveBytes(256, 0), nil, sp)
	sp.End()
	if err != nil {
		t.Fatalf("corrupt sample must degrade, not error: %v", err)
	}
	if !d.Fallback || d.Codec != "erroring" || d.Confidence != 0 {
		t.Fatalf("want fallback to default with zero confidence, got %+v", d)
	}
	for _, c := range d.Candidates {
		if c.Err == "" {
			t.Fatalf("candidate %s should carry its failure", c.Codec)
		}
	}
	if st := a.Stats(); st.Fallbacks != 1 {
		t.Fatalf("fallbacks = %d, want 1", st.Fallbacks)
	}
}

func TestDecideEmptySample(t *testing.T) {
	a, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := a.Decide(context.Background(), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Fallback || d.Codec != DefaultCodecName {
		t.Fatalf("empty sample should fall back to %s, got %+v", DefaultCodecName, d)
	}
}

func TestDecideTraceSubtree(t *testing.T) {
	tr := trace.New(4)
	root := tr.Start("req", "r1")
	a, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Decide(context.Background(), Sample(waveBytes(1<<13, 5), 0), nil, root); err != nil {
		t.Fatal(err)
	}
	root.End()
	snaps := tr.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("want 1 trace, got %d", len(snaps))
	}
	var advise *trace.SpanData
	for _, c := range snaps[0].Root.Children {
		if c.Name == "advise" {
			advise = c
		}
	}
	if advise == nil {
		t.Fatal("no advise span under request root")
	}
	var haveFingerprint, haveTrial bool
	for _, c := range advise.Children {
		if c.Name == "fingerprint" {
			haveFingerprint = true
		}
		if len(c.Name) > 6 && c.Name[:6] == "trial:" {
			haveTrial = true
		}
	}
	if !haveFingerprint || !haveTrial {
		t.Fatalf("advise span missing stages (fingerprint=%v trial=%v)", haveFingerprint, haveTrial)
	}
	var codecAttr string
	for _, at := range advise.Attrs {
		if at.Key == "codec" {
			codecAttr = at.Value
		}
	}
	if codecAttr == "" {
		t.Fatal("advise span has no codec annotation")
	}
}

func TestFingerprintFeatures(t *testing.T) {
	// A constant stream: zero exponent entropy, zero sign flips, maximal
	// block repetition.
	constant := bytes.Repeat(waveBytes(1, 0), 4096)
	fp := fingerprintSample(constant, "")
	if fp.ExpEntropy != 0 {
		t.Fatalf("constant stream ExpEntropy = %f, want 0", fp.ExpEntropy)
	}
	if fp.SignFlipPct != 0 {
		t.Fatalf("constant stream SignFlipPct = %f, want 0", fp.SignFlipPct)
	}
	if fp.RepeatPct < 90 {
		t.Fatalf("constant stream RepeatPct = %f, want ~100", fp.RepeatPct)
	}
	if !fp.FloatLike {
		t.Fatal("constant finite floats should be FloatLike")
	}

	// A NaN-saturated stream is not float-like.
	nan := bytes.Repeat([]byte{0xFF, 0xFF, 0xFF, 0x7F}, 1024)
	if fp := fingerprintSample(nan, ""); fp.FloatLike {
		t.Fatal("all-NaN stream should not be FloatLike")
	}

	// Wave data exercises the entropy features without degenerating.
	fp = fingerprintSample(waveBytes(4096, 0), "")
	if fp.ExpEntropy <= 0 || fp.MantDeltaEntropy <= 0 {
		t.Fatalf("wave entropies should be positive: %+v", fp)
	}

	// Hints split the key; hint order and case do not.
	data := waveBytes(64, 0)
	base := sampleKey(data, nil)
	hinted := sampleKey(data, normalizeHints([]string{"gzip", "zstd"}))
	if base == hinted {
		t.Fatal("hints must split the cache key")
	}
	reordered := sampleKey(data, normalizeHints([]string{"ZSTD", " gzip "}))
	if hinted != reordered {
		t.Fatalf("hint normalization failed: %q vs %q", hinted, reordered)
	}
}

func TestCodecForRegistry(t *testing.T) {
	a, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := a.CodecFor(Decision{Codec: "gzip"})
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "gzip" {
		t.Fatalf("CodecFor(gzip) = %s", c.Name())
	}
	if _, err := a.CodecFor(Decision{Codec: "nope"}); err == nil {
		t.Fatal("CodecFor should reject unknown codec")
	}
	if _, err := a.CodecFor(Decision{Codec: "lc", Pipeline: "BOGUS|X|Y"}); err == nil {
		t.Fatal("CodecFor should reject bad pipeline")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{LCPipelines: []string{"NOT|A|PIPE"}}); err == nil {
		t.Fatal("bad lc pipeline should error")
	}
	if _, err := New(Config{Codecs: []compress.Codec{}, LCPipelines: []string{}}); err == nil {
		t.Fatal("no candidates should error")
	}
}

// BenchmarkDecideHit times a cache-hit Decide on a 48 KiB sample, the mean
// auto body of perfbench's ingest workload: the key hash and the lookup,
// with no feature pass.
func BenchmarkDecideHit(b *testing.B) {
	a, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	sample := waveBytes(12<<10, 0)
	if _, err := a.Decide(context.Background(), sample, nil, nil); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(sample)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := a.Decide(context.Background(), sample, nil, nil)
		if err != nil || d.Source != SourceCache {
			b.Fatalf("source %s, err %v; want a cache hit", d.Source, err)
		}
	}
}
