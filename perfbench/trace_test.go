package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"positbench/internal/compress"
	"positbench/internal/compress/all"
	"positbench/internal/container"
)

// The traced pass must drive the engine and server down the same paths as
// the untraced one, so the wrapper implements exactly the optional codec
// capabilities a framed registry codec implements: no fewer (a path would
// be lost) and no more (the Append fast paths would be taken).
func TestTracedCodecCapabilities(t *testing.T) {
	capabilities := map[string]reflect.Type{
		"LightDecoder":       reflect.TypeOf((*compress.LightDecoder)(nil)).Elem(),
		"Describer":          reflect.TypeOf((*compress.Describer)(nil)).Elem(),
		"Limited":            reflect.TypeOf((*compress.Limited)(nil)).Elem(),
		"TracedCompressor":   reflect.TypeOf((*compress.TracedCompressor)(nil)).Elem(),
		"TracedDecompressor": reflect.TypeOf((*compress.TracedDecompressor)(nil)).Elem(),
		"AppendCompressor":   reflect.TypeOf((*compress.AppendCompressor)(nil)).Elem(),
		"AppendDecompressor": reflect.TypeOf((*compress.AppendDecompressor)(nil)).Elem(),
		"IndexSink":          reflect.TypeOf((*compress.IndexSink)(nil)).Elem(),
	}
	want := map[string]bool{"LightDecoder": true, "Describer": true, "Limited": true,
		"TracedCompressor": true, "TracedDecompressor": true}
	framed := reflect.TypeOf((*container.Codec)(nil))
	wrapped := reflect.TypeOf((*tracedCodec)(nil))
	for name, iface := range capabilities {
		if got := framed.Implements(iface); got != want[name] {
			t.Errorf("*container.Codec implements %s = %v; the wrapper's pinned set is stale", name, got)
		}
		if got := wrapped.Implements(iface); got != want[name] {
			t.Errorf("tracedCodec implements %s = %v, want %v", name, got, want[name])
		}
	}
}

// Wrapped codecs produce the same bytes and account the raw bytes they
// moved in each direction.
func TestTracedCodecForwards(t *testing.T) {
	rec := newRecorder()
	var ct codecTallies
	codecs, err := traceCodecs(all.Codecs(), rec, &ct)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]byte, 1<<14)
	for i := range src {
		src[i] = byte(i * i >> 7)
	}
	for i, c := range all.Codecs() {
		want, err := c.Compress(src)
		if err != nil {
			t.Fatal(err)
		}
		got, err := codecs[i].Compress(src)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: wrapped output differs", c.Name())
		}
		back, err := compress.DecompressLimits(codecs[i], got, compress.DecodeLimits{})
		if err != nil || !reflect.DeepEqual(back, src) {
			t.Fatalf("%s: wrapped roundtrip failed: %v", c.Name(), err)
		}
		tally := ct.get(c.Name())
		if tally[0].bytes.Load() != int64(len(src)) || tally[1].bytes.Load() != int64(len(src)) {
			t.Fatalf("%s: tallied %d compress / %d decompress bytes, want %d each",
				c.Name(), tally[0].bytes.Load(), tally[1].bytes.Load(), len(src))
		}
	}
	if n := len(rec.snapshot()); n != 2*len(codecs) {
		t.Fatalf("recorded %d spans, want %d", n, 2*len(codecs))
	}
}

// Spans of one request form one tree: every backend try hangs off the
// gateway span, and a backend without a gateway in front hangs off the
// client span.
func TestRecorderLinksRequestSpans(t *testing.T) {
	rec := newRecorder()
	now := time.Now()
	at := func(ms int) time.Time { return now.Add(time.Duration(ms) * time.Millisecond) }
	try1 := rec.add("server.read", "r1", 0, at(2), at(3), 0)
	try2 := rec.add("server.read", "r1", 0, at(4), at(5), 0)
	gw := rec.add("gateway.read", "r1", 0, at(1), at(6), 0)
	client := rec.add("client.read", "r1", 0, at(0), at(7), 0)
	direct := rec.add("server.compress", "r2", 0, at(1), at(2), 0)
	directClient := rec.add("client.compress", "r2", 0, at(0), at(3), 0)

	path := filepath.Join(t.TempDir(), "spans.json")
	if err := rec.write(path, stamp{}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out struct{ Spans []span }
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	want := map[int64]int64{try1: gw, try2: gw, gw: client, client: 0, direct: directClient, directClient: 0}
	for _, s := range out.Spans {
		if s.Parent != want[s.ID] {
			t.Errorf("span %d (%s) has parent %d, want %d", s.ID, s.Name, s.Parent, want[s.ID])
		}
	}
}
