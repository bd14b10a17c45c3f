package lc

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"positbench/internal/compress/codectest"
	"runtime"
	"testing"
	"testing/quick"
)

// Every component must exactly invert its forward transform on arbitrary
// byte strings, including ragged (non-word-aligned) ones.
func TestComponentInvertibility(t *testing.T) {
	for _, c := range Components() {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			cases := [][]byte{
				nil,
				{0},
				{1, 2, 3},       // ragged
				{1, 2, 3, 4, 5}, // word + tail
				make([]byte, 4096),
				floatField(1024),
				positLike(1024),
			}
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 5; i++ {
				b := make([]byte, rng.Intn(3000))
				rng.Read(b)
				cases = append(cases, b)
			}
			for i, src := range cases {
				fwd, err := c.Forward(src)
				if err != nil {
					t.Fatalf("case %d: forward: %v", i, err)
				}
				back, err := c.Inverse(fwd)
				if err != nil {
					t.Fatalf("case %d: inverse: %v", i, err)
				}
				if !bytes.Equal(back, src) {
					t.Fatalf("case %d: roundtrip mismatch (len %d -> %d -> %d)",
						i, len(src), len(fwd), len(back))
				}
			}
		})
	}
}

func TestComponentInvertibilityQuick(t *testing.T) {
	for _, c := range Components() {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			f := func(src []byte) bool {
				fwd, err := c.Forward(src)
				if err != nil {
					return false
				}
				back, err := c.Inverse(fwd)
				return err == nil && bytes.Equal(back, src)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestZigzagNegabinary(t *testing.T) {
	for _, v := range []uint32{0, 1, 0xFFFFFFFF, 0x80000000, 42, 0x7FFFFFFF} {
		if unzigzag(zigzag(v)) != v {
			t.Fatalf("zigzag roundtrip %#x", v)
		}
		if fromNegabinary(toNegabinary(v)) != v {
			t.Fatalf("negabinary roundtrip %#x", v)
		}
	}
	// Small-magnitude deltas map to small codes.
	if zigzag(1) != 2 || zigzag(0xFFFFFFFF) != 1 { // -1 -> 1
		t.Fatal("zigzag mapping")
	}
	// Negabinary of 0 and small values stays small.
	if toNegabinary(0) != 0 {
		t.Fatal("negabinary(0)")
	}
}

func TestByName(t *testing.T) {
	for _, c := range Components() {
		got, err := ByName(c.Name())
		if err != nil || got.Name() != c.Name() {
			t.Fatalf("ByName(%s): %v", c.Name(), err)
		}
	}
	if _, err := ByName("NOPE"); err == nil {
		t.Fatal("want error")
	}
}

func TestPaperPipelines(t *testing.T) {
	// The two pipelines the paper's LC search selected.
	for _, names := range [][]string{
		{"DIFFMS", "RARE", "RAZE"}, // best single pipeline for float data
		{"DIFFNB", "BIT", "RZE"},   // best single pipeline for posit data
	} {
		p, err := NewPipeline(names...)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range [][]byte{floatField(4096), positLike(4096)} {
			comp, err := p.Apply(src)
			if err != nil {
				t.Fatal(err)
			}
			back, err := p.Invert(comp)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back, src) {
				t.Fatalf("%s: roundtrip failed", p)
			}
			if len(comp) >= len(src) {
				t.Errorf("%s: no compression on smooth data: %d -> %d", p, len(src), len(comp))
			}
		}
	}
}

func TestPipelineString(t *testing.T) {
	p, err := NewPipeline("DIFFMS", "RARE", "RAZE")
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != "DIFFMS|RARE|RAZE" {
		t.Fatalf("got %q", p.String())
	}
	if _, err := NewPipeline("BOGUS"); err == nil {
		t.Fatal("want error")
	}
}

func TestCodecSelfDescribing(t *testing.T) {
	p, err := NewPipeline("DIFFNB", "BIT", "RZE")
	if err != nil {
		t.Fatal(err)
	}
	c := NewCodec(p)
	src := floatField(2048)
	comp, err := c.Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh codec with a different pipeline must still decompress it,
	// because the pipeline IDs are in the container.
	other, err := NewPipeline("NUL", "NUL", "NUL")
	if err != nil {
		t.Fatal(err)
	}
	back, err := NewCodec(other).Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, src) {
		t.Fatal("self-describing decompress failed")
	}
	if c.Name() != "lc" {
		t.Fatal("name")
	}
}

func TestCodecBadContainer(t *testing.T) {
	c := NewCodec(Pipeline{})
	if _, err := c.Decompress(nil); err == nil {
		t.Fatal("empty container accepted")
	}
	if _, err := c.Decompress([]byte{3, 1}); err == nil {
		t.Fatal("truncated header accepted")
	}
	if _, err := c.Decompress([]byte{1, 200, 0, 0}); err == nil {
		t.Fatal("bad component id accepted")
	}
}

func TestSearchAllFindsCompressor(t *testing.T) {
	src := floatField(4096)
	rs, err := SearchAll(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != PipelineCount() {
		t.Fatalf("got %d results, want %d", len(rs), PipelineCount())
	}
	best := rs[0]
	if best.Ratio <= 1.2 {
		t.Fatalf("best pipeline ratio %.3f too low on smooth float data", best.Ratio)
	}
	// Results must be sorted by size.
	for i := 1; i < len(rs); i++ {
		if rs[i].Size < rs[i-1].Size {
			t.Fatal("results not sorted")
		}
	}
	// Best pipeline must actually roundtrip at the reported size.
	p, err := best.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	comp, err := p.Apply(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp)+headerBytes != best.Size {
		t.Fatalf("size mismatch: %d vs %d", len(comp)+headerBytes, best.Size)
	}
	back, err := p.Invert(comp)
	if err != nil || !bytes.Equal(back, src) {
		t.Fatal("best pipeline does not roundtrip")
	}
}

// TestSearchDeterminism repeats the search and varies its worker count:
// every run must return the same results in the same order.
func TestSearchDeterminism(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	src := positLike(2048)
	a, err := SearchAll(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 4} {
		b, err := SearchAll(src, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != len(a) {
			t.Fatalf("workers %d: %d results, want %d", workers, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("workers %d: nondeterministic search at %d: %+v vs %+v", workers, i, a[i], b[i])
			}
		}
	}
}

func TestBestGlobal(t *testing.T) {
	inputs := [][]byte{floatField(2048), floatField(1024), positLike(2048)}
	perInput, err := SearchAllMulti(inputs, 0)
	if err != nil {
		t.Fatal(err)
	}
	pipe, results, err := SelectGlobal(perInput)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(inputs) {
		t.Fatalf("results %d", len(results))
	}
	// The global pipeline's geomean must be <= the per-file geomean.
	perFile, err := SelectPerFile(perInput)
	if err != nil {
		t.Fatal(err)
	}
	var gLog, pLog float64
	for i := range inputs {
		gLog += math.Log(results[i].Ratio)
		pLog += math.Log(perFile[i].Ratio)
	}
	if gLog > pLog+1e-9 {
		t.Fatalf("global pipeline %s beat per-file selection: %g > %g", pipe, gLog, pLog)
	}
	perInput, err = SearchAllMulti(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := SelectGlobal(perInput); err == nil {
		t.Fatal("empty input list accepted")
	}
}

func TestRecursiveBitmap(t *testing.T) {
	cases := [][]byte{
		nil,
		{0},
		{1},
		make([]byte, 1000),              // all zero: recursion pays off hugely
		bytes.Repeat([]byte{255}, 1000), // dense
	}
	sparse := make([]byte, 1000)
	sparse[17], sparse[500] = 3, 9
	cases = append(cases, sparse)
	for i, c := range cases {
		enc := encodeBitmapBody(c)
		dec, used, err := decodeBitmapBody(enc, len(c))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if used != len(enc) {
			t.Fatalf("case %d: consumed %d of %d", i, used, len(enc))
		}
		if !bytes.Equal(dec, c) {
			t.Fatalf("case %d: mismatch", i)
		}
	}
	allZero := make([]byte, 100000)
	if got := len(encodeBitmapBody(allZero)); got > 40 {
		t.Fatalf("all-zero bitmap should collapse recursively: %d bytes", got)
	}
	if _, _, err := decodeBitmapBody(nil, 5); err == nil {
		t.Fatal("truncated accepted")
	}
	if _, _, err := decodeBitmapBody([]byte{9}, 5); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// floatField builds a smooth little-endian float32 field.
func floatField(n int) []byte {
	out := make([]byte, 4*n)
	for i := 0; i < n; i++ {
		v := float32(math.Sin(float64(i)/40)*3 + 10)
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return out
}

// positLike builds a stream with long zero-ish prefixes per word,
// resembling posit-encoded smooth data.
func positLike(n int) []byte {
	out := make([]byte, 4*n)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < n; i++ {
		w := uint32(0x40000000) | uint32(rng.Intn(1<<12))
		binary.LittleEndian.PutUint32(out[4*i:], w)
	}
	return out
}

func BenchmarkSearchAll(b *testing.B) {
	src := floatField(1 << 12)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SearchAll(src, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPaperFloatPipeline(b *testing.B) {
	p, err := NewPipeline("DIFFMS", "RARE", "RAZE")
	if err != nil {
		b.Fatal(err)
	}
	src := floatField(1 << 16)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Apply(src); err != nil {
			b.Fatal(err)
		}
	}
}

func TestFaultInjection(t *testing.T) {
	p, err := NewPipeline("DIFFMS", "RARE", "RAZE")
	if err != nil {
		t.Fatal(err)
	}
	codectest.FaultInjection(t, NewCodec(p))
}
