package positpack

import (
	"bytes"
	"testing"

	"positbench/internal/compress"
	"positbench/internal/compress/codectest"
	"positbench/internal/compress/gzipc"
	"positbench/internal/compress/lz4c"
	"positbench/internal/posit"
	"positbench/internal/predict"
	"positbench/internal/sdrbench"
)

func TestV2Conformance(t *testing.T) { codectest.Run(t, predict.NewPosit()) }

// positStream converts sdrbench input i to a posit<32,3> word byte stream.
func positStream(t testing.TB, i, n int) []byte {
	t.Helper()
	vals := sdrbench.Inputs()[i].Generate(n)
	return posit.EncodeWordsLE(posit.Posit32e3.FromFloat32Slice(nil, vals))
}

// v2 must compress posit-encoded sdrbench fields and roundtrip exactly.
func TestV2CompressesPositData(t *testing.T) {
	c := predict.NewPosit()
	for _, i := range []int{0, 2, 6, 10} {
		data := positStream(t, i, 32<<10)
		comp, err := c.Compress(data)
		if err != nil {
			t.Fatal(err)
		}
		r := compress.Ratio(len(data), len(comp))
		t.Logf("input %d: fpc-posit ratio %.3f", i, r)
		if r < 1.1 {
			t.Errorf("input %d: ratio %.3f, want >= 1.1 on posit words", i, r)
		}
		back, err := c.Decompress(comp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, data) {
			t.Errorf("input %d: roundtrip mismatch", i)
		}
	}
}

// Unlike v1, v2 has no alignment precondition: arbitrary byte lengths
// roundtrip, which is what qualifies it for the registry.
func TestV2ArbitraryLengths(t *testing.T) {
	c := predict.NewPosit()
	base := positStream(t, 1, 1024)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 4093, 4096} {
		data := base[:n]
		comp, err := c.Compress(data)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		back, err := c.Decompress(comp)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(back, data) {
			t.Errorf("n=%d: roundtrip mismatch", n)
		}
	}
}

// v2's position in the family: it must beat the general-purpose byte-LZ
// registry codecs on posit streams they cannot model, and on this MD field
// the value predictor also edges out v1's field split (v1 keeps the ratio
// crown on the smoothest CESM fields, where its regime Huffman shines; v2
// is the 2-3x faster, registry-shaped member either way). All inputs are
// deterministic, so these orderings are stable pins, not benchmarks.
func TestV2RatioAgainstFamilyAndRegistry(t *testing.T) {
	data := positStream(t, 2, 64<<10) // EXAALT dataset1.y: smooth MD field
	v2 := predict.NewPosit()
	c2, err := v2.Compress(data)
	if err != nil {
		t.Fatal(err)
	}
	r2 := compress.Ratio(len(data), len(c2))

	cl, err := lz4c.New().Compress(data)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := gzipc.New().Compress(data)
	if err != nil {
		t.Fatal(err)
	}
	rl := compress.Ratio(len(data), len(cl))
	rg := compress.Ratio(len(data), len(cg))

	v1 := mustNew(t, posit.Posit32e3)
	c1, err := v1.Compress(data)
	if err != nil {
		t.Fatal(err)
	}
	r1 := compress.Ratio(len(data), len(c1))

	t.Logf("EXAALT posit words: v2 %.3f vs lz4 %.3f, gzip %.3f, v1 %.3f", r2, rl, rg, r1)
	if r2 <= rl {
		t.Errorf("v2 ratio %.3f does not beat lz4 %.3f on posit words", r2, rl)
	}
	if r2 <= rg {
		t.Errorf("v2 ratio %.3f does not beat gzip %.3f on posit words", r2, rg)
	}
	if r2 <= r1 {
		t.Errorf("v2 ratio %.3f no longer beats v1 %.3f on the MD field", r2, r1)
	}
}

// The registry wraps v2 in the container frame; sanity-check the framed
// stream identifies itself and enforces limits end to end.
func TestV2InfoAndLight(t *testing.T) {
	c := predict.NewPosit()
	if c.Name() != "fpc-posit" {
		t.Fatalf("name %q", c.Name())
	}
	info := c.Info()
	if info.Name != "fpc-posit" || info.Version == "" || info.Source == "" {
		t.Fatalf("incomplete info: %+v", info)
	}
	if !compress.DecodeIsLight(c) {
		t.Fatal("fpc-posit must advertise a light decode path")
	}
}

func FuzzV2Roundtrip(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{1, 2, 3})
	codectest.FuzzRoundtrip(f, predict.NewPosit())
}

func FuzzV2Decompress(f *testing.F) {
	codectest.FuzzDecompress(f, predict.NewPosit())
}
