package posit

import (
	"math"
	"testing"
)

// kernelConfigs spans every es the kernel covers.
func kernelConfigs() []Config {
	cs := make([]Config, 0, 6)
	for es := uint(0); es <= 5; es++ {
		cs = append(cs, Config{32, es})
	}
	return cs
}

// checkKernelValue asserts that both kernels agree bit-for-bit with the
// generic paths on the 32 bits p under c: decode32 with ToFloat64 on p as
// a posit pattern, and encode32 with FromFloat32 on p as float32 bits.
func checkKernelValue(t *testing.T, c Config, p uint32) {
	t.Helper()
	got := c.decode32(p)
	want := math.Float64bits(c.ToFloat64(uint64(p)))
	if got != want {
		t.Fatalf("%v decode32(%#08x) = %#016x, generic %#016x", c, p, got, want)
	}
	checkEncodeValue(t, c, math.Float32frombits(p))
}

// checkEncodeValue asserts encode32 agrees with FromFloat32 on f under c.
func checkEncodeValue(t *testing.T, c Config, f float32) {
	t.Helper()
	u := math.Float32bits(f)
	if got, want := c.encode32(u), uint32(c.FromFloat32(f)); got != want {
		t.Fatalf("%v encode32(%g = %#08x) = %#08x, generic %#08x", c, f, u, got, want)
	}
}

func TestKernelGate(t *testing.T) {
	for _, c := range kernelConfigs() {
		if !c.kernelOK() {
			t.Errorf("%v: kernelOK = false, want true", c)
		}
	}
	for _, c := range []Config{{32, 6}, {16, 2}, {64, 2}, {8, 0}} {
		if c.kernelOK() {
			t.Errorf("%v: kernelOK = true, want false", c)
		}
	}
}

// TestKernelEdgePatterns covers the specials, the saturation boundaries,
// and every regime run length with minimal and maximal trailing fields.
func TestKernelEdgePatterns(t *testing.T) {
	var pats []uint32
	fixed := []uint32{
		0, 1, 2, 3,
		0x80000000,             // NaR
		0x80000001, 0x7FFFFFFF, // MaxPos and its negation
		0x7FFFFFFE, 0x80000002,
		0x40000000, 0xC0000000, // +-1
		0x40000001, 0xBFFFFFFF,
		0xFFFFFFFF, // -MinPos
		0x55555555, 0xAAAAAAAA,
	}
	pats = append(pats, fixed...)
	for b := 0; b < 32; b++ {
		pats = append(pats, 1<<b, ^uint32(1<<b))
	}
	// Every regime run length, run of ones and of zeros, with the tail all
	// zeros and all ones, both signs.
	for run := 1; run <= 31; run++ {
		ones := (uint32(1)<<run - 1) << (31 - run) // run ones at the top of the body
		bodies := []uint32{ones}
		if run < 31 {
			bodies = append(bodies, ones|(uint32(1)<<(30-run)-1)) // tail all ones
			zeros := uint32(1) << (30 - run)                      // run zeros then a one
			bodies = append(bodies, zeros, zeros|(zeros-1))
		}
		for _, body := range bodies {
			body &= 0x7FFFFFFF
			pats = append(pats, body, -body&0xFFFFFFFF|0x80000000)
		}
	}
	for _, c := range kernelConfigs() {
		ext := Config{33, c.ES}
		for _, p := range pats {
			checkKernelValue(t, c, p)
			// The float32 nearest each pattern's value and the midpoint to
			// the next pattern, and their neighbours: ties, saturation
			// and the regime edges in the encode direction.
			if c.IsNaR(uint64(p)) || c.Abs(uint64(p)) == c.MaxPos() {
				continue
			}
			for _, v := range []float64{c.ToFloat64(uint64(p)), ext.ToFloat64(uint64(p)<<1 | 1)} {
				f := float32(v)
				checkEncodeValue(t, c, f)
				checkEncodeValue(t, c, math.Nextafter32(f, float32(math.Inf(1))))
				checkEncodeValue(t, c, math.Nextafter32(f, float32(math.Inf(-1))))
			}
		}
	}
}

// TestKernelStratified sweeps all 16-bit patterns through the high, middle,
// and low halves of the word, plus a pseudo-random fill, for every es.
func TestKernelStratified(t *testing.T) {
	for _, c := range kernelConfigs() {
		for v := uint32(0); ; v++ {
			checkKernelValue(t, c, v<<16)
			checkKernelValue(t, c, v<<8)
			checkKernelValue(t, c, v)
			checkKernelValue(t, c, v<<16|^v&0xFFFF)
			if v == 0xFFFF {
				break
			}
		}
		// splitmix64-style fill for unstructured coverage.
		s := uint64(0x9E3779B97F4A7C15) * uint64(c.ES+1)
		for i := 0; i < 1<<18; i++ {
			s += 0x9E3779B97F4A7C15
			z := s
			z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
			z = (z ^ z>>27) * 0x94D049BB133111EB
			checkKernelValue(t, c, uint32(z^z>>31))
		}
	}
}

// TestKernelBatchMatchesScalar pins the three batch entry points: the
// unrolled batches (including their tails) and the worker split must
// reproduce the per-value conversions, and non-kernel configs must keep
// the generic path.
func TestKernelBatchMatchesScalar(t *testing.T) {
	src := make([]uint32, 1003) // not a multiple of 8: exercises the tail
	s := uint64(12345)
	for i := range src {
		s = s*6364136223846793005 + 1442695040888963407
		src[i] = uint32(s >> 32)
	}
	src[0], src[1], src[2] = 0, 0x80000000, 0x7FFFFFFF
	floats := make([]float32, len(src)) // the same bits as float32 values
	for i, u := range src {
		floats[i] = math.Float32frombits(u)
	}
	for _, c := range []Config{Posit32, Posit32e3, {32, 0}, {32, 6}, {16, 2}} {
		var wantStats ConvertStats
		for _, f := range floats {
			wantStats.add(f, c.ToFloat32(c.FromFloat32(f)))
		}
		for _, workers := range []int{1, 3} {
			if c.N == 32 { // the patterns are out of range for narrow configs
				got := c.ToFloat32SliceWorkers(nil, src, workers)
				for i, p := range src {
					want := c.ToFloat32(uint64(p))
					if math.Float32bits(got[i]) != math.Float32bits(want) {
						t.Fatalf("%v workers=%d: slice[%d] = %x, want %x (pattern %#08x)",
							c, workers, i, math.Float32bits(got[i]), math.Float32bits(want), p)
					}
				}
			}
			words := c.FromFloat32SliceWorkers(nil, floats, workers)
			for i, f := range floats {
				if want := uint32(c.FromFloat32(f)); words[i] != want {
					t.Fatalf("%v workers=%d: words[%d] = %#x, want %#x (float32 %#08x)",
						c, workers, i, words[i], want, src[i])
				}
			}
			if got := c.RoundtripStatsWorkers(floats, workers); got != wantStats {
				t.Fatalf("%v workers=%d: stats %+v, want %+v", c, workers, got, wantStats)
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
