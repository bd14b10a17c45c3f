package posit

import (
	"math"
	"math/rand"
	"testing"
)

// Property-based round-trip tests over the full configuration grid
// n x es = {8,16,32} x {0,1,2,3}. Every posit of width <= 32 is exactly
// representable in float64, so posit -> float64 -> posit must be the
// identity on every bit pattern; float32 boundary values must convert
// with the documented special-value and saturation rules.

// gridConfigs enumerates the tested grid.
func gridConfigs() []Config {
	var cs []Config
	for _, n := range []uint{8, 16, 32} {
		for es := uint(0); es <= 3; es++ {
			cs = append(cs, Config{N: n, ES: es})
		}
	}
	return cs
}

// ldexpRand returns a random value with magnitude in [2^lo, 2^hi) and
// random sign.
func ldexpRand(rng *rand.Rand, lo, hi int) float64 {
	v := (1 + rng.Float64()) * float64(int64(1)<<uint(rng.Intn(hi-lo)))
	v /= float64(int64(1) << uint(-lo))
	if rng.Intn(2) == 0 {
		v = -v
	}
	return v
}

// checkPatternRoundtrip asserts the two identities on one bit pattern:
// Encode(Decode(p)) == p and FromFloat64(ToFloat64(p)) == p.
func checkPatternRoundtrip(t *testing.T, c Config, p uint64) {
	t.Helper()
	if pt, sp := c.Decode(p); sp == Finite {
		if got := c.Encode(pt); got != p {
			t.Fatalf("%v: Encode(Decode(%#x)) = %#x", c, p, got)
		}
	}
	f := c.ToFloat64(p)
	if got := c.FromFloat64(f); got != p {
		t.Fatalf("%v: FromFloat64(ToFloat64(%#x)) = %#x (value %g)", c, p, got, f)
	}
}

// Every posit8 and posit16 bit pattern round-trips exactly, for every es in
// the grid (2^8 and 2^16 exhaustive sweeps).
func TestGridExhaustiveRoundtrip(t *testing.T) {
	for _, c := range gridConfigs() {
		if c.N > 16 {
			continue
		}
		c := c
		t.Run(c.String(), func(t *testing.T) {
			for p := uint64(0); p < 1<<c.N; p++ {
				checkPatternRoundtrip(t, c, p)
			}
		})
	}
}

// posit32 is sampled: every boundary pattern, a dense stride, and a seeded
// random set (an exhaustive 2^32 sweep per es would take hours).
func TestGridSampledRoundtrip32(t *testing.T) {
	for es := uint(0); es <= 3; es++ {
		c := Config{N: 32, ES: es}
		t.Run(c.String(), func(t *testing.T) {
			boundaries := []uint64{
				0, c.NaR(), c.MinPos(), c.MaxPos(),
				c.Neg(c.MinPos()), c.Neg(c.MaxPos()),
				1, 2, 3, c.NaR() - 1, c.NaR() + 1, c.mask(),
				0x40000000, 0x3FFFFFFF, 0x40000001, // around 1.0
			}
			for _, p := range boundaries {
				checkPatternRoundtrip(t, c, p&c.mask())
			}
			for p := uint64(0); p < 1<<32; p += 65521 { // prime stride
				checkPatternRoundtrip(t, c, p)
			}
			rng := rand.New(rand.NewSource(int64(es) + 100))
			for i := 0; i < 50000; i++ {
				checkPatternRoundtrip(t, c, uint64(rng.Uint32()))
			}
		})
	}
}

// boundaryFloat32s are the IEEE-754 edge cases the conversion rules call
// out: zeros, subnormals, normal extremes, infinities, NaN, and powers of
// two spanning the full exponent range.
func boundaryFloat32s() []float32 {
	vals := []float32{
		0, float32(math.Copysign(0, -1)),
		math.Float32frombits(0x00000001), // smallest subnormal
		math.Float32frombits(0x007FFFFF), // largest subnormal
		math.Float32frombits(0x00800000), // smallest normal
		math.MaxFloat32,
		float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.NaN()),
		1, -1, 1.5, -1.5,
	}
	for k := -149; k <= 127; k += 7 {
		pw := float32(math.Ldexp(1, k))
		vals = append(vals, pw, -pw)
	}
	return vals
}

func TestGridBoundaryFloat32(t *testing.T) {
	for _, c := range gridConfigs() {
		c := c
		t.Run(c.String(), func(t *testing.T) {
			for _, f := range boundaryFloat32s() {
				p := c.FromFloat32(f)
				switch {
				case math.IsNaN(float64(f)) || math.IsInf(float64(f), 0):
					if !c.IsNaR(p) {
						t.Fatalf("%v: %g -> %#x, want NaR", c, f, p)
					}
				case f == 0:
					if !c.IsZero(p) {
						t.Fatalf("%v: %g -> %#x, want zero", c, f, p)
					}
				default:
					// A nonzero finite value never rounds to zero or NaR.
					if c.IsZero(p) || c.IsNaR(p) {
						t.Fatalf("%v: finite %g collapsed to %#x", c, f, p)
					}
					// Sign is preserved exactly.
					back := c.ToFloat64(p)
					if (f < 0) != (back < 0) {
						t.Fatalf("%v: %g -> %#x -> %g sign flip", c, f, p, back)
					}
					// Out-of-range magnitudes saturate at maxpos/minpos.
					if s := math.Abs(float64(f)); s >= math.Ldexp(1, c.MaxScale()) {
						if c.Abs(p) != c.MaxPos() {
							t.Fatalf("%v: %g should saturate to maxpos, got %#x", c, f, p)
						}
					} else if s <= math.Ldexp(1, -c.MaxScale()) {
						if c.Abs(p) != c.MinPos() {
							t.Fatalf("%v: %g should saturate to minpos, got %#x", c, f, p)
						}
					}
					// A representable power of two converts exactly: the
					// regime and exponent fields alone must fit n-1 bits.
					if frac, exp := math.Frexp(math.Abs(float64(f))); frac == 0.5 {
						scale := exp - 1
						k := floorDiv(scale, 1<<c.ES)
						var regimeLen uint
						if k >= 0 {
							regimeLen = uint(k) + 2
						} else {
							regimeLen = uint(-k) + 1
						}
						if int(scale) <= c.MaxScale() && scale >= -c.MaxScale() &&
							regimeLen+c.ES <= c.N-1 {
							if back != float64(f) {
								t.Fatalf("%v: representable power of two %g -> %#x -> %g", c, f, p, back)
							}
						}
					}
				}
			}
		})
	}
}

// FromFloat64 is monotonic: ordering of finite float inputs is preserved
// by the posit ordering (Compare) for every grid configuration.
func TestGridConversionMonotonic(t *testing.T) {
	for _, c := range gridConfigs() {
		c := c
		t.Run(c.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(c.N)<<8 | int64(c.ES)))
			for trial := 0; trial < 20000; trial++ {
				a := ldexpRand(rng, -40, 40)
				b := ldexpRand(rng, -40, 40)
				if a > b {
					a, b = b, a
				}
				pa, pb := c.FromFloat64(a), c.FromFloat64(b)
				if c.Compare(pa, pb) > 0 {
					t.Fatalf("%v: monotonicity broken: %g -> %#x above %g -> %#x", c, a, pa, b, pb)
				}
			}
		})
	}
}

// Hand-derived anchors, independent of the implementation: 1.0 is always
// 0b0100...0; 2.0, 0.5, and useed=2^(2^es) have closed-form patterns.
func TestGridKnownVectors(t *testing.T) {
	for _, c := range gridConfigs() {
		one := uint64(1) << (c.N - 2) // 0b0100...0
		if got := c.FromFloat64(1); got != one {
			t.Errorf("%v: 1.0 -> %#x, want %#x", c, got, one)
		}
		if got := c.ToFloat64(one); got != 1 {
			t.Errorf("%v: %#x -> %g, want 1", c, one, got)
		}
		// 2.0: scale 1 = k*2^es + e with k=0 for es>0 (e=1), k=1 for es=0.
		var two uint64
		if c.ES == 0 {
			two = uint64(0b11) << (c.N - 3) // regime "110"
		} else {
			// Regime "10", exponent field 0..01 with its LSB at bit
			// n-3-es, fraction zeros.
			two = one | uint64(1)<<(c.N-3-c.ES)
		}
		if got := c.FromFloat64(2); got != two {
			t.Errorf("%v: 2.0 -> %#x, want %#x", c, got, two)
		}
		// useed = 2^(2^es): k=1, e=0 -> regime "110" then zeros.
		useed := uint64(0b11) << (c.N - 3)
		if got := c.FromFloat64(math.Ldexp(1, 1<<c.ES)); got != useed {
			t.Errorf("%v: useed -> %#x, want %#x", c, got, useed)
		}
		// Negation symmetry on an irrational sample.
		p, n := c.FromFloat64(math.Pi), c.FromFloat64(-math.Pi)
		if c.Neg(p) != n {
			t.Errorf("%v: FromFloat64(-pi) != Neg(FromFloat64(pi))", c)
		}
	}
}

// The batch converters must agree with the scalar path element-for-element
// (they share the kernel but run it across a worker pool).
func TestGridBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	src := make([]float32, 10000)
	for i := range src {
		src[i] = float32(ldexpRand(rng, -30, 30))
	}
	src[0], src[1], src[2] = 0, float32(math.Inf(1)), float32(math.NaN())
	for _, es := range []uint{0, 1, 2, 3} {
		c := Config{N: 32, ES: es}
		words := c.FromFloat32Slice(nil, src)
		for i, f := range src {
			if want := uint32(c.FromFloat32(f)); words[i] != want {
				t.Fatalf("%v: batch[%d] = %#x, scalar %#x", c, i, words[i], want)
			}
		}
		floats := c.ToFloat32Slice(nil, words)
		for i, w := range words {
			want := c.ToFloat32(uint64(w))
			if math.Float32bits(floats[i]) != math.Float32bits(want) &&
				!(math.IsNaN(float64(floats[i])) && math.IsNaN(float64(want))) {
				t.Fatalf("%v: batch back[%d] = %g, scalar %g", c, i, floats[i], want)
			}
		}
	}
}
