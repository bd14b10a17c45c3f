package posit

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	for _, c := range []Config{Posit8, Posit16, Posit32, Posit64, Posit32e3} {
		if err := c.Validate(); err != nil {
			t.Errorf("%v: %v", c, err)
		}
	}
	for _, c := range []Config{{2, 2}, {65, 2}, {32, 7}} {
		if err := c.Validate(); err == nil {
			t.Errorf("%v: want error", c)
		}
	}
}

func TestKnownPatternsPosit32(t *testing.T) {
	cases := []struct {
		cfg  Config
		f    float64
		bits uint64
	}{
		{Posit32, 1.0, 0x40000000},
		{Posit32, -1.0, 0xC0000000},
		{Posit32, 2.0, 0x48000000},
		{Posit32, 0.5, 0x38000000},
		{Posit32, 4.0, 0x50000000},
		{Posit32, 16.0, 0x60000000},
		{Posit32, 1.5, 0x44000000},
		{Posit32, 0, 0},
		{Posit32e3, 1.0, 0x40000000},
		{Posit32e3, -1.0, 0xC0000000},
		{Posit32e3, 256.0, 0x60000000}, // scale 8 = useed^1: regime 110, e=000
		{Posit8, 1.0, 0x40},
		{Posit8, -1.0, 0xC0},
		{Posit16, 1.0, 0x4000},
	}
	for _, tc := range cases {
		if got := tc.cfg.FromFloat64(tc.f); got != tc.bits {
			t.Errorf("%v FromFloat64(%g) = %#x, want %#x", tc.cfg, tc.f, got, tc.bits)
		}
		if tc.bits != 0 {
			if got := tc.cfg.ToFloat64(tc.bits); got != tc.f {
				t.Errorf("%v ToFloat64(%#x) = %g, want %g", tc.cfg, tc.bits, got, tc.f)
			}
		}
	}
}

func TestSpecials(t *testing.T) {
	for _, c := range []Config{Posit8, Posit16, Posit32, Posit32e3, Posit64} {
		if !c.IsNaR(c.FromFloat64(math.NaN())) {
			t.Errorf("%v: NaN must convert to NaR", c)
		}
		if !c.IsNaR(c.FromFloat64(math.Inf(1))) {
			t.Errorf("%v: +Inf must convert to NaR", c)
		}
		if !c.IsNaR(c.FromFloat64(math.Inf(-1))) {
			t.Errorf("%v: -Inf must convert to NaR", c)
		}
		if !c.IsZero(c.FromFloat64(0)) || !c.IsZero(c.FromFloat64(math.Copysign(0, -1))) {
			t.Errorf("%v: both IEEE zeros must map to posit zero", c)
		}
		if !math.IsNaN(c.ToFloat64(c.NaR())) {
			t.Errorf("%v: NaR must convert to NaN", c)
		}
		if c.ToFloat64(0) != 0 {
			t.Errorf("%v: zero roundtrip", c)
		}
		if c.Neg(c.NaR()) != c.NaR() {
			t.Errorf("%v: NaR must negate to NaR", c)
		}
	}
}

// Every posit16 pattern must decode and re-encode to itself, and must
// roundtrip exactly through float64 (posits this narrow embed in binary64).
func TestExhaustiveRoundtrip16(t *testing.T) {
	for _, es := range []uint{0, 1, 2, 3} {
		c := Config{16, es}
		for p := uint64(0); p < 1<<16; p++ {
			pt, sp := c.Decode(p)
			if sp != Finite {
				continue
			}
			back := c.Encode(pt)
			if back != p {
				t.Fatalf("%v: decode/encode %#x -> %+v -> %#x", c, p, pt, back)
			}
			f := c.ToFloat64(p)
			back2 := c.FromFloat64(f)
			if back2 != p {
				t.Fatalf("%v: float roundtrip %#x -> %g -> %#x", c, p, f, back2)
			}
		}
	}
}

func TestExhaustiveRoundtrip8AllES(t *testing.T) {
	for _, es := range []uint{0, 1, 2, 3, 4} {
		c := Config{8, es}
		for p := uint64(0); p < 1<<8; p++ {
			f := c.ToFloat64(p)
			if c.IsNaR(p) {
				if !math.IsNaN(f) {
					t.Fatalf("%v: NaR", c)
				}
				continue
			}
			if back := c.FromFloat64(f); back != p {
				t.Fatalf("%v: %#x -> %g -> %#x", c, p, f, back)
			}
		}
	}
}

// Posit patterns are monotonic: larger signed pattern <=> larger value.
func TestMonotonicity(t *testing.T) {
	for _, c := range []Config{{16, 1}, {16, 2}, Posit16, {12, 3}} {
		limit := uint64(1) << c.N
		prev := math.Inf(1) // start just above NaR (most negative pattern)
		first := true
		// Walk patterns in signed order: NaR+1 ... maxpos.
		for i := uint64(1); i < limit; i++ {
			p := (c.NaR() + i) & c.mask()
			v := c.ToFloat64(p)
			if !first && v <= prev {
				t.Fatalf("%v: not monotonic at %#x: %g <= %g", c, p, v, prev)
			}
			prev, first = v, false
		}
	}
}

func TestCompare(t *testing.T) {
	c := Posit16
	vals := []float64{-1000, -2, -1, -0.5, -1e-4, 0, 1e-4, 0.5, 1, 2, 1000}
	for i, a := range vals {
		for j, b := range vals {
			pa, pb := c.FromFloat64(a), c.FromFloat64(b)
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got := c.Compare(pa, pb); got != want {
				t.Errorf("Compare(%g,%g) = %d, want %d", a, b, got, want)
			}
		}
	}
	if c.Compare(c.NaR(), c.FromFloat64(-1e30)) != -1 {
		t.Error("NaR must sort below all reals")
	}
}

// ratOf returns the exact rational value of a finite posit.
func ratOf(c Config, p uint64) *big.Rat {
	pt, sp := c.Decode(p)
	if sp != Finite {
		if sp == IsZero {
			return new(big.Rat)
		}
		panic("ratOf: NaR")
	}
	num, den := new(big.Int).SetUint64(pt.Frac), big.NewInt(1)
	if e := pt.Scale - int(pt.FracBits); e >= 0 {
		num.Lsh(num, uint(e))
	} else {
		den.Lsh(den, uint(-e))
	}
	if pt.Neg {
		num.Neg(num)
	}
	return new(big.Rat).SetFrac(num, den)
}

// nearestPosit finds the correctly rounded posit for an exact rational,
// independently of the implementation under test. Posit rounding (per the
// standard and softposit/cppposit) is round-to-nearest-even in *encoding*
// space: truncate the unbounded encoding at n bits; the rounding boundary
// between consecutive n-bit patterns p and p+1 is the value of the
// (n+1)-bit posit whose pattern is p<<1|1 (the truncation plus a guard 1).
// Ties go to the even pattern; results saturate at maxpos/minpos and a
// nonzero value never rounds to zero.
func nearestPosit(c Config, x *big.Rat) uint64 {
	if x.Sign() == 0 {
		return 0
	}
	neg := x.Sign() < 0
	ax := new(big.Rat).Abs(x)
	finish := func(p uint64) uint64 {
		if neg {
			return c.Neg(p)
		}
		return p
	}
	// Find the floor pattern: largest positive pattern with value <= ax.
	// The implementation's answer is only the starting point of the walk.
	f, _ := ax.Float64()
	p := c.Abs(c.FromFloat64(f))
	if c.IsNaR(p) || c.IsZero(p) {
		p = c.MinPos()
	}
	for p > c.MinPos() && ratOf(c, p).Cmp(ax) > 0 {
		p--
	}
	for p < c.MaxPos() && ratOf(c, p+1).Cmp(ax) <= 0 {
		p++
	}
	if ratOf(c, p).Cmp(ax) == 0 {
		return finish(p)
	}
	if ratOf(c, c.MinPos()).Cmp(ax) > 0 {
		return finish(c.MinPos()) // below minpos: never round to zero
	}
	if p == c.MaxPos() {
		return finish(p) // above maxpos: saturate
	}
	ext := Config{c.N + 1, c.ES}
	boundary := ratOf(ext, p<<1|1)
	switch ax.Cmp(boundary) {
	case -1:
		return finish(p)
	case 1:
		return finish(p + 1)
	default: // tie: even pattern
		if p&1 == 0 {
			return finish(p)
		}
		return finish(p + 1)
	}
}

// Conversion must be correctly rounded under the standard's encoding-space
// round-to-nearest-even rule, verified against the exact-rational oracle
// nearestPosit. In the linear region (results with a nonzero fraction
// field) this coincides with value-space nearest; in the regime-tapered
// region the boundary is geometric. The paper's formats, posit<32,3> and
// posit<32,2>, are checked through FromFloat32 on every float32 binade and
// on exact ties.
func TestConversionNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range []Config{{16, 1}, Posit16, {16, 3}, {8, 2}} {
		for trial := 0; trial < 2000; trial++ {
			f := math.Ldexp(rng.Float64()+1, rng.Intn(80)-40)
			if rng.Intn(2) == 0 {
				f = -f
			}
			p := c.FromFloat64(f)
			if c.IsNaR(p) {
				t.Fatalf("%v: FromFloat64(%g) = NaR", c, f)
			}
			r := new(big.Rat).SetFloat64(f)
			if want := nearestPosit(c, r); p != want {
				t.Fatalf("%v: FromFloat64(%g) = %#x, want %#x", c, f, p, want)
			}
		}
	}
	for _, c := range []Config{Posit32e3, Posit32} {
		t.Run(c.String(), func(t *testing.T) {
			seed := int64(32 + c.ES)
			t.Logf("seed %d", seed)
			rng := rand.New(rand.NewSource(seed))
			checkNearest32(t, c, rng)
			checkTies32(t, c, rng)
		})
	}
}

// checkNearest32 converts a few random float32 mantissas from every binade,
// 2^-149 (the smallest subnormal) to 2^127, in both signs.
func checkNearest32(t *testing.T, c Config, rng *rand.Rand) {
	t.Helper()
	cases, rounded := 0, 0
	for e := -149; e <= 127; e++ {
		for trial := 0; trial < 8; trial++ {
			var bits uint32
			if e < -126 { // subnormal: top mantissa bit at position e+149
				top := uint32(1) << uint(e+149)
				bits = top | rng.Uint32()&(top-1)
			} else {
				bits = uint32(e+127)<<23 | rng.Uint32()&(1<<23-1)
			}
			for _, sign := range []uint32{0, 1 << 31} {
				f := math.Float32frombits(bits | sign)
				p := c.FromFloat32(f)
				r := new(big.Rat).SetFloat64(float64(f))
				if want := nearestPosit(c, r); p != want {
					t.Fatalf("%v: FromFloat32(%g) = %#x, want %#x", c, f, p, want)
				}
				cases++
				if ratOf(c, p).Cmp(r) != 0 {
					rounded++
				}
			}
		}
	}
	t.Logf("%v: %d float32 values, %d rounded, all nearest", c, cases, rounded)
}

// checkTies32 converts values that lie exactly halfway between two
// consecutive patterns p and p+1: the (n+1)-bit posit p<<1|1, wherever
// float32 represents it. In the long-regime region few fraction bits
// remain, so such boundaries are float32 values. Each must round to the
// even pattern, in both signs.
func checkTies32(t *testing.T, c Config, rng *rand.Rand) {
	t.Helper()
	ext := Config{c.N + 1, c.ES}
	ties := 0
	for trial := 0; trial < 4000; trial++ {
		// A positive pattern whose regime is a run of m equal bits.
		m := uint(rng.Intn(int(c.N)-2)) + 1
		rest := c.N - 2 - m
		var p uint64
		if rng.Intn(2) == 0 {
			p = (uint64(1)<<m - 1) << (rest + 1) // m ones, then a zero
		} else {
			p = uint64(1) << rest // m zeros, then a one
		}
		p |= rng.Uint64() & (uint64(1)<<rest - 1)
		if p >= c.MaxPos() {
			continue
		}
		b := ratOf(ext, p<<1|1)
		f64, exact := b.Float64()
		f := float32(f64)
		if !exact || float64(f) != f64 {
			continue
		}
		even := p + p&1
		if got := c.FromFloat32(f); got != even {
			t.Fatalf("%v: tie FromFloat32(%g) between %#x and %#x = %#x, want %#x", c, f, p, p+1, got, even)
		}
		if got := c.FromFloat32(-f); got != c.Neg(even) {
			t.Fatalf("%v: tie FromFloat32(%g) = %#x, want %#x", c, -f, got, c.Neg(even))
		}
		if want := nearestPosit(c, b); want != even {
			t.Fatalf("%v: oracle rounds tie %v to %#x, want %#x", c, b, want, even)
		}
		ties++
	}
	if ties < 500 {
		t.Fatalf("%v: only %d float32-representable ties", c, ties)
	}
	t.Logf("%v: %d exact ties, all to the even pattern", c, ties)
}

func TestSaturation(t *testing.T) {
	c := Posit32e3
	big := math.Ldexp(1, 300) // beyond maxpos scale 240
	if got := c.FromFloat64(big); got != c.MaxPos() {
		t.Errorf("overflow: got %#x want maxpos %#x", got, c.MaxPos())
	}
	if got := c.FromFloat64(-big); got != c.Neg(c.MaxPos()) {
		t.Errorf("negative overflow: got %#x", got)
	}
	tiny := math.Ldexp(1, -300)
	if got := c.FromFloat64(tiny); got != c.MinPos() {
		t.Errorf("underflow: got %#x want minpos", got)
	}
	if got := c.FromFloat64(-tiny); got != c.Neg(c.MinPos()) {
		t.Errorf("negative underflow: got %#x", got)
	}
	// Values just above half of minpos must still round to minpos (never 0).
	halfish := c.ToFloat64(c.MinPos()) * 0.001
	if got := c.FromFloat64(halfish); got != c.MinPos() {
		t.Errorf("tiny nonzero rounded to %#x, want minpos", got)
	}
}

// Paper section 4.2: posit<32,3> has enough dynamic range for all normal
// binary32 values; values near 1.0 roundtrip exactly because short regimes
// leave >= 23 fraction bits.
func TestFloat32NearOneExact(t *testing.T) {
	c := Posit32e3
	rng := rand.New(rand.NewSource(11))
	for exp := -16; exp <= 16; exp++ {
		for trial := 0; trial < 50; trial++ {
			bits := uint32(exp+127)<<23 | uint32(rng.Intn(1<<23))
			f := math.Float32frombits(bits)
			back := c.ToFloat32(uint64(c.FromFloat32(f)))
			if back != f {
				t.Fatalf("exp=%d: %g -> %g (bits %#x -> %#x)", exp, f, back,
					math.Float32bits(f), math.Float32bits(back))
			}
		}
	}
}

// Far-from-1.0 float32 values must lose fraction bits under posit<32,3> but
// never by more than the regime growth predicts.
func TestFloat32FarLoss(t *testing.T) {
	c := Posit32e3
	f := math.Float32frombits(uint32(120+127)<<23 | 0x5ABCDE) // scale 120
	back := c.ToFloat32(uint64(c.FromFloat32(f)))
	if back == f {
		t.Fatal("expected precision loss at scale 120")
	}
	rel := math.Abs(float64(back-f) / float64(f))
	if rel > 1e-2 {
		t.Fatalf("loss too large: rel=%g", rel)
	}
}

func TestDecodeEncodeQuick(t *testing.T) {
	for _, c := range []Config{Posit32, Posit32e3, {24, 1}, {64, 2}} {
		f := func(p uint64) bool {
			p &= c.mask()
			pt, sp := c.Decode(p)
			if sp != Finite {
				return true
			}
			return c.Encode(pt) == p
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
			t.Errorf("%v: %v", c, err)
		}
	}
}

func TestPosit32Float64Roundtrip(t *testing.T) {
	// Every posit<32,es<=3> value embeds exactly in binary64.
	for _, c := range []Config{Posit32, Posit32e3} {
		rng := rand.New(rand.NewSource(13))
		for trial := 0; trial < 50000; trial++ {
			p := uint64(rng.Uint32())
			if c.IsNaR(p) {
				continue
			}
			if back := c.FromFloat64(c.ToFloat64(p)); back != p {
				t.Fatalf("%v: %#x -> %g -> %#x", c, p, c.ToFloat64(p), back)
			}
		}
	}
}

func TestAbs(t *testing.T) {
	c := Posit16
	p := c.FromFloat64(-3.5)
	if c.ToFloat64(c.Abs(p)) != 3.5 {
		t.Fatal("Abs(-3.5)")
	}
	if c.Abs(c.NaR()) != c.NaR() {
		t.Fatal("Abs(NaR)")
	}
	if c.Abs(0) != 0 {
		t.Fatal("Abs(0)")
	}
}

func TestMaxScaleAndBounds(t *testing.T) {
	c := Posit32e3
	if c.MaxScale() != 240 {
		t.Fatalf("MaxScale = %d, want 240", c.MaxScale())
	}
	if got := c.ToFloat64(c.MaxPos()); got != math.Ldexp(1, 240) {
		t.Fatalf("maxpos = %g", got)
	}
	if got := c.ToFloat64(c.MinPos()); got != math.Ldexp(1, -240) {
		t.Fatalf("minpos = %g", got)
	}
	c2 := Posit32
	if c2.MaxScale() != 120 {
		t.Fatalf("es=2 MaxScale = %d, want 120", c2.MaxScale())
	}
}

// Negation is an exact involution.
func TestNegationAlgebra(t *testing.T) {
	c := Posit32e3
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 10000; trial++ {
		a := uint64(rng.Uint32())
		if c.IsNaR(a) {
			continue
		}
		if c.Neg(c.Neg(a)) != a&c.mask() {
			t.Fatalf("neg not involutive for %#x", a)
		}
	}
}
