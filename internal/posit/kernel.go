package posit

import (
	"math"
	"math/bits"
)

// Branch-free batch conversion between float32 and posit32 bit patterns.
//
// The generic Decode and Encode paths classify specials, size the regime,
// exponent, and fraction fields, and round with data-dependent branches;
// the hot batch converters pay those mispredictions once per value.
// decode32 and encode32 compute the identical results with arithmetic
// masks instead: a regime run length from one LeadingZeros64, field widths
// from branch-free min, saturation by clamping the scale, and the zero/NaR
// specials folded in with masked selects. Eight independent conversions
// are unrolled per loop iteration so the out-of-order core can overlap
// them.

// kernelOK reports whether the batch kernels cover configuration c: 32-bit
// posits whose scale range stays inside binary64's normal-number exponents
// (|scale| <= 30<<es, which for es <= 5 is at most 960 < 1022). Every such
// posit is exactly one normal binary64 value, so decode32 can assemble the
// float bits directly, and the regime, exponent and float32 fraction fit
// one uint64 for encode32.
func (c Config) kernelOK() bool { return c.N == 32 && c.ES <= 5 }

// kernelNaN must match the bits math.NaN() returns so the kernel path is
// indistinguishable from ToFloat64's NaR handling.
var kernelNaN = math.Float64bits(math.NaN())

// decode32 converts one posit32 bit pattern to the bits of its exact
// float64 value, with no branches. Requires c.kernelOK().
func (c Config) decode32(p uint32) uint64 {
	es := uint64(c.ES)
	sgn := uint64(p) >> 31
	// Two's-complement magnitude: negate exactly when the sign bit is set.
	mag := ((uint64(p) ^ (0 - sgn)) + sgn) & 0xFFFFFFFF
	// Left-align the 31 body bits at bit 63.
	x := (mag & 0x7FFFFFFF) << 33
	first := x >> 63
	// XOR with a splat of the first bit turns "count leading copies of the
	// first bit" into a plain count of leading zeros.
	m := uint64(bits.LeadingZeros64(x ^ (0 - first)))
	// Clamp the run to the 31 body bits (an all-zero body counts 64).
	d := int64(m) - 31
	m -= uint64(d) &^ uint64(d>>63) // m = min(m, 31)
	// Regime value: k = m-1 for a run of ones, -m for a run of zeros.
	k := int64(first)*(2*int64(m)-1) - int64(m)
	// The terminating opposite bit is consumed only when the run stops
	// before the end of the body.
	consumed := m + (uint64((int64(m)-31)>>63) & 1)
	rem := 31 - consumed
	// Exponent width: min(es, rem); truncated low bits read as zero.
	de := int64(es) - int64(rem)
	eb := es - (uint64(de) &^ uint64(de>>63))
	e := ((x << consumed) >> (64 - eb)) << (es - eb) // >>64 == 0 when eb == 0
	scale := k<<es + int64(e)
	fb := rem - eb
	frac := (x << (consumed + eb)) >> (64 - fb) // >>64 == 0 when fb == 0
	// Assemble binary64: the hidden bit contributes the leading 1 of a
	// normal mantissa, so the exponent is exactly scale (always in normal
	// range under kernelOK) and the fraction left-justifies into 52 bits.
	fbits := sgn<<63 | uint64(scale+1023)<<52 | frac<<(52-fb)
	// Masked selects for the two specials. (v | -v) >> 63 is 1 iff v != 0.
	nz := uint64(p)
	fbits &= 0 - ((nz | (0 - nz)) >> 63) // zero pattern -> +0
	dn := uint64(p) ^ 0x80000000
	nar := ((dn|(0-dn))>>63 - 1) // all ones iff p == NaR
	return fbits&^nar | kernelNaN&nar
}

// decode32Batch fills dst with the float32 values of the posit32 patterns
// in src. The eight-wide unroll carries no cross-iteration state, so the
// decodes pipeline freely. Requires c.kernelOK() and len(dst) >= len(src).
func (c Config) decode32Batch(dst []float32, src []uint32) {
	i := 0
	for ; i+8 <= len(src); i += 8 {
		s := src[i : i+8 : i+8]
		d := dst[i : i+8 : i+8]
		d[0] = float32(math.Float64frombits(c.decode32(s[0])))
		d[1] = float32(math.Float64frombits(c.decode32(s[1])))
		d[2] = float32(math.Float64frombits(c.decode32(s[2])))
		d[3] = float32(math.Float64frombits(c.decode32(s[3])))
		d[4] = float32(math.Float64frombits(c.decode32(s[4])))
		d[5] = float32(math.Float64frombits(c.decode32(s[5])))
		d[6] = float32(math.Float64frombits(c.decode32(s[6])))
		d[7] = float32(math.Float64frombits(c.decode32(s[7])))
	}
	for ; i < len(src); i++ {
		dst[i] = float32(math.Float64frombits(c.decode32(src[i])))
	}
}

// encode32 converts the bits of one float32 to the posit32 pattern
// FromFloat32 returns, with no branches. Requires c.kernelOK().
func (c Config) encode32(u uint32) uint32 {
	// The masks on es, sh, m and the shift counts change no value: every
	// count is below 64 under kernelOK. They let the compiler drop the
	// fixups Go adds for counts of 64 or more.
	es := uint64(c.ES) & 7
	maxScale := int64(30) << es
	sgn := uint64(u >> 31)
	exp := uint64(u>>23) & 0xFF
	normal := (exp | (0 - exp)) >> 63 // 0 for zero and subnormals
	sig := uint64(u)&0x7FFFFF | normal<<23
	// Shift a subnormal's top set bit up to the hidden-bit position
	// (sig|1 keeps the count finite for zero, which is masked out below).
	sh := (uint64(bits.LeadingZeros64(sig|1)) - 40) & 63
	scale := int64(exp+1-normal) - 127 - int64(sh)
	frac := sig << sh & 0x7FFFFF
	// Saturate. Above maxpos's scale, the largest in-range scale with an
	// all-ones tail rounds up to maxpos; below minpos's, minpos's scale
	// with a fraction of exactly 1 is minpos.
	over := uint64((maxScale - 1 - scale) >> 63)
	under := uint64((scale + maxScale) >> 63)
	scale = scale&^int64(over|under) | (maxScale-1)&int64(over) | -maxScale&int64(under)
	frac = (frac | over&0x7FFFFF) &^ under
	// Regime: k+1 ones then a zero for k >= 0, -k zeros then a one for
	// k < 0; either way the run is m long and its terminator is bit 63-m
	// of the left-aligned body.
	k := scale >> es
	neg := uint64(k >> 63)
	m := ((uint64(k) ^ neg) + 1) & 63
	regime := ^(^uint64(0)>>m)&^neg | (1<<63>>m)&neg
	// Exponent and fraction (at most 5+23 bits) follow the regime (at most
	// 31): 59 bits, so no bit falls off the word.
	tail := (uint64(scale)&(1<<es-1))<<23 | frac
	x := regime | tail<<((41-es)&63)>>((m+1)&63)
	// Round to nearest even at bit 32: the 31 body bits sit above it.
	pat := x >> 33
	low := x & 0xFFFFFFFF
	pat += x >> 32 & (pat | (low|(0-low))>>63) & 1
	p := ((pat ^ (0 - sgn)) + sgn) & 0xFFFFFFFF
	// Masked selects for the specials: ±0 -> 0, Inf and NaN -> NaR.
	mag := uint64(u) & 0x7FFFFFFF
	p &= 0 - ((mag | (0 - mag)) >> 63)
	dn := exp ^ 0xFF
	nar := (dn|(0-dn))>>63 - 1 // all ones iff exp == 0xFF
	return uint32(p&^nar | 0x80000000&nar)
}

// encode32Batch fills dst with the posit32 patterns of the float32 values
// in src. Requires c.kernelOK() and len(dst) >= len(src).
func (c Config) encode32Batch(dst []uint32, src []float32) {
	i := 0
	for ; i+8 <= len(src); i += 8 {
		s := src[i : i+8 : i+8]
		d := dst[i : i+8 : i+8]
		d[0] = c.encode32(math.Float32bits(s[0]))
		d[1] = c.encode32(math.Float32bits(s[1]))
		d[2] = c.encode32(math.Float32bits(s[2]))
		d[3] = c.encode32(math.Float32bits(s[3]))
		d[4] = c.encode32(math.Float32bits(s[4]))
		d[5] = c.encode32(math.Float32bits(s[5]))
		d[6] = c.encode32(math.Float32bits(s[6]))
		d[7] = c.encode32(math.Float32bits(s[7]))
	}
	for ; i < len(src); i++ {
		dst[i] = c.encode32(math.Float32bits(src[i]))
	}
}
