// Package posit implements the posit number format (Posit Standard 2022,
// generalized to parametric es) for widths up to 32 bits.
//
// A posit<n,es> has four fields: a sign bit, a variable-length regime (a run
// of identical bits terminated by the opposite bit), up to es exponent bits,
// and the remaining bits of fraction with an implicit leading 1. Negative
// values are stored in two's complement. There are exactly two special
// values: zero (all bits clear) and NaR (sign bit set, all others clear).
//
// The package provides exact IEEE-754 <-> posit conversion with
// round-to-nearest-even (ties to even bit pattern, saturating at
// maxpos/minpos, never rounding a nonzero value to zero or to NaR),
// field-level decode/encode, and batch conversion helpers used by the
// compressibility study.
package posit

import (
	"fmt"
	"math"
	"math/bits"
)

// Config identifies a posit format: N total bits, ES maximum exponent bits.
// The paper's subject format is Config{32, 3}; the 2022 standard fixes ES=2.
type Config struct {
	N  uint // total bits, 3..32
	ES uint // maximum exponent field width, 0..6
}

// Standard configurations.
var (
	Posit8    = Config{8, 2}
	Posit16   = Config{16, 2}
	Posit32   = Config{32, 2}
	Posit32e3 = Config{32, 3} // the configuration studied in the paper
)

// Validate reports whether the configuration is supported.
func (c Config) Validate() error {
	if c.N < 3 || c.N > 32 {
		return fmt.Errorf("posit: n=%d out of range [3,32]", c.N)
	}
	if c.ES > 6 {
		return fmt.Errorf("posit: es=%d out of range [0,6]", c.ES)
	}
	return nil
}

// String returns "posit<n,es>".
func (c Config) String() string { return fmt.Sprintf("posit<%d,%d>", c.N, c.ES) }

// mask returns the n-bit mask for this config.
func (c Config) mask() uint64 { return (uint64(1) << c.N) - 1 }

// NaR returns the Not-a-Real bit pattern (sign bit set, all others clear).
func (c Config) NaR() uint64 { return uint64(1) << (c.N - 1) }

// MaxPos returns the largest-magnitude positive posit (0 followed by ones).
func (c Config) MaxPos() uint64 { return c.NaR() - 1 }

// MinPos returns the smallest positive posit.
func (c Config) MinPos() uint64 { return 1 }

// MaxScale returns the exponent of MaxPos: (n-2)*2^es.
func (c Config) MaxScale() int { return int(c.N-2) << c.ES }

// IsNaR reports whether bits is the NaR pattern.
func (c Config) IsNaR(p uint64) bool { return p&c.mask() == c.NaR() }

// IsZero reports whether bits is the zero pattern.
func (c Config) IsZero(p uint64) bool { return p&c.mask() == 0 }

// Neg returns the posit negation (two's complement). NaR negates to NaR.
func (c Config) Neg(p uint64) uint64 { return (-p) & c.mask() }

// Abs returns the magnitude of p. NaR maps to NaR.
func (c Config) Abs(p uint64) uint64 {
	if c.IsNaR(p) {
		return p
	}
	if p>>(c.N-1)&1 == 1 {
		return c.Neg(p)
	}
	return p & c.mask()
}

// Compare orders posits: -1, 0, +1. NaR sorts below every real value
// (it occupies the most negative two's-complement pattern), which matches
// the standard's total order on bit patterns.
func (c Config) Compare(a, b uint64) int {
	sa := signExtend(a&c.mask(), c.N)
	sb := signExtend(b&c.mask(), c.N)
	switch {
	case sa < sb:
		return -1
	case sa > sb:
		return 1
	default:
		return 0
	}
}

func signExtend(v uint64, n uint) int64 {
	shift := 64 - n
	return int64(v<<shift) >> shift
}

// Parts is the field-level decomposition of a finite nonzero posit.
// The represented magnitude is Frac * 2^(Scale-FracBits) where Frac has its
// hidden (implicit) leading 1 at bit position FracBits, i.e.
// 2^FracBits <= Frac < 2^(FracBits+1).
type Parts struct {
	Neg      bool   // sign of the value
	Scale    int    // k*2^es + e (regime and exponent combined)
	Frac     uint64 // fraction including hidden bit
	FracBits uint   // number of explicit fraction bits in Frac
}

// Special classifies the two non-real posit patterns.
type Special int

// Special values returned by Decode.
const (
	Finite Special = iota // ordinary nonzero real value
	IsZero                // the zero pattern
	IsNaR                 // the Not-a-Real pattern
)

// Decode decomposes a posit bit pattern into sign/scale/fraction fields.
func (c Config) Decode(p uint64) (Parts, Special) {
	p &= c.mask()
	if p == 0 {
		return Parts{}, IsZero
	}
	if p == c.NaR() {
		return Parts{}, IsNaR
	}
	neg := p>>(c.N-1)&1 == 1
	if neg {
		p = c.Neg(p)
	}
	// Left-align the n-1 body bits (everything after the sign) at bit 63.
	body := p & (c.mask() >> 1)
	x := body << (64 - c.N + 1)
	nb := c.N - 1 // number of body bits

	var m uint // regime run length
	first := x >> 63
	if first == 1 {
		m = uint(bits.LeadingZeros64(^x))
	} else {
		m = uint(bits.LeadingZeros64(x))
	}
	if m > nb {
		m = nb
	}
	var k int
	if first == 1 {
		k = int(m) - 1
	} else {
		k = -int(m)
	}
	consumed := m
	if m < nb {
		consumed++ // the terminating opposite bit
	}
	rem := nb - consumed
	// Exponent: the stored bits are the most significant exponent bits;
	// truncated low bits are zero.
	eBits := c.ES
	if rem < eBits {
		eBits = rem
	}
	var e uint64
	if eBits > 0 {
		e = (x << consumed) >> (64 - eBits)
	}
	e <<= c.ES - eBits
	fb := rem - eBits
	var frac uint64
	if fb > 0 {
		frac = (x << (consumed + eBits)) >> (64 - fb)
	}
	frac |= 1 << fb
	return Parts{
		Neg:      neg,
		Scale:    k<<c.ES + int(e),
		Frac:     frac,
		FracBits: fb,
	}, Finite
}

// Encode rounds a sign/scale/fraction triple to the nearest posit
// (round-to-nearest, ties to even bit pattern, saturating). It works in one
// uint64, which needs c.N <= 32 (Validate's cap): the regime then takes at
// most 31 bits and the exponent at most 6, so only fraction bits can fall
// below bit 0.
func (c Config) Encode(pt Parts) uint64 {
	if pt.Frac == 0 {
		return 0
	}
	n, es := c.N, c.ES
	maxScale := c.MaxScale()
	if pt.Scale >= maxScale {
		return c.signed(c.MaxPos(), pt.Neg)
	}
	if pt.Scale < -maxScale {
		return c.signed(c.MinPos(), pt.Neg)
	}
	k := floorDiv(pt.Scale, 1<<es)
	e := uint64(pt.Scale - k<<es)

	// Regime bit string as an integer plus its length.
	var regime uint64
	var regimeLen uint
	if k >= 0 {
		regimeLen = uint(k) + 2
		regime = ((1 << (uint(k) + 1)) - 1) << 1 // k+1 ones then a zero
	} else {
		regimeLen = uint(-k) + 1
		regime = 1 // -k zeros then a one
	}

	// Assemble the unbounded magnitude pattern (after the sign bit),
	// regime | exponent | fraction, in one word. Fraction bits that would
	// fall below bit 0 fold into sticky, far below the rounding position.
	fb := pt.FracBits
	frac := pt.Frac & ((uint64(1) << fb) - 1) // strip hidden bit
	var sticky bool
	if over := int(regimeLen+es+fb) - 64; over > 0 {
		sticky = frac&((1<<uint(over))-1) != 0
		frac >>= uint(over)
		fb -= uint(over)
	}
	x := (regime<<es|e)<<fb | frac
	L := regimeLen + es + fb

	var pat uint64
	if L <= n-1 {
		pat = x << (n - 1 - L) // the whole pattern fits: exact
	} else {
		cut := L - (n - 1)
		pat = x >> cut
		guard := x >> (cut - 1) & 1
		below := sticky || x&((1<<(cut-1))-1) != 0
		if guard == 1 && (below || pat&1 == 1) {
			pat++
		}
	}
	if pat == 0 {
		pat = 1 // never round a nonzero value to zero
	}
	return c.signed(pat, pt.Neg)
}

func (c Config) signed(pat uint64, neg bool) uint64 {
	if neg {
		return c.Neg(pat)
	}
	return pat
}

func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// FromFloat64 converts an IEEE-754 binary64 value to the nearest posit.
// NaN and +-Inf map to NaR; +-0 maps to zero (posits have a single zero).
func (c Config) FromFloat64(f float64) uint64 {
	b := math.Float64bits(f)
	exp := int(b >> 52 & 0x7FF)
	mant := b & ((1 << 52) - 1)
	neg := b>>63 == 1
	switch exp {
	case 0x7FF: // Inf or NaN
		return c.NaR()
	case 0: // zero or subnormal
		if mant == 0 {
			return 0
		}
		lz := bits.LeadingZeros64(mant) - 11 // zeros above the top set bit, within the 53-bit field
		mant <<= uint(lz)                    // hidden position now bit 52
		return c.Encode(Parts{
			Neg:      neg,
			Scale:    -1022 - lz, // == t - 1074 where t is the top set bit of the raw mantissa
			Frac:     mant,
			FracBits: 52,
		})
	default:
		return c.Encode(Parts{
			Neg:      neg,
			Scale:    exp - 1023,
			Frac:     mant | 1<<52,
			FracBits: 52,
		})
	}
}

// FromFloat32 converts an IEEE-754 binary32 value to the nearest posit.
// The widening to float64 is exact, so this performs a single rounding.
func (c Config) FromFloat32(f float32) uint64 {
	return c.FromFloat64(float64(f))
}

// ToFloat64 converts a posit to float64. NaR maps to NaN. The conversion is
// exact whenever the posit's scale lies in binary64's normal range, which
// holds at every es <= 5 ((n-2)<<es <= 960). At es = 6 posit<32,6> spans
// 2^±1920, so its largest values overflow to ±Inf and its smallest round
// into binary64's subnormals or to zero.
func (c Config) ToFloat64(p uint64) float64 {
	pt, sp := c.Decode(p)
	switch sp {
	case IsZero:
		return 0
	case IsNaR:
		return math.NaN()
	}
	v := math.Ldexp(float64(pt.Frac), pt.Scale-int(pt.FracBits))
	if pt.Neg {
		v = -v
	}
	return v
}

// ToFloat32 converts a posit to float32 with a final IEEE rounding.
func (c Config) ToFloat32(p uint64) float32 {
	return float32(c.ToFloat64(p))
}
