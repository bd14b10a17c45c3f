package posit

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Double-precision batch support: the paper's future-work extension to
// 64-bit data. Works with any 64-bit posit configuration (posit<64,2> is
// the standard; posit<64,3> mirrors the paper's es choice).

// FromFloat64Slice converts float64 values to posit bit patterns under c,
// on GOMAXPROCS workers.
func (c Config) FromFloat64Slice(dst []uint64, src []float64) []uint64 {
	if dst == nil {
		dst = make([]uint64, len(src))
	}
	spread(len(src), 0, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = c.FromFloat64(src[i])
		}
	})
	return dst[:len(src)]
}

// ToFloat64Slice converts posit bit patterns back to float64, on
// GOMAXPROCS workers.
func (c Config) ToFloat64Slice(dst []float64, src []uint64) []float64 {
	if dst == nil {
		dst = make([]float64, len(src))
	}
	spread(len(src), 0, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = c.ToFloat64(src[i])
		}
	})
	return dst[:len(src)]
}

// RoundtripStats64 reports how many float64 values survive the
// float64 -> posit -> float64 roundtrip exactly.
func (c Config) RoundtripStats64(src []float64) ConvertStats {
	var st ConvertStats
	for _, f := range src {
		back := c.ToFloat64(c.FromFloat64(f))
		st.Total++
		switch {
		case math.IsNaN(f):
			if math.IsNaN(back) {
				st.Exact++
			}
		case math.Float64bits(f) == math.Float64bits(back):
			st.Exact++
		default:
			if e := math.Abs(back - f); e > st.MaxAbsE {
				st.MaxAbsE = e
			}
		}
	}
	return st
}

// EncodeFloat64LE serializes float64 values little-endian (.f64 layout).
func EncodeFloat64LE(src []float64) []byte {
	out := make([]byte, 8*len(src))
	for i, f := range src {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(f))
	}
	return out
}

// DecodeFloat64LE parses a little-endian .f64 byte stream.
func DecodeFloat64LE(p []byte) ([]float64, error) {
	if len(p)%8 != 0 {
		return nil, fmt.Errorf("posit: byte length %d not a multiple of 8", len(p))
	}
	out := make([]float64, len(p)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return out, nil
}

// EncodeWords64LE serializes 64-bit posit patterns little-endian.
func EncodeWords64LE(src []uint64) []byte {
	out := make([]byte, 8*len(src))
	for i, w := range src {
		binary.LittleEndian.PutUint64(out[8*i:], w)
	}
	return out
}

// DecodeWords64LE parses a little-endian 64-bit word stream.
func DecodeWords64LE(p []byte) ([]uint64, error) {
	if len(p)%8 != 0 {
		return nil, fmt.Errorf("posit: byte length %d not a multiple of 8", len(p))
	}
	out := make([]uint64, len(p)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(p[8*i:])
	}
	return out, nil
}
