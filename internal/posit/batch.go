package posit

import (
	"encoding/binary"
	"fmt"
	"math"

	"positbench/internal/pool"
)

// Batch conversion between IEEE-754 binary32 streams and 32-bit posit
// streams. This is the operation the paper performs on every SDRBench input
// (via cppposit) before handing the bytes to the compressors.
//
// Both representations are serialized little-endian, one 32-bit word per
// value, so a converted file has exactly the size of its source.

// ConvertStats summarizes a float32 -> posit -> float32 roundtrip, the
// paper's Section 4.2 precision metric.
type ConvertStats struct {
	Total   int     // number of values converted
	Exact   int     // values whose roundtrip reproduces the input bit-for-bit
	MaxAbsE float64 // largest absolute roundtrip error over finite values
}

// PrecisePct returns the percentage of exactly preserved values.
func (s ConvertStats) PrecisePct() float64 {
	if s.Total == 0 {
		return 100
	}
	return 100 * float64(s.Exact) / float64(s.Total)
}

// add counts one value f whose roundtrip returned back.
func (s *ConvertStats) add(f, back float32) {
	s.Total++
	switch {
	case math.IsNaN(float64(f)):
		if math.IsNaN(float64(back)) {
			s.Exact++
		}
	case math.Float32bits(f) == math.Float32bits(back):
		s.Exact++
	default:
		if e := math.Abs(float64(back) - float64(f)); e > s.MaxAbsE {
			s.MaxAbsE = e
		}
	}
}

// FromFloat32Slice converts src into posit bit patterns under c, on
// GOMAXPROCS workers. dst must have len(src) capacity; if nil a new slice
// is allocated.
func (c Config) FromFloat32Slice(dst []uint32, src []float32) []uint32 {
	return c.FromFloat32SliceWorkers(dst, src, 0)
}

// FromFloat32SliceWorkers is FromFloat32Slice on n workers (n <= 0 means
// GOMAXPROCS). Serving paths pass each request's own count, and callers
// that already run one conversion per worker pass 1.
func (c Config) FromFloat32SliceWorkers(dst []uint32, src []float32, n int) []uint32 {
	if dst == nil {
		dst = make([]uint32, len(src))
	}
	if c.kernelOK() {
		spread(len(src), n, func(_, lo, hi int) {
			c.encode32Batch(dst[lo:hi], src[lo:hi])
		})
		return dst[:len(src)]
	}
	spread(len(src), n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = uint32(c.FromFloat32(src[i]))
		}
	})
	return dst[:len(src)]
}

// ToFloat32Slice converts posit bit patterns back to float32, on
// GOMAXPROCS workers.
func (c Config) ToFloat32Slice(dst []float32, src []uint32) []float32 {
	return c.ToFloat32SliceWorkers(dst, src, 0)
}

// ToFloat32SliceWorkers is ToFloat32Slice on n workers (n <= 0 means
// GOMAXPROCS).
func (c Config) ToFloat32SliceWorkers(dst []float32, src []uint32, n int) []float32 {
	if dst == nil {
		dst = make([]float32, len(src))
	}
	if c.kernelOK() {
		spread(len(src), n, func(_, lo, hi int) {
			c.decode32Batch(dst[lo:hi], src[lo:hi])
		})
		return dst[:len(src)]
	}
	spread(len(src), n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = c.ToFloat32(uint64(src[i]))
		}
	})
	return dst[:len(src)]
}

// RoundtripStats converts src to posits and back on GOMAXPROCS workers,
// reporting how many values survive exactly. NaN inputs count as exact
// when the roundtrip returns any NaN (posits collapse all NaNs to NaR).
func (c Config) RoundtripStats(src []float32) ConvertStats {
	return c.RoundtripStatsWorkers(src, 0)
}

// RoundtripStatsWorkers is RoundtripStats on nWorkers workers (nWorkers
// <= 0 means GOMAXPROCS).
func (c Config) RoundtripStatsWorkers(src []float32, nWorkers int) ConvertStats {
	partial := make([]ConvertStats, pool.Workers(nWorkers))
	kernel := c.kernelOK()
	spread(len(src), len(partial), func(w, lo, hi int) {
		st := &partial[w]
		for _, f := range src[lo:hi] {
			if kernel {
				st.add(f, float32(math.Float64frombits(c.decode32(c.encode32(math.Float32bits(f))))))
			} else {
				st.add(f, c.ToFloat32(c.FromFloat32(f)))
			}
		}
	})
	var total ConvertStats
	for _, p := range partial {
		total.Total += p.Total
		total.Exact += p.Exact
		if p.MaxAbsE > total.MaxAbsE {
			total.MaxAbsE = p.MaxAbsE
		}
	}
	return total
}

// EncodeFloat32LE serializes float32 values little-endian (.f32 layout).
func EncodeFloat32LE(src []float32) []byte {
	out := make([]byte, 4*len(src))
	for i, f := range src {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(f))
	}
	return out
}

// DecodeFloat32LE parses a little-endian .f32 byte stream.
func DecodeFloat32LE(p []byte) ([]float32, error) {
	if len(p)%4 != 0 {
		return nil, fmt.Errorf("posit: byte length %d not a multiple of 4", len(p))
	}
	out := make([]float32, len(p)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(p[4*i:]))
	}
	return out, nil
}

// EncodeWordsLE serializes 32-bit words (posit patterns) little-endian.
func EncodeWordsLE(src []uint32) []byte {
	out := make([]byte, 4*len(src))
	for i, w := range src {
		binary.LittleEndian.PutUint32(out[4*i:], w)
	}
	return out
}

// DecodeWordsLE parses a little-endian 32-bit word stream.
func DecodeWordsLE(p []byte) ([]uint32, error) {
	if len(p)%4 != 0 {
		return nil, fmt.Errorf("posit: byte length %d not a multiple of 4", len(p))
	}
	out := make([]uint32, len(p)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(p[4*i:])
	}
	return out, nil
}

// ConvertFileF32ToPosit converts a raw .f32 byte stream into the
// equal-sized posit<32,es> byte stream, returning roundtrip statistics.
func (c Config) ConvertFileF32ToPosit(f32 []byte) ([]byte, ConvertStats, error) {
	if c.N != 32 {
		return nil, ConvertStats{}, fmt.Errorf("posit: file conversion requires a 32-bit config, got %v", c)
	}
	floats, err := DecodeFloat32LE(f32)
	if err != nil {
		return nil, ConvertStats{}, err
	}
	words := c.FromFloat32Slice(nil, floats)
	stats := c.RoundtripStats(floats)
	return EncodeWordsLE(words), stats, nil
}

// spread cuts [0,n) into one contiguous range per worker, at most
// pool.Workers(workers) ranges, and runs fn(i, lo, hi) for the i-th range
// on its own pool.Run item. Each range writes only its own outputs, so
// results do not depend on scheduling.
func spread(n, workers int, fn func(i, lo, hi int)) {
	if n == 0 {
		return
	}
	parts := pool.Workers(workers)
	size := (n + parts - 1) / parts
	pool.Run(parts, (n+size-1)/size, func(i int) {
		lo := i * size
		fn(i, lo, min(lo+size, n))
	})
}
