//go:build exhaustive

package posit

import (
	"math"
	"testing"
	"time"

	"positbench/internal/pool"
)

// TestDecode32Exhaustive compares the branch-free decode32 kernel with the
// scalar ToFloat64 reference on every one of the 2^32 posit<32,3>
// patterns, bit for bit, in 256 shards of 2^24 patterns spread over
// GOMAXPROCS workers. It sits behind the exhaustive build tag because it
// takes minutes: run it with `make test-exhaustive`.
func TestDecode32Exhaustive(t *testing.T) {
	c := Config{32, 3}
	const shards = 256
	const per = 1 << 32 / shards
	bad := make([]int, shards)
	first := make([]uint32, shards)
	start := time.Now()
	pool.Run(0, shards, func(s int) {
		lo := uint32(s) * per
		for i := uint32(0); i < per; i++ {
			p := lo + i
			if c.decode32(p) != math.Float64bits(c.ToFloat64(uint64(p))) {
				if bad[s] == 0 {
					first[s] = p
				}
				bad[s]++
			}
		}
	})
	total := 0
	for s, n := range bad {
		if n > 0 {
			p := first[s]
			t.Errorf("shard %d: %d mismatches, first decode32(%#08x) = %#016x, ToFloat64 %#016x",
				s, n, p, c.decode32(p), math.Float64bits(c.ToFloat64(uint64(p))))
		}
		total += n
	}
	t.Logf("%v: %d of 2^32 patterns disagree; %v on %d workers",
		c, total, time.Since(start).Round(time.Second), pool.Workers(0))
}

// TestFromFloat32Exhaustive checks FromFloat32 into posit<32,3> on every one
// of the 2^32 float32 patterns against nearestPosit's rule, evaluated in
// float64 (see roundsNearest), in the same 256 shards as
// TestDecode32Exhaustive.
func TestFromFloat32Exhaustive(t *testing.T) {
	c, ext := Posit32e3, Config{33, 3}
	const shards = 256
	const per = 1 << 32 / shards
	bad := make([]int, shards)
	first := make([]uint32, shards)
	start := time.Now()
	pool.Run(0, shards, func(s int) {
		lo := uint32(s) * per
		for i := uint32(0); i < per; i++ {
			u := lo + i
			f := math.Float32frombits(u)
			if !roundsNearest(c, ext, f, c.FromFloat32(f)) {
				if bad[s] == 0 {
					first[s] = u
				}
				bad[s]++
			}
		}
	})
	total := 0
	for s, n := range bad {
		if n > 0 {
			f := math.Float32frombits(first[s])
			t.Errorf("shard %d: %d misrounded, first FromFloat32(%g = %#08x) = %#08x",
				s, n, f, first[s], c.FromFloat32(f))
		}
		total += n
	}
	t.Logf("%v: %d of 2^32 float32 patterns misrounded; %v on %d workers",
		c, total, time.Since(start).Round(time.Second), pool.Workers(0))
}

// roundsNearest reports whether p is c's correctly rounded pattern for f
// under nearestPosit's rule: NaN and ±Inf give NaR, ±0 gives 0, and any
// other f gives the pattern of f's sign whose magnitude q lies in
// [minpos, maxpos], with |f| no further out than q's rounding boundaries,
// the values of the ext = posit<N+1,ES> patterns (q<<1)-1 below and
// (q<<1)|1 above. |f| may equal a boundary only when q is even (ties to
// the even pattern); minpos has no lower boundary and maxpos no upper one,
// since conversion saturates. ToFloat64 runs the scalar Decode, not
// Encode, and both float32 values (24 significant bits) and posit<33,3>
// values (at most 28) are exact in float64, so every comparison is exact.
func roundsNearest(c, ext Config, f float32, p uint64) bool {
	x := float64(f)
	switch {
	case math.IsNaN(x) || math.IsInf(x, 0):
		return p == c.NaR()
	case x == 0:
		return p == 0
	}
	q := p
	if x < 0 {
		x, q = -x, c.Neg(p)
	}
	if q < c.MinPos() || q > c.MaxPos() {
		return false
	}
	even := q&1 == 0
	if q > c.MinPos() {
		if b := ext.ToFloat64(q<<1 - 1); x < b || x == b && !even {
			return false
		}
	}
	if q < c.MaxPos() {
		if b := ext.ToFloat64(q<<1 | 1); x > b || x == b && !even {
			return false
		}
	}
	return true
}
