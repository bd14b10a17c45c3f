//go:build exhaustive

package posit

import (
	"math"
	"testing"
	"time"

	"positbench/internal/pool"
)

// The sweeps below check the paper's two posit32 configurations, es = 2 and
// es = 3 (§4.2's precision columns), on every one of the 2^32 inputs. They
// sit behind the exhaustive build tag because they take minutes: run them
// with `make test-exhaustive`.

// TestDecode32Exhaustive compares the branch-free decode32 kernel with the
// scalar ToFloat64 reference on every posit32 pattern, bit for bit.
func TestDecode32Exhaustive(t *testing.T) {
	for _, c := range []Config{Posit32, Posit32e3} {
		t.Run(c.String(), func(t *testing.T) {
			start := time.Now()
			fails, first := sweep(func(p uint32) uint {
				if c.decode32(p) != math.Float64bits(c.ToFloat64(uint64(p))) {
					return 1
				}
				return 0
			})
			if fails[0] > 0 {
				p := first[0]
				t.Errorf("%d mismatches, first decode32(%#08x) = %#016x, ToFloat64 %#016x",
					fails[0], p, c.decode32(p), math.Float64bits(c.ToFloat64(uint64(p))))
			}
			t.Logf("%v: %d of 2^32 patterns disagree; %v on %d workers",
				c, fails[0], time.Since(start).Round(time.Second), pool.Workers(0))
		})
	}
}

// TestFromFloat32Exhaustive converts every float32 pattern with
// FromFloat32 and checks the result two ways in one pass: against
// nearestPosit's rule, evaluated in float64 (see roundsNearest), and
// against the branch-free encode32 kernel, which must return the same
// pattern.
func TestFromFloat32Exhaustive(t *testing.T) {
	for _, c := range []Config{Posit32, Posit32e3} {
		ext := Config{33, c.ES}
		t.Run(c.String(), func(t *testing.T) {
			start := time.Now()
			fails, first := sweep(func(u uint32) uint {
				f := math.Float32frombits(u)
				p := c.FromFloat32(f)
				var bad uint
				if !roundsNearest(c, ext, f, p) {
					bad |= 1
				}
				if uint64(c.encode32(u)) != p {
					bad |= 2
				}
				return bad
			})
			if fails[0] > 0 {
				f := math.Float32frombits(first[0])
				t.Errorf("%d misrounded, first FromFloat32(%g = %#08x) = %#08x",
					fails[0], f, first[0], c.FromFloat32(f))
			}
			if fails[1] > 0 {
				u := first[1]
				t.Errorf("%d encode32 mismatches, first encode32(%#08x) = %#08x, FromFloat32 %#08x",
					fails[1], u, c.encode32(u), c.FromFloat32(math.Float32frombits(u)))
			}
			t.Logf("%v: of 2^32 float32 patterns, %d misrounded and %d where encode32 differs; %v on %d workers",
				c, fails[0], fails[1], time.Since(start).Round(time.Second), pool.Workers(0))
		})
	}
}

// sweep calls check on every one of the 2^32 values u, in 256 shards of
// 2^24 spread over GOMAXPROCS workers. check returns the set of checks u
// fails, as bits 0 and 1; sweep returns each check's count of failing
// values and the smallest of them.
func sweep(check func(u uint32) uint) (fails [2]int, first [2]uint32) {
	const shards = 256
	const per = 1 << 32 / shards
	type tally struct {
		fails [2]int
		first [2]uint32
	}
	tallies := make([]tally, shards)
	pool.Run(0, shards, func(s int) {
		tl := &tallies[s]
		lo := uint32(s) * per
		for i := uint32(0); i < per; i++ {
			bad := check(lo + i)
			for j := range tl.fails {
				if bad>>j&1 == 1 {
					if tl.fails[j] == 0 {
						tl.first[j] = lo + i
					}
					tl.fails[j]++
				}
			}
		}
	})
	for s := shards - 1; s >= 0; s-- { // walking down leaves the smallest in first
		for j, n := range tallies[s].fails {
			if n > 0 {
				first[j] = tallies[s].first[j]
			}
			fails[j] += n
		}
	}
	return fails, first
}

// roundsNearest reports whether p is c's correctly rounded pattern for f
// under nearestPosit's rule: NaN and ±Inf give NaR, ±0 gives 0, and any
// other f gives the pattern of f's sign whose magnitude q lies in
// [minpos, maxpos], with |f| no further out than q's rounding boundaries,
// the values of the ext = posit<N+1,ES> patterns (q<<1)-1 below and
// (q<<1)|1 above. |f| may equal a boundary only when q is even (ties to
// the even pattern); minpos has no lower boundary and maxpos no upper one,
// since conversion saturates. ToFloat64 runs the scalar Decode, not
// Encode, and both float32 values (24 significant bits) and posit<33,es>
// values (at most 29 at es = 2) are exact in float64, so every comparison
// is exact.
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
