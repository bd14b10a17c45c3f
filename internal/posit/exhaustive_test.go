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
