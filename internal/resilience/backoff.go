package resilience

import (
	"math/rand"
	"time"
)

// Backoff computes capped exponential retry delays with equal jitter: half
// of each delay is fixed and half is random. The zero value selects the
// defaults below. Delay is pure given Rand, so tests inject a fixed Rand and
// assert exact values; with a real Rand the result is still bounded within
// [d/2, d], which the tests pin.
type Backoff struct {
	// Base is the un-jittered delay before the first retry. <= 0 selects
	// DefaultBackoffBase.
	Base time.Duration
	// Max caps the un-jittered exponential growth. <= 0 selects
	// DefaultBackoffMax.
	Max time.Duration
	// NoJitter disables jitter entirely (deterministic delays).
	NoJitter bool
	// Rand supplies the jitter source in [0, 1). Nil selects the global
	// math/rand source.
	Rand func() float64
}

// Defaults for the zero Backoff.
const (
	DefaultBackoffBase = 25 * time.Millisecond
	DefaultBackoffMax  = 2 * time.Second
)

// Delay returns the pause before retry number retry (0 = the first retry).
// Negative retry values return 0.
func (b Backoff) Delay(retry int) time.Duration {
	if retry < 0 {
		return 0
	}
	base := b.Base
	if base <= 0 {
		base = DefaultBackoffBase
	}
	max := b.Max
	if max <= 0 {
		max = DefaultBackoffMax
	}
	d := base
	for i := 0; i < retry; i++ {
		d *= 2
		if d >= max || d < 0 { // d < 0: overflow
			d = max
			break
		}
	}
	if d > max {
		d = max
	}
	if b.NoJitter {
		return d
	}
	rnd := b.Rand
	if rnd == nil {
		rnd = rand.Float64
	}
	half := float64(d) / 2
	return time.Duration(half + half*rnd())
}
