package resilience

import (
	"testing"
	"time"
)

// Exact delays with a pinned Rand: equal jitter means
// d/2 + d/2·rand, doubling from Base and capping at Max.
func TestBackoffDeterministic(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: 800 * time.Millisecond,
		Rand: func() float64 { return 0.5 }}
	want := []time.Duration{
		75 * time.Millisecond,  // 100ms: 50 + 25
		150 * time.Millisecond, // 200ms
		300 * time.Millisecond, // 400ms
		600 * time.Millisecond, // 800ms (cap)
		600 * time.Millisecond, // still capped
	}
	for i, w := range want {
		if got := b.Delay(i); got != w {
			t.Errorf("Delay(%d) = %v, want %v", i, got, w)
		}
	}
}

// Jittered delays stay inside [d/2, d] for every retry number, and the
// un-jittered sequence is exactly exponential-then-capped.
func TestBackoffBounds(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: 1 * time.Second}
	for retry := 0; retry < 12; retry++ {
		full := Backoff{Base: b.Base, Max: b.Max, NoJitter: true}.Delay(retry)
		wantFull := b.Base << retry
		if wantFull > b.Max || wantFull <= 0 {
			wantFull = b.Max
		}
		if full != wantFull {
			t.Fatalf("NoJitter Delay(%d) = %v, want %v", retry, full, wantFull)
		}
		for trial := 0; trial < 50; trial++ {
			d := b.Delay(retry)
			if d < full/2 || d > full {
				t.Fatalf("Delay(%d) = %v outside [%v, %v]", retry, d, full/2, full)
			}
		}
	}
}

// Overflow in the doubling loop must clamp to Max, not go negative.
func TestBackoffOverflow(t *testing.T) {
	b := Backoff{Base: time.Hour, Max: 24 * time.Hour, NoJitter: true}
	if got := b.Delay(200); got != 24*time.Hour {
		t.Fatalf("Delay(200) = %v, want the cap", got)
	}
	if got := b.Delay(-1); got != 0 {
		t.Fatalf("Delay(-1) = %v, want 0", got)
	}
}

// The zero value is usable and bounded by the package defaults.
func TestBackoffZeroValue(t *testing.T) {
	var b Backoff
	for retry := 0; retry < 20; retry++ {
		d := b.Delay(retry)
		if d <= 0 || d > DefaultBackoffMax {
			t.Fatalf("zero-value Delay(%d) = %v outside (0, %v]", retry, d, DefaultBackoffMax)
		}
	}
}
