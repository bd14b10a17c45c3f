package main

import (
	"testing"
	"time"
)

// A request that stalls must charge its stall to every request due while
// it blocked the only connection, not just to itself.
func TestOpenLoopChargesStallToEveryRequestDue(t *testing.T) {
	const stalled, stall = 10, 40 * time.Millisecond
	due := make([]time.Duration, 100)
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	var stallEnd time.Time
	out := openLoop(1, due, func(_, i int) sample {
		start := time.Now()
		if i == stalled {
			time.Sleep(stall)
			stallEnd = time.Now()
		}
		return sample{ok: true, lat: time.Since(start)}
	})
	if out[stalled].lat < stall {
		t.Fatalf("stalled request latency %v, want >= %v", out[stalled].lat, stall)
	}
	charged := 0
	for i := stalled + 1; i < len(out); i++ {
		if !out[i].due.Before(stallEnd) {
			break
		}
		charged++
		if want := stallEnd.Sub(out[i].due); out[i].lat < want {
			t.Errorf("request %d due %v before the stall ended: latency %v, want >= %v",
				i, stallEnd.Sub(out[i].due), out[i].lat, want)
		}
		if out[i].lag <= 0 {
			t.Errorf("request %d was sent late but reports lag %v", i, out[i].lag)
		}
	}
	if charged < 20 {
		t.Fatalf("only %d requests fell due during a %v stall at 1 request/ms", charged, stall)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if got := quantile(xs, 0.99); got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := quantile(xs, 0.5); got != 500 {
		t.Fatalf("p50 of 1..1000 = %v, want 500", got)
	}
}
