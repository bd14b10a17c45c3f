package pool

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func withProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestWorkers(t *testing.T) {
	withProcs(t, 4)
	for _, c := range []struct{ in, want int }{{-1, 4}, {0, 4}, {1, 1}, {3, 3}, {9, 9}} {
		if got := Workers(c.in); got != c.want {
			t.Errorf("GOMAXPROCS 4: Workers(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	runtime.GOMAXPROCS(1)
	for _, in := range []int{0, 1, 8} {
		if got := Workers(in); got != 1 {
			t.Errorf("GOMAXPROCS 1: Workers(%d) = %d, want 1", in, got)
		}
	}
}

// TestRunInline pins the inline cases: one worker, one item or one CPU
// run every call in order on the caller's goroutine.
func TestRunInline(t *testing.T) {
	cases := []struct {
		name           string
		procs, workers int
		n              int
	}{
		{"one-worker", 4, 1, 20},
		{"one-item", 4, 8, 1},
		{"one-cpu", 1, 8, 20},
		{"no-items", 4, 8, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			withProcs(t, c.procs)
			var order []int // unsynchronized: the race detector flags any fan-out
			Run(c.workers, c.n, func(i int) { order = append(order, i) })
			if len(order) != c.n {
				t.Fatalf("ran %d of %d items", len(order), c.n)
			}
			for i, got := range order {
				if got != i {
					t.Fatalf("call %d ran item %d, want in order", i, got)
				}
			}
		})
	}
}

// TestRunBoundsWorkers runs every item exactly once with never more than
// the requested number of calls in flight.
func TestRunBoundsWorkers(t *testing.T) {
	withProcs(t, 4)
	for _, workers := range []int{2, 3, 0} {
		const n = 60
		var ran [n]atomic.Int32
		var inFlight, peak atomic.Int32
		Run(workers, n, func(i int) {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(100 * time.Microsecond)
			inFlight.Add(-1)
			ran[i].Add(1)
		})
		for i := range ran {
			if got := ran[i].Load(); got != 1 {
				t.Errorf("workers %d: item %d ran %d times, want 1", workers, i, got)
			}
		}
		if limit := int32(Workers(workers)); peak.Load() > limit {
			t.Errorf("workers %d: %d calls in flight, want at most %d", workers, peak.Load(), limit)
		}
	}
}

// TestPoolFIFO checks that a worker takes items in submission order and
// that Close returns only once every item has run.
func TestPoolFIFO(t *testing.T) {
	var order []int
	p := New(1, 8, func(_ int, i int) { order = append(order, i) })
	for i := 0; i < 100; i++ {
		p.Submit(i)
	}
	p.Close()
	if len(order) != 100 {
		t.Fatalf("Close returned with %d of 100 items run", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("item %d ran at position %d", got, i)
		}
	}
}
