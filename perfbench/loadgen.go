package main

import (
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one timed request. Latency is measured from Due: in the closed
// loop a request is due when its client sends it, in the open loop when
// the schedule says so, so a stall is charged to every request due during
// it. Lag is how late the generator sent the request.
type sample struct {
	kind  string
	due   time.Time
	lat   time.Duration
	lag   time.Duration
	ok    bool  // 2xx and verified
	bytes int64 // payload bytes the operation moved, when ok
}

// closedLoop runs clients goroutines for dur. Each sends its next request
// only after the previous one returns: do(client, seq) performs request
// seq of that client and returns its samples (a roundtrip yields two).
func closedLoop(clients int, dur time.Duration, do func(client, seq int) []sample) [][]sample {
	out := make([][]sample, clients)
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for seq := 0; time.Now().Before(deadline); seq++ {
				out[c] = append(out[c], do(c, seq)...)
			}
		}(c)
	}
	wg.Wait()
	return out
}

// openLoop sends request i at start+due[i] over conns workers, whatever
// the replies do. A request whose worker is still busy when it comes due
// is sent late; its latency still counts from its due time and the delay
// shows as lag. do(worker, i) performs request i and returns its sample
// with lat measured from the send; openLoop adds the lag.
func openLoop(conns int, due []time.Duration, do func(worker, i int) sample) []sample {
	out := make([]sample, len(due))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(due) {
					return
				}
				at := start.Add(due[i])
				if d := time.Until(at); d > 0 {
					time.Sleep(d)
				}
				lag := time.Since(at)
				s := do(w, i)
				s.due, s.lag = at, lag
				s.lat += lag
				out[i] = s
			}
		}(w)
	}
	wg.Wait()
	return out
}

// quantile returns the exact q-quantile (nearest rank) of xs, which it
// sorts in place. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// latencies returns the latencies in ms of the samples of the given kinds
// (all kinds when none is given). A failed request counts as failLat, so
// it misses every latency limit below that.
func latencies(ss []sample, failLat time.Duration, kinds ...string) []float64 {
	var out []float64
	for _, s := range ss {
		if len(kinds) > 0 && !slices.Contains(kinds, s.kind) {
			continue
		}
		d := s.lat
		if !s.ok {
			d = failLat
		}
		out = append(out, ms(d))
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// median returns the exact median of xs (sorting it in place).
func median(xs []float64) float64 { return quantile(xs, 0.5) }
