package chunkcache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func key(b byte) Key {
	var k Key
	k[0] = b
	return k
}

// newChunks returns a decoded-chunk cache bounded at max bytes, as positd
// builds it.
func newChunks(max int64) *Cache[Key, []byte] { return New[Key](max, Bytes) }

var bg = context.Background()

// TestSingleFlight pins the single-flight property under the bar the issue
// sets: 32 concurrent readers of one key run exactly one fill, and all 32
// get the same bytes.
func TestSingleFlight(t *testing.T) {
	c := newChunks(1 << 20)
	var fills atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	outs := make([][]byte, 32)
	errs := make([]error, 32)
	for i := 0; i < 32; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			outs[i], _, errs[i] = c.Get(bg, key(1), func() ([]byte, error) {
				fills.Add(1)
				return []byte("decoded-chunk"), nil
			})
		}()
	}
	close(gate)
	wg.Wait()
	if n := fills.Load(); n != 1 {
		t.Fatalf("32 concurrent readers ran %d fills, want exactly 1", n)
	}
	for i := 0; i < 32; i++ {
		if errs[i] != nil || !bytes.Equal(outs[i], []byte("decoded-chunk")) {
			t.Fatalf("reader %d: %q, %v", i, outs[i], errs[i])
		}
	}
	st := c.Snapshot()
	if st.Lookups != 32 || st.Hits+st.Misses != st.Lookups {
		t.Fatalf("stats do not reconcile: %+v", st)
	}
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (the single fill)", st.Misses)
	}
}

// TestEvictionByteBound fills past the budget and checks the bound holds
// after every insertion, with exact byte accounting.
func TestEvictionByteBound(t *testing.T) {
	const max = 10 * 100
	c := newChunks(max)
	for i := 0; i < 25; i++ {
		data := bytes.Repeat([]byte{byte(i)}, 100)
		if _, _, err := c.Get(bg, key(byte(i)), func() ([]byte, error) { return data, nil }); err != nil {
			t.Fatal(err)
		}
		st := c.Snapshot()
		if st.Bytes > max {
			t.Fatalf("after insert %d: %d resident bytes exceed bound %d", i, st.Bytes, max)
		}
		if st.Bytes != st.Entries*100 {
			t.Fatalf("after insert %d: bytes %d != entries %d x 100", i, st.Bytes, st.Entries)
		}
	}
	st := c.Snapshot()
	if st.Evictions != 15 {
		t.Fatalf("evictions = %d, want 15 (25 inserts into a 10-slot budget)", st.Evictions)
	}
	if st.Entries != 10 || st.Bytes != max {
		t.Fatalf("steady state: %d entries, %d bytes; want 10 and %d", st.Entries, st.Bytes, max)
	}
}

// TestLRUOrder: touching an entry protects it; the least recently used one
// goes first.
func TestLRUOrder(t *testing.T) {
	c := newChunks(300)
	fill := func(b byte) func() ([]byte, error) {
		return func() ([]byte, error) { return bytes.Repeat([]byte{b}, 100), nil }
	}
	for _, b := range []byte{1, 2, 3} {
		c.Get(bg, key(b), fill(b))
	}
	if _, src, _ := c.Get(bg, key(1), fill(1)); src != Hit { // 1 becomes MRU
		t.Fatal("expected hit on resident key 1")
	}
	c.Get(bg, key(4), fill(4)) // evicts 2, the LRU
	if _, src, _ := c.Get(bg, key(2), fill(2)); src != Filled {
		t.Fatal("key 2 should have been evicted")
	}
	// Probing 2 above refilled it, evicting 3 in turn; 1 must still be
	// resident.
	if _, src, _ := c.Get(bg, key(1), fill(1)); src != Hit {
		t.Fatal("recently used key 1 was evicted out of order")
	}
}

// TestPoisonedFillNeverCached: a failed fill propagates its error to the
// leader and every coalesced waiter, and the key is forgotten — the next
// lookup re-runs the fill.
func TestPoisonedFillNeverCached(t *testing.T) {
	c := newChunks(1 << 20)
	poison := errors.New("bit rot")
	var fills atomic.Int64
	filling := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, 16)
	wg.Add(1)
	go func() { // the leader: its fill blocks until every waiter has arrived
		defer wg.Done()
		_, _, errs[0] = c.Get(bg, key(9), func() ([]byte, error) {
			fills.Add(1)
			close(filling)
			<-release
			return nil, poison
		})
	}()
	<-filling
	for i := 1; i < 16; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, errs[i] = c.Get(bg, key(9), func() ([]byte, error) {
				fills.Add(1)
				return nil, poison
			})
		}()
	}
	// Every waiter is committed to the coalesced path before the leader
	// resolves, so the forgotten key cannot hand one of them a second fill.
	for c.Snapshot().Coalesced < 15 {
	}
	close(release)
	wg.Wait()
	if n := fills.Load(); n != 1 {
		t.Fatalf("poisoned fill ran %d times under contention, want 1", n)
	}
	for i, err := range errs {
		if !errors.Is(err, poison) {
			t.Fatalf("waiter %d: err = %v, want the fill error", i, err)
		}
	}
	if st := c.Snapshot(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("poisoned fill left %d entries / %d bytes resident", st.Entries, st.Bytes)
	}
	// The key was forgotten: a retry runs the fill again and can succeed.
	out, src, err := c.Get(bg, key(9), func() ([]byte, error) {
		fills.Add(1)
		return []byte("ok"), nil
	})
	if err != nil || src != Filled || string(out) != "ok" {
		t.Fatalf("retry after poison: %q, source %d, %v", out, src, err)
	}
	if fills.Load() != 2 {
		t.Fatalf("retry did not re-run the fill")
	}
	if st := c.Snapshot(); st.Hits+st.Misses != st.Lookups {
		t.Fatalf("stats do not reconcile: %+v", st)
	}
}

// TestOversizedNeverAdmitted: a chunk bigger than the whole budget is
// returned but not cached.
func TestOversizedNeverAdmitted(t *testing.T) {
	c := newChunks(100)
	big := bytes.Repeat([]byte{7}, 200)
	for i := 0; i < 2; i++ {
		out, src, err := c.Get(bg, key(5), func() ([]byte, error) { return big, nil })
		if err != nil || src != Filled || !bytes.Equal(out, big) {
			t.Fatalf("attempt %d: source %d, err %v", i, src, err)
		}
	}
	if st := c.Snapshot(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversized chunk was admitted: %+v", st)
	}
}

// TestStatsReconcileUnderContention hammers a small cache from many
// goroutines with overlapping keys and checks the exact invariants the
// issue names: hits+misses == lookups, and resident bytes == the byte sum
// of resident chunks (every entry here is the same size, so bytes must be a
// multiple of it and within the bound).
func TestStatsReconcileUnderContention(t *testing.T) {
	const chunkBytes = 64
	c := newChunks(8 * chunkBytes)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := byte((g + i) % 24)
				data, _, err := c.Get(bg, key(k), func() ([]byte, error) {
					if k%11 == 10 {
						return nil, fmt.Errorf("poisoned key %d", k)
					}
					return bytes.Repeat([]byte{k}, chunkBytes), nil
				})
				if err == nil && (len(data) != chunkBytes || data[0] != k) {
					t.Error("cache returned wrong bytes")
					return
				}
			}
		}()
	}
	wg.Wait()
	st := c.Snapshot()
	if st.Hits+st.Misses != st.Lookups {
		t.Fatalf("hits %d + misses %d != lookups %d", st.Hits, st.Misses, st.Lookups)
	}
	if st.Lookups != 16*200 {
		t.Fatalf("lookups = %d, want %d", st.Lookups, 16*200)
	}
	if st.Bytes != st.Entries*chunkBytes {
		t.Fatalf("resident bytes %d != %d entries x %d", st.Bytes, st.Entries, chunkBytes)
	}
	if st.Bytes > 8*chunkBytes {
		t.Fatalf("resident bytes %d exceed bound", st.Bytes)
	}
	if st.FillErrors == 0 {
		t.Fatal("expected some poisoned fills in the mix")
	}
}

// TestCoalescedWaitHonoursCtx: a waiter whose ctx ends stops waiting on a
// parked fill and returns ctx.Err() as a coalesced miss, while the fill
// runs on and lands in the cache.
func TestCoalescedWaitHonoursCtx(t *testing.T) {
	c := newChunks(1 << 20)
	filling := make(chan struct{})
	gate := make(chan struct{})
	leader := make(chan error, 1)
	go func() {
		_, _, err := c.Get(bg, key(3), func() ([]byte, error) {
			close(filling)
			<-gate
			return []byte("late"), nil
		})
		leader <- err
	}()
	<-filling
	defer func() {
		select {
		case <-gate:
		default:
			close(gate) // let the leader finish if a check failed early
		}
	}()

	// A waiter that ignores its ctx would park until the gate opens, which
	// only happens after this bound: it fails here instead of hanging.
	ctx, cancel := context.WithCancel(bg)
	waiter := make(chan error, 1)
	var src Source
	go func() {
		var err error
		_, src, err = c.Get(ctx, key(3), func() ([]byte, error) {
			t.Error("waiter ran a second fill")
			return nil, nil
		})
		waiter <- err
	}()
	deadline := time.After(5 * time.Second)
	for c.Snapshot().Coalesced < 1 {
		select {
		case <-deadline:
			t.Fatal("second Get never coalesced onto the parked fill")
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	select {
	case err := <-waiter:
		if !errors.Is(err, context.Canceled) || src != Coalesced {
			t.Fatalf("cancelled waiter: source %d, err %v; want Coalesced, context.Canceled", src, err)
		}
	case <-deadline:
		t.Fatal("cancelled waiter still waiting on the parked fill")
	}
	st := c.Snapshot()
	if st.Coalesced != 1 || st.Misses != 2 || st.Hits+st.Misses != st.Lookups {
		t.Fatalf("after the cancelled wait: %+v, want 1 coalesced and 2 misses of 2 lookups", st)
	}

	close(gate)
	if err := <-leader; err != nil {
		t.Fatalf("leader: %v", err)
	}
	out, src, err := c.Get(bg, key(3), func() ([]byte, error) {
		t.Error("resident key filled again")
		return nil, nil
	})
	if err != nil || src != Hit || string(out) != "late" {
		t.Fatalf("after the fill: %q, source %d, %v; want the leader's value as a hit", out, src, err)
	}
	if st := c.Snapshot(); st.Hits+st.Misses != st.Lookups || st.Entries != 1 {
		t.Fatalf("stats after the hit: %+v", st)
	}
}
