package compress

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSchedulerSkewedLoadBalances runs a skewed chunk-size distribution —
// one blocker an order of magnitude longer than the rest — and requires
// every item executed exactly once while one worker is blocked: no item
// may wait behind the blocked worker.
func TestSchedulerSkewedLoadBalances(t *testing.T) {
	noLeaks(t)
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	const workers = 4
	const items = 64
	var executed [items]atomic.Int32
	blockerRunning := make(chan struct{})
	release := make(chan struct{})
	s := startEnginePool(workers, func(w int, it int) {
		executed[it].Add(1)
		if it == 0 {
			close(blockerRunning)
			<-release // the blocker: pins its worker until the end
		} else {
			time.Sleep(100 * time.Microsecond)
		}
	})
	// Land the blocker alone, wait until a worker is pinned on it, then
	// submit the rest, which the other three workers must drain.
	s.submit(0)
	<-blockerRunning
	for i := 1; i < items; i++ {
		s.submit(i)
	}
	deadline := time.After(10 * time.Second)
	for done := false; !done; {
		select {
		case <-deadline:
			t.Fatal("scheduler did not drain the skewed load")
		default:
			done = true
			for i := 1; i < items; i++ {
				if executed[i].Load() == 0 {
					done = false
					break
				}
			}
			if !done {
				time.Sleep(time.Millisecond)
			}
		}
	}
	close(release)
	s.close()
	for i := range executed {
		if n := executed[i].Load(); n != 1 {
			t.Errorf("item %d executed %d times, want exactly 1", i, n)
		}
	}
}

// TestSchedulerCloseDrains submits a burst and closes immediately: close
// must not return until every item ran, and no worker goroutine may leak.
func TestSchedulerCloseDrains(t *testing.T) {
	noLeaks(t)
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)

	var ran atomic.Int32
	s := startEnginePool(3, func(w int, _ struct{}) {
		time.Sleep(50 * time.Microsecond)
		ran.Add(1)
	})
	for i := 0; i < 48; i++ {
		s.submit(struct{}{})
	}
	s.close()
	if got := ran.Load(); got != 48 {
		t.Fatalf("close returned with %d of 48 items executed", got)
	}
	s.close() // idempotent
}

// TestSchedulerCountersReconcile pins the /metrics invariant the positload
// soak checks end to end: submitted == local hits + steals after a drain,
// steals stay zero, every per-worker depth gauge reads zero, and
// workers_alive returns to its level before the pool started.
func TestSchedulerCountersReconcile(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	pre := EngineSnapshot()

	var wg sync.WaitGroup
	s := startEnginePool(2, func(w int, _ int) {
		time.Sleep(20 * time.Microsecond)
		wg.Done()
	})
	const items = 200
	wg.Add(items)
	for i := 0; i < items; i++ {
		s.submit(i)
	}
	wg.Wait()
	s.close()

	snap := EngineSnapshot()
	subs := snap.SchedSubmitted - pre.SchedSubmitted
	local := snap.SchedLocalHits - pre.SchedLocalHits
	steals := snap.SchedSteals - pre.SchedSteals
	if subs < items {
		t.Fatalf("sched_submitted moved by %d, want >= %d", subs, items)
	}
	if local+steals != subs {
		t.Fatalf("scheduler leaked work: submitted %d != local %d + stolen %d", subs, local, steals)
	}
	if steals != 0 {
		t.Errorf("sched_steals moved by %d, want 0", steals)
	}
	for slot, depth := range snap.WorkerQueueDepths {
		if depth != pre.WorkerQueueDepths[slot] {
			t.Errorf("worker slot %d queue depth drifted: %d -> %d", slot, pre.WorkerQueueDepths[slot], depth)
		}
	}
	if snap.WorkersAlive != pre.WorkersAlive {
		t.Errorf("workers_alive drifted: %d -> %d", pre.WorkersAlive, snap.WorkersAlive)
	}
}

// TestParallelReaderEarlyCloseScheduler closes a pool-path reader
// mid-stream: no goroutine leak, and the canonical read-after-Close error.
func TestParallelReaderEarlyCloseScheduler(t *testing.T) {
	noLeaks(t)
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)

	data := parallelData(256 << 10)
	stream := writeSerial(t, passthrough{}, data, 1024)
	r := NewReader(context.Background(), passthrough{}, bytes.NewReader(stream), DecodeLimits{}, 4)
	if r.Inline() {
		t.Fatal("expected the pool path under GOMAXPROCS(2) workers=4")
	}
	buf := make([]byte, 512)
	if _, err := io.ReadFull(r, buf); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("early Close: %v", err)
	}
	if _, err := r.Read(buf); err == nil || err.Error() != "compress: read after Close" {
		t.Fatalf("read-after-Close err = %v, want the canonical error", err)
	}
}

// errAfterCodec fails compression from the Nth call on; the pool path
// must surface the first error, stick to it, and still shut down cleanly.
type errAfterCodec struct {
	passthrough
	n     int32
	calls atomic.Int32
}

var errCodecBoom = errors.New("codec boom")

func (c *errAfterCodec) Compress(src []byte) ([]byte, error) {
	if c.calls.Add(1) > c.n {
		return nil, errCodecBoom
	}
	return c.passthrough.Compress(src)
}

func (c *errAfterCodec) Name() string { return "err-after" }

// TestParallelWriterStickyErrorScheduler pins first-error-wins on the
// pool path: after a chunk fails, Write and Close keep returning the
// same error and the engine tears down without leaking workers.
func TestParallelWriterStickyErrorScheduler(t *testing.T) {
	noLeaks(t)
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)

	var sink bytes.Buffer
	w := NewWriter(context.Background(), &errAfterCodec{n: 2}, &sink, 1024, 4)
	if w.Inline() {
		t.Fatal("expected the pool path under GOMAXPROCS(2) workers=4")
	}
	data := parallelData(64 << 10)
	var firstErr error
	for off := 0; off < len(data); off += 4096 {
		if _, err := w.Write(data[off : off+4096]); err != nil {
			firstErr = err
			break
		}
	}
	if firstErr == nil {
		firstErr = w.Close()
	}
	if !errors.Is(firstErr, errCodecBoom) {
		t.Fatalf("first surfaced error = %v, want the codec error", firstErr)
	}
	if _, err := w.Write([]byte("more")); !errors.Is(err, errCodecBoom) {
		t.Fatalf("Write after failure = %v, want the sticky codec error", err)
	}
	if err := w.Close(); !errors.Is(err, errCodecBoom) {
		t.Fatalf("Close after failure = %v, want the sticky codec error", err)
	}
}
