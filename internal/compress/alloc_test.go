package compress_test

// Allocation-regression tests for the streaming engine's buffer pooling:
// once the pools are warm, compressing or decompressing a chunk through the
// engine, inline or on the pool, must not allocate for codecs that
// implement the Append capabilities (gzip, lz4, and fpc32). A regression here silently reintroduces
// per-chunk garbage at multi-GB/s rates.
//
// GC is disabled before the pools are warmed: a collection would clear the
// sync.Pools and charge their refill to the steady state.

import (
	"bytes"
	"context"
	"io"
	"runtime"
	"runtime/debug"
	"testing"

	"positbench/internal/compress"
	"positbench/internal/compress/gzipc"
	"positbench/internal/compress/lz4c"
	"positbench/internal/predict"
)

const allocChunk = 64 << 10

// allocWarm is the chunks each gate runs before measuring, and allocWindow
// the chunks it measures. On the pool path the job, slot and codec pools
// are filled from one P and drained from the other, so for the first few
// hundred chunks a sync.Pool still misses now and then; one miss of the
// gzip encoder pool costs several allocations. The long window averages
// such a miss well below one allocation per chunk, which is the smallest
// regression the gates must catch.
const (
	allocWarm   = 64
	allocWindow = 64
)

// gzipDecodeAllowance is the per-chunk allocation budget for gzip decode.
// compress/flate allocates link sub-tables inside huffmanDecoder.init for
// every dynamic-Huffman block with codes longer than 9 bits; that is
// internal to the stdlib and not reachable from the Reset API. Our pooling
// must add nothing on top of it.
const gzipDecodeAllowance = 3

// allocData is compressible but non-trivial, so both codecs exercise their
// match-finding paths.
func allocData(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte((i * 131) >> 3)
	}
	return out
}

// allocCase pairs a codec with its decode-side allocation budget.
type allocCase struct {
	codec    compress.Codec
	decAllow float64
}

func allocCases() map[string]allocCase {
	return map[string]allocCase{
		"gzip": {codec: gzipc.New(), decAllow: gzipDecodeAllowance},
		"lz4":  {codec: lz4c.New(), decAllow: 0},
		// fpc32 (plain mode) pools its predictor tables, residual buffers,
		// and bit reader/writer; the split-mode sibling is excluded because
		// per-block Huffman construction allocates by design.
		"fpc32": {codec: predict.New(), decAllow: 0},
	}
}

// allocEngines are the engine configurations every gate runs: one worker,
// which runs each chunk inline, and two workers on two Ps, which run
// the pool path the serving layer takes on a multi-core host.
var allocEngines = []struct {
	name           string
	procs, workers int
}{
	{"serial", 0, 1},
	{"pool", 2, 2},
}

// allocSlack absorbs stray runtime allocations from the engine's worker
// goroutines (stack growth, scheduler internals) that land inside the
// process-wide malloc window. A real per-chunk regression costs at least
// 1.0 allocs/chunk, so a fractional budget still catches it.
const allocSlack = 0.25

// mallocsPer runs f count times and returns the number of heap allocations
// per call. The caller must have disabled GC (see noGC).
func mallocsPer(count int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < count; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(count)
}

// procs sets GOMAXPROCS to n for the rest of the test; n == 0 leaves it.
func procs(t *testing.T, n int) {
	if n == 0 {
		return
	}
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// noGC turns the collector off for the remainder of the test, after one
// final collection so nothing is pending inside the measured window. It
// also skips the test under the race detector, whose instrumentation
// allocates on its own and makes malloc counts meaningless.
func noGC(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
	runtime.GC()
}

func TestParallelWriterChunkAllocs(t *testing.T) {
	src := allocData(allocChunk)
	for name, tc := range allocCases() {
		t.Run(name, func(t *testing.T) {
			for _, eng := range allocEngines {
				t.Run(eng.name, func(t *testing.T) {
					procs(t, eng.procs)
					noGC(t)
					w := compress.NewWriter(context.Background(), tc.codec, io.Discard, allocChunk, eng.workers)
					defer w.Close()
					// Warm the job pool, the codec's encoder pool, and every
					// buffer to its steady-state capacity.
					for i := 0; i < allocWarm; i++ {
						if _, err := w.Write(src); err != nil {
							t.Fatal(err)
						}
					}
					got := mallocsPer(allocWindow, func() {
						if _, err := w.Write(src); err != nil {
							t.Fatal(err)
						}
					})
					if got > allocSlack {
						t.Errorf("steady-state compress of one chunk: %.2f allocs, want 0", got)
					}
				})
			}
		})
	}
}

func TestParallelReaderChunkAllocs(t *testing.T) {
	const chunks = allocWarm + allocWindow + 1
	src := allocData(allocChunk)
	for name, tc := range allocCases() {
		t.Run(name, func(t *testing.T) {
			var stream bytes.Buffer
			w := compress.NewWriter(context.Background(), tc.codec, &stream, allocChunk, 1)
			for i := 0; i < chunks; i++ {
				if _, err := w.Write(src); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			for _, eng := range allocEngines {
				t.Run(eng.name, func(t *testing.T) {
					procs(t, eng.procs)
					noGC(t)
					r := compress.NewReader(context.Background(), tc.codec, bytes.NewReader(stream.Bytes()), compress.DecodeLimits{}, eng.workers)
					defer r.Close()
					buf := make([]byte, allocChunk)
					readChunk := func() {
						if _, err := io.ReadFull(r, buf); err != nil {
							t.Fatal(err)
						}
					}
					// Warm-up: cycle every pooled slot to steady-state
					// capacity.
					for i := 0; i < allocWarm; i++ {
						readChunk()
					}
					got := mallocsPer(allocWindow, readChunk)
					if got > tc.decAllow+allocSlack {
						t.Errorf("steady-state decompress of one chunk: %.2f allocs, want <= %.0f", got, tc.decAllow)
					}
				})
			}
		})
	}
}
