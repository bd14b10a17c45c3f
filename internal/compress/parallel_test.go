package compress

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// noLeaks fails the test if goroutines outlive the body. The runtime needs
// a moment to reap exiting goroutines, so the check retries briefly.
func noLeaks(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for {
			if runtime.NumGoroutine() <= before {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// parallelData builds a mildly compressible deterministic payload.
func parallelData(n int) []byte {
	rng := rand.New(rand.NewSource(42))
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(rng.Intn(7) * 36)
	}
	return buf
}

func writeParallel(t *testing.T, c Codec, data []byte, chunk, workers int) []byte {
	t.Helper()
	var sink bytes.Buffer
	w := NewWriter(context.Background(), c, &sink, chunk, workers)
	// Awkward piece sizes, as the stream tests use.
	rng := rand.New(rand.NewSource(int64(len(data))))
	rest := data
	for len(rest) > 0 {
		n := rng.Intn(1000) + 1
		if n > len(rest) {
			n = len(rest)
		}
		if _, err := w.Write(rest[:n]); err != nil {
			t.Fatal(err)
		}
		rest = rest[n:]
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	return sink.Bytes()
}

func writeSerial(t *testing.T, c Codec, data []byte, chunk int) []byte {
	t.Helper()
	var sink bytes.Buffer
	w := NewWriter(context.Background(), c, &sink, chunk, 1)
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return sink.Bytes()
}

// Every worker count must be byte-identical to one worker, which runs
// each chunk inline (ordering guarantee).
func TestParallelWriterMatchesSerial(t *testing.T) {
	noLeaks(t)
	for _, size := range []int{0, 1, 100, 4096, 100000} {
		data := parallelData(size)
		for _, chunk := range []int{1, 64, 4096, 0} {
			want := writeSerial(t, passthrough{}, data, chunk)
			for _, workers := range []int{2, 4, 8} {
				got := writeParallel(t, passthrough{}, data, chunk, workers)
				if !bytes.Equal(got, want) {
					t.Fatalf("size=%d chunk=%d workers=%d: stream differs from one worker's (%d vs %d bytes)",
						size, chunk, workers, len(got), len(want))
				}
			}
		}
	}
}

func TestParallelReaderMatchesSerial(t *testing.T) {
	noLeaks(t)
	for _, size := range []int{0, 1, 4096, 100000} {
		data := parallelData(size)
		stream := writeSerial(t, passthrough{}, data, 1024)
		for _, workers := range []int{1, 3, 8} {
			r := NewReader(context.Background(), passthrough{}, bytes.NewReader(stream), DecodeLimits{}, workers)
			back, err := io.ReadAll(r)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back, data) {
				t.Fatalf("size=%d workers=%d: parallel read mismatch", size, workers)
			}
			// Reads after EOF keep returning EOF.
			if _, err := r.Read(make([]byte, 1)); err != io.EOF {
				t.Fatalf("post-EOF read: %v", err)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestParallelReaderSmallReads(t *testing.T) {
	noLeaks(t)
	payload := []byte("the parallel reader must survive one-byte reads as well")
	stream := writeSerial(t, passthrough{}, payload, 16)
	r := NewReader(context.Background(), passthrough{}, bytes.NewReader(stream), DecodeLimits{}, 4)
	var got []byte
	one := make([]byte, 1)
	for {
		n, err := r.Read(one)
		if n > 0 {
			got = append(got, one[0])
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("got %q", got)
	}
}

func TestParallelWriterWriteAfterClose(t *testing.T) {
	noLeaks(t)
	var sink bytes.Buffer
	w := NewWriter(context.Background(), passthrough{}, &sink, 16, 2)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte{1}); err == nil {
		t.Fatal("write after close accepted")
	}
}

// brokenCompress fails on the chunk whose first byte is 0xFF.
type brokenCompress struct{ passthrough }

func (brokenCompress) Compress(src []byte) ([]byte, error) {
	if len(src) > 0 && src[0] == 0xFF {
		return nil, fmt.Errorf("brokenCompress: poisoned chunk")
	}
	return passthrough{}.Compress(src)
}

// A compression failure mid-stream surfaces on a later Write or at Close,
// is sticky, and leaves no goroutines behind.
func TestParallelWriterCompressError(t *testing.T) {
	noLeaks(t)
	var sink bytes.Buffer
	w := NewWriter(context.Background(), brokenCompress{}, &sink, 4, 3)
	data := bytes.Repeat([]byte{1}, 40)
	data[8] = 0xFF // poisons the third chunk
	var firstErr error
	if _, err := w.Write(data); err != nil {
		firstErr = err
	}
	if err := w.Close(); firstErr == nil {
		firstErr = err
	}
	if firstErr == nil {
		t.Fatal("compression failure never surfaced")
	}
	if err := w.Close(); err == nil {
		t.Fatal("error not sticky across Close")
	}
}

// failNth fails decompression of the nth chunk it sees with ErrCorrupt.
type failNth struct {
	passthrough
	bad byte
}

func (f failNth) Decompress(comp []byte) ([]byte, error) {
	if len(comp) > 1 && comp[1] == f.bad {
		return nil, Errorf(ErrCorrupt, "failNth: poisoned chunk")
	}
	return f.passthrough.Decompress(comp)
}

// A decode failure on chunk k must surface after chunks < k were delivered
// intact (first-error-wins in stream order), even though later chunks are
// being decompressed concurrently; the error keeps its taxonomy, and the
// pool must wind down.
func TestParallelReaderFirstErrorWins(t *testing.T) {
	noLeaks(t)
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i)
	}
	stream := writeSerial(t, passthrough{}, data, 8) // chunks start at 0,8,16,...
	codec := failNth{bad: 24}                        // the chunk at 24 is poisoned
	for _, workers := range []int{1, 2, 8} {
		r := NewReader(context.Background(), codec, bytes.NewReader(stream), DecodeLimits{}, workers)
		back, err := io.ReadAll(r)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("workers=%d: got %v, want ErrCorrupt", workers, err)
		}
		if !bytes.Equal(back, data[:24]) {
			t.Fatalf("workers=%d: delivered %d bytes before the error, want the 24 before the poisoned chunk",
				workers, len(back))
		}
		// The error is sticky.
		if _, err2 := r.Read(make([]byte, 1)); err2 != err {
			t.Fatalf("second read: %v, want the original error", err2)
		}
	}
}

// Abandoning a stream mid-read via Close must release the read-ahead pool.
func TestParallelReaderEarlyClose(t *testing.T) {
	noLeaks(t)
	data := parallelData(100000)
	stream := writeSerial(t, passthrough{}, data, 512) // many chunks
	r := NewReader(context.Background(), passthrough{}, bytes.NewReader(stream), DecodeLimits{}, 4)
	buf := make([]byte, 100)
	if _, err := r.Read(buf); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := r.Read(buf); err == nil {
		t.Fatal("read after Close succeeded")
	}
}

func TestParallelReaderTruncatedAndBomb(t *testing.T) {
	noLeaks(t)
	data := parallelData(1000)
	stream := writeSerial(t, passthrough{}, data, 64)
	t.Run("Truncated", func(t *testing.T) {
		for _, cut := range []int{len(stream) - 1, len(stream) / 2, 1, 0} {
			r := NewReader(context.Background(), passthrough{}, bytes.NewReader(stream[:cut]), DecodeLimits{}, 4)
			if _, err := io.ReadAll(r); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("truncation at %d: %v, want an ErrCorrupt-class error", cut, err)
			}
		}
	})
	t.Run("ChunkLengthBomb", func(t *testing.T) {
		bomb := binary.AppendUvarint(nil, 1<<60)
		bomb = append(bomb, 0xA5, 1, 2, 3)
		r := NewReader(context.Background(), passthrough{}, bytes.NewReader(bomb), DecodeLimits{MaxOutputBytes: 1 << 20}, 4)
		if _, err := io.ReadAll(r); !errors.Is(err, ErrLimitExceeded) {
			t.Fatalf("chunk bomb: %v, want ErrLimitExceeded", err)
		}
	})
}

// blockingReader yields one frame then blocks until released; Close on the
// Reader must not wait for the underlying source.
type blockingReader struct {
	data    []byte
	off     int
	release chan struct{}
}

func (b *blockingReader) Read(p []byte) (int, error) {
	if b.off < len(b.data) {
		n := copy(p, b.data[b.off:])
		b.off += n
		return n, nil
	}
	<-b.release
	return 0, io.EOF
}

func TestParallelReaderCloseWithSlowSource(t *testing.T) {
	// The fetcher may be parked inside src.Read; Close cannot interrupt
	// that (io.Reader has no cancellation), but once the source returns,
	// everything must wind down. Verify no deadlock and eventual cleanup.
	data := parallelData(300)
	stream := writeSerial(t, passthrough{}, data, 100)
	src := &blockingReader{data: stream[:len(stream)-1], release: make(chan struct{})}
	r := NewReader(context.Background(), passthrough{}, src, DecodeLimits{}, 2)
	buf := make([]byte, 50)
	if _, err := r.Read(buf); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { r.Close(); close(done) }()
	close(src.release)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close deadlocked on a slow source")
	}
}
