package compress

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// loopReader yields an endless cycle of data: a stream with no terminator,
// so only cancellation can end a read-ahead pool consuming it.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.data[l.off:])
	l.off = (l.off + n) % len(l.data)
	return n, nil
}

func TestParallelWriterContextCancel(t *testing.T) {
	noLeaks(t)
	ctx, cancel := context.WithCancel(context.Background())
	var sink bytes.Buffer
	w := NewWriter(ctx, &fakeCodec{}, &sink, 8, 2)
	if _, err := w.Write(parallelData(64)); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := w.Write([]byte{1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Write after cancel: %v, want context.Canceled", err)
	}
	if err := w.Close(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close after cancel: %v, want context.Canceled", err)
	}
	// The error is sticky across repeated Closes.
	if err := w.Close(); !errors.Is(err, context.Canceled) {
		t.Fatalf("second Close: %v, want context.Canceled", err)
	}
}

func TestParallelWriterContextCancelBeforeWrite(t *testing.T) {
	noLeaks(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var sink bytes.Buffer
	w := NewWriter(ctx, &fakeCodec{}, &sink, 8, 2)
	if _, err := w.Write([]byte{1, 2, 3}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Write on cancelled ctx: %v", err)
	}
	if err := w.Close(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close on cancelled ctx: %v", err)
	}
	if sink.Len() != 0 {
		t.Fatalf("cancelled writer emitted %d bytes", sink.Len())
	}
}

func TestParallelReaderContextCancel(t *testing.T) {
	noLeaks(t)
	// One valid frame, cycled forever: the stream never terminates, so the
	// pool can only be reclaimed by cancellation.
	comp, err := (&fakeCodec{}).Compress(parallelData(64))
	if err != nil {
		t.Fatal(err)
	}
	var one bytes.Buffer
	var hdr [binary.MaxVarintLen64]byte
	if _, err := writeFrame(&one, hdr[:], comp); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := NewReader(ctx, &fakeCodec{}, &loopReader{data: one.Bytes()}, DecodeLimits{}, 2)
	buf := make([]byte, 32)
	if _, err := r.Read(buf); err != nil {
		t.Fatalf("first read: %v", err)
	}
	cancel()
	// Read-ahead may hold a few already-decoded chunks; the cancellation
	// must surface within the pool's bounded buffering.
	for i := 0; i < 1000; i++ {
		if _, err = r.Read(buf); err != nil {
			break
		}
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Read after cancel: %v, want context.Canceled", err)
	}
	// Sticky.
	if _, err := r.Read(buf); !errors.Is(err, context.Canceled) {
		t.Fatalf("Read after error: %v, want context.Canceled", err)
	}
}

// TestParallelWriterCloseWithError checks the abort path serving handlers
// rely on: after a source error, nothing further reaches dst — no partial
// tail chunk, no terminator that would make a broken stream look complete.
func TestParallelWriterCloseWithError(t *testing.T) {
	defer noLeaks(t)
	var dst bytes.Buffer
	w := NewWriter(context.Background(), &fakeCodec{}, &dst, 1<<20, 2)
	if _, err := w.Write([]byte("partial chunk, never to be flushed")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("source exploded")
	if err := w.CloseWithError(boom); !errors.Is(err, boom) {
		t.Fatalf("CloseWithError returned %v, want %v", err, boom)
	}
	if dst.Len() != 0 {
		t.Fatalf("aborted writer emitted %d bytes, want 0", dst.Len())
	}
	// Idempotent: a second Close reports the same sticky error.
	if err := w.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close after abort returned %v, want %v", err, boom)
	}
}

// TestParallelWriterCloseWithErrorNil degrades to a normal Close.
func TestParallelWriterCloseWithErrorNil(t *testing.T) {
	defer noLeaks(t)
	var dst bytes.Buffer
	w := NewWriter(context.Background(), &fakeCodec{}, &dst, 8, 2)
	if _, err := w.Write([]byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := w.CloseWithError(nil); err != nil {
		t.Fatal(err)
	}
	if dst.Len() == 0 {
		t.Fatal("clean CloseWithError(nil) emitted nothing")
	}
}

func TestParallelReaderContextCleanEOF(t *testing.T) {
	noLeaks(t)
	// A context that is never cancelled must not change behaviour: the
	// stream round-trips and ends in io.EOF.
	data := parallelData(1 << 12)
	stream := writeParallel(t, &fakeCodec{}, data, 256, 3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := NewReader(ctx, &fakeCodec{}, bytes.NewReader(stream), DecodeLimits{}, 3)
	back, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatalf("roundtrip mismatch: %d in, %d out", len(data), len(back))
	}
}
