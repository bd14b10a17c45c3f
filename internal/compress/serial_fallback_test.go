package compress

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"testing"
)

// One worker runs every chunk inline: the pool machinery is skipped
// entirely, both when workers=1 is explicit and when workers<=0 resolves
// to GOMAXPROCS(0)==1 (the 1-CPU container case). With real CPUs and
// workers>1 the pool runs.
func TestParallelReaderSerialFallbackEngages(t *testing.T) {
	stream := writeSerial(t, passthrough{}, parallelData(8<<10), 1024)

	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)

	r := NewReader(context.Background(), passthrough{}, bytes.NewReader(stream), DecodeLimits{}, 1)
	if !r.Inline() {
		t.Fatal("workers=1 did not run inline")
	}
	r.Close()

	r = NewReader(context.Background(), passthrough{}, bytes.NewReader(stream), DecodeLimits{}, 2)
	if r.Inline() {
		t.Fatal("workers=2 with real CPUs ran inline; the pool should run")
	}
	r.Close()

	runtime.GOMAXPROCS(1)
	r = NewReader(context.Background(), passthrough{}, bytes.NewReader(stream), DecodeLimits{}, 0)
	if !r.Inline() {
		t.Fatal("workers=0 under GOMAXPROCS(1) did not run inline")
	}
	r.Close()
}

// The inline path is observationally identical to the pool: same bytes,
// same post-EOF stickiness, same read-after-Close error, same
// cancellation. (The alloc win it buys is pinned by
// TestParallelReaderChunkAllocs, whose workers=1 reader runs this path.)
func TestParallelReaderSerialFallbackBehaves(t *testing.T) {
	noLeaks(t)
	data := parallelData(64 << 10)
	stream := writeParallel(t, passthrough{}, data, 1024, 4)

	r := NewReader(context.Background(), passthrough{}, bytes.NewReader(stream), DecodeLimits{}, 1)
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("ReadAll inline: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("inline path decoded %d bytes, want %d identical", len(got), len(data))
	}
	// Post-EOF reads stay io.EOF, as on the pool path.
	if _, err := r.Read(make([]byte, 8)); err != io.EOF {
		t.Fatalf("post-EOF Read err = %v, want io.EOF", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close after EOF: %v", err)
	}

	// Close before EOF poisons subsequent reads with the same error the
	// pool path uses.
	r = NewReader(context.Background(), passthrough{}, bytes.NewReader(stream), DecodeLimits{}, 1)
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := r.Read(make([]byte, 8)); err == nil || err.Error() != "compress: read after Close" {
		t.Fatalf("read-after-Close err = %v, want the canonical error", err)
	}

	// A cancelled context surfaces before any byte is produced.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r = NewReader(ctx, passthrough{}, bytes.NewReader(stream), DecodeLimits{}, 1)
	defer r.Close()
	if _, err := r.Read(make([]byte, 8)); err != context.Canceled {
		t.Fatalf("cancelled-context Read err = %v, want context.Canceled", err)
	}

	// Truncated input surfaces the shared frame-error taxonomy, not a bare
	// io error, exactly as the pool path does.
	r = NewReader(context.Background(), passthrough{}, bytes.NewReader(stream[:len(stream)-3]), DecodeLimits{}, 1)
	defer r.Close()
	if _, err := io.ReadAll(r); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated stream err = %v, want ErrTruncated", err)
	}
}
