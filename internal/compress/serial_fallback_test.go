package compress

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"testing"
)

// One worker engages the serial fallback: the scheduler machinery is
// skipped entirely, both when workers=1 is explicit and when workers<=0
// resolves to GOMAXPROCS(0)==1 (the 1-CPU container case the regression
// hit). With real CPUs and workers>1 the scheduler runs.
func TestParallelReaderSerialFallbackEngages(t *testing.T) {
	stream := writeSerial(t, passthrough{}, parallelData(8<<10), 1024)

	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)

	r := NewParallelReader(passthrough{}, bytes.NewReader(stream), 1)
	if r.serial == nil {
		t.Fatal("workers=1 did not engage the serial fallback")
	}
	r.Close()

	r = NewParallelReader(passthrough{}, bytes.NewReader(stream), 2)
	if r.serial != nil {
		t.Fatal("workers=2 with real CPUs engaged the serial fallback; the scheduler should run")
	}
	r.Close()

	runtime.GOMAXPROCS(1)
	r = NewParallelReader(passthrough{}, bytes.NewReader(stream), 0)
	if r.serial == nil {
		t.Fatal("workers=0 under GOMAXPROCS(1) did not engage the serial fallback")
	}
	r.Close()
}

// lightCodec is a passthrough that advertises a light decode path, standing
// in for the lz4/zstd/fpc class.
type lightCodec struct{ passthrough }

func (lightCodec) DecodeIsLight() bool { return true }

// On a 1-CPU host, extra workers cannot add CPU for ANY codec: the
// fallback must engage even when more workers were requested, light and
// heavy alike. The old policy kept heavy codecs on the pool there, and the
// measurements recorded in DESIGN §15 showed the cost: parallel decode at
// 0.90-0.98x of serial for bzip2/fpc32/fpc-posit at workers=4. With real
// CPUs available the hint changes nothing and the scheduler runs. (The
// per-registry-codec pin lives in TestSerialFallbackPolicyEveryRegistryCodec.)
func TestParallelReaderLightCodecFallback(t *testing.T) {
	stream := writeSerial(t, lightCodec{}, parallelData(8<<10), 1024)

	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	r := NewParallelReader(lightCodec{}, bytes.NewReader(stream), 4)
	if r.serial == nil {
		t.Fatal("light codec with workers=4 under GOMAXPROCS(1) did not engage the serial fallback")
	}
	r.Close()

	heavy := writeSerial(t, passthrough{}, parallelData(8<<10), 1024)
	r = NewParallelReader(passthrough{}, bytes.NewReader(heavy), 4)
	if r.serial == nil {
		t.Fatal("heavy codec with workers=4 under GOMAXPROCS(1) kept the scheduler; extra workers cannot add CPU on one core")
	}
	r.Close()

	runtime.GOMAXPROCS(2)
	r = NewParallelReader(lightCodec{}, bytes.NewReader(stream), 4)
	if r.serial != nil {
		t.Fatal("light codec with real CPUs available engaged the fallback; the scheduler should run")
	}
	r.Close()

	// And the fallback path must still decode correctly for the light
	// codec, workers>1 notwithstanding.
	runtime.GOMAXPROCS(1)
	r = NewParallelReader(lightCodec{}, bytes.NewReader(stream), 4)
	defer r.Close()
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, parallelData(8<<10)) {
		t.Fatal("light-codec fallback decoded wrong bytes")
	}
}

// The fallback is observationally identical to the pool: same bytes, same
// post-EOF stickiness, same read-after-Close error, same cancellation.
// (The alloc win it buys is pinned by TestParallelReaderChunkAllocs, whose
// workers=1 reader now runs through this path.)
func TestParallelReaderSerialFallbackBehaves(t *testing.T) {
	noLeaks(t)
	data := parallelData(64 << 10)
	stream := writeParallel(t, passthrough{}, data, 1024, 4)

	r := NewParallelReader(passthrough{}, bytes.NewReader(stream), 1)
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("ReadAll via fallback: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("fallback decoded %d bytes, want %d identical", len(got), len(data))
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
	r = NewParallelReader(passthrough{}, bytes.NewReader(stream), 1)
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := r.Read(make([]byte, 8)); err == nil || err.Error() != "compress: read after Close" {
		t.Fatalf("read-after-Close err = %v, want the canonical error", err)
	}

	// A cancelled context surfaces before any byte is produced.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r = NewParallelReaderContext(ctx, passthrough{}, bytes.NewReader(stream), DecodeLimits{}, 1)
	defer r.Close()
	if _, err := r.Read(make([]byte, 8)); err != context.Canceled {
		t.Fatalf("cancelled-context Read err = %v, want context.Canceled", err)
	}

	// Truncated input surfaces the shared frame-error taxonomy, not a bare
	// io error, exactly as the pool path does.
	r = NewParallelReader(passthrough{}, bytes.NewReader(stream[:len(stream)-3]), 1)
	defer r.Close()
	if _, err := io.ReadAll(r); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated stream err = %v, want ErrTruncated", err)
	}
}
