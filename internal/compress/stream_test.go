package compress

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"
)

// passthrough is a trivial Codec for exercising the streaming layer.
type passthrough struct{}

func (passthrough) Name() string { return "pass" }
func (passthrough) Compress(src []byte) ([]byte, error) {
	out := append([]byte{0xA5}, src...) // marker so empty chunks are visible
	return out, nil
}
func (passthrough) Decompress(comp []byte) ([]byte, error) {
	if len(comp) < 1 || comp[0] != 0xA5 {
		return nil, io.ErrUnexpectedEOF
	}
	return append([]byte(nil), comp[1:]...), nil
}

func streamRoundtrip(t *testing.T, data []byte, chunk int) {
	t.Helper()
	var sink bytes.Buffer
	w := NewWriter(context.Background(), passthrough{}, &sink, chunk, 1)
	// Write in awkward piece sizes.
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
	back, err := io.ReadAll(NewReader(context.Background(), passthrough{}, &sink, DecodeLimits{}, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatalf("stream roundtrip: %d in, %d out", len(data), len(back))
	}
}

func TestStreamRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{0, 1, 100, 4096, 100000} {
		data := make([]byte, size)
		rng.Read(data)
		for _, chunk := range []int{1, 64, 4096, 0} {
			streamRoundtrip(t, data, chunk)
		}
	}
}

func TestStreamWriteAfterClose(t *testing.T) {
	var sink bytes.Buffer
	w := NewWriter(context.Background(), passthrough{}, &sink, 16, 1)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte{1}); err == nil {
		t.Fatal("write after close accepted")
	}
}

func TestStreamTruncated(t *testing.T) {
	var sink bytes.Buffer
	w := NewWriter(context.Background(), passthrough{}, &sink, 16, 1)
	w.Write(bytes.Repeat([]byte{7}, 100))
	w.Close()
	full := sink.Bytes()
	// Cut off the terminator and part of the last chunk.
	for _, cut := range []int{len(full) - 1, len(full) / 2, 1} {
		r := NewReader(context.Background(), passthrough{}, bytes.NewReader(full[:cut]), DecodeLimits{}, 1)
		if _, err := io.ReadAll(r); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestStreamEmptyInput(t *testing.T) {
	r := NewReader(context.Background(), passthrough{}, bytes.NewReader(nil), DecodeLimits{}, 1)
	if _, err := io.ReadAll(r); err == nil {
		t.Fatal("empty stream accepted (missing terminator)")
	}
}

func TestStreamSmallReads(t *testing.T) {
	var sink bytes.Buffer
	w := NewWriter(context.Background(), passthrough{}, &sink, 32, 1)
	payload := []byte("the streaming layer must survive one-byte reads and writes")
	w.Write(payload)
	w.Close()
	r := NewReader(context.Background(), passthrough{}, &sink, DecodeLimits{}, 1)
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
	// Reads after EOF keep returning EOF.
	if _, err := r.Read(one); err != io.EOF {
		t.Fatalf("post-EOF read: %v", err)
	}
}

// failing decompresses nothing: every chunk decode fails.
type failing struct{ passthrough }

func (failing) Decompress(comp []byte) ([]byte, error) {
	return nil, Errorf(ErrCorrupt, "failing: always")
}

func TestStreamDecompressFailure(t *testing.T) {
	var sink bytes.Buffer
	w := NewWriter(context.Background(), passthrough{}, &sink, 16, 1)
	w.Write([]byte("payload that will not decode"))
	w.Close()
	r := NewReader(context.Background(), failing{}, &sink, DecodeLimits{}, 1)
	_, err := io.ReadAll(r)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("decode failure surfaced as %v, want ErrCorrupt", err)
	}
	// The error is sticky across subsequent reads.
	if _, err2 := r.Read(make([]byte, 1)); err2 != err {
		t.Fatalf("second read: %v, want the original error", err2)
	}
}

func TestStreamMismatchedLength(t *testing.T) {
	// A chunk whose uvarint prefix declares more bytes than the stream
	// holds must surface ErrTruncated, not hang or misdecode.
	var sink bytes.Buffer
	w := NewWriter(context.Background(), passthrough{}, &sink, 16, 1)
	w.Write([]byte("0123456789abcdef0123"))
	w.Close()
	full := sink.Bytes()
	mut := append([]byte(nil), full...)
	mut[0] += 40 // inflate the first chunk's declared length
	if _, err := io.ReadAll(NewReader(context.Background(), passthrough{}, bytes.NewReader(mut), DecodeLimits{}, 1)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("inflated chunk length: %v, want ErrTruncated", err)
	}
	// Deflating the prefix leaves trailing bytes that misparse; any error is
	// acceptable, silence is not.
	mut = append([]byte(nil), full...)
	mut[0] -= 5
	if back, err := io.ReadAll(NewReader(context.Background(), passthrough{}, bytes.NewReader(mut), DecodeLimits{}, 1)); err == nil {
		t.Fatalf("deflated chunk length silently decoded %d bytes", len(back))
	}
}

// TestStreamEmptyChunkBody: a prefix declaring an empty chunk body
// (uvarint 1) starts a chunk that fails to decode; it is not the stream
// terminator (uvarint 0), whether it opens the stream or follows a good
// chunk, inline and on the pool alike.
func TestStreamEmptyChunkBody(t *testing.T) {
	for _, stream := range [][]byte{
		{1, 0},
		{5, 0xA5, 'a', 'b', 'c', 1, 0},
	} {
		for _, workers := range []int{1, 4} {
			r := NewReader(context.Background(), passthrough{}, bytes.NewReader(stream), DecodeLimits{}, workers)
			_, err := io.ReadAll(r)
			r.Close()
			if err == nil {
				t.Errorf("workers=%d: reader accepted %v", workers, stream)
			}
		}
	}
}

func TestStreamChunkLengthBomb(t *testing.T) {
	// A forged 1 EiB chunk-length prefix must trip the limit check before
	// any allocation proportional to it.
	var stream []byte
	stream = binary.AppendUvarint(stream, 1<<60)
	stream = append(stream, 0xA5, 1, 2, 3)
	r := NewReader(context.Background(), passthrough{}, bytes.NewReader(stream), DecodeLimits{MaxOutputBytes: 1 << 20}, 1)
	if _, err := io.ReadAll(r); !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("chunk bomb: %v, want ErrLimitExceeded", err)
	}
}
