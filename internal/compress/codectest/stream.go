package codectest

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"testing"

	"positbench/internal/compress"
)

// StreamEquivalence asserts that the chunk engine behaves the same for
// codec c at every worker count:
//
//   - the stream written at 2 and 4 workers is byte-identical to the one
//     written at 1 worker, which runs each chunk inline, for every tested
//     chunk size (ordering guarantee);
//   - the reader reproduces the data at 1, 2 and 4 workers;
//   - on fault-injected streams (truncations, bit flips) the readers at 1
//     and 4 workers agree on success vs failure, on the delivered prefix,
//     and on the error taxonomy class (first-error-wins).
func StreamEquivalence(t *testing.T, c compress.Codec) {
	t.Helper()
	inputs := []struct {
		name string
		data []byte
	}{
		{"Empty", nil},
		{"OneByte", []byte{42}},
		{"Smooth", smoothFloatField(12 << 10)}, // 48 KiB of float structure
		{"Random", randomBytes(32<<10, 21)},
		{"Adversarial", runsAndNoise(32<<10, 22)},
	}
	workerCounts := []int{1, 2, 4}
	for _, in := range inputs {
		in := in
		t.Run(in.name, func(t *testing.T) {
			for _, chunk := range []int{8 << 10, 13000} {
				stream := writeStream(t, c, in.data, chunk, 1)
				for _, w := range workerCounts[1:] {
					if got := writeStream(t, c, in.data, chunk, w); !bytes.Equal(got, stream) {
						t.Fatalf("chunk=%d workers=%d: stream differs from one worker's (%d vs %d bytes)",
							chunk, w, len(got), len(stream))
					}
				}
				for _, w := range workerCounts {
					r := compress.NewReader(context.Background(), c, bytes.NewReader(stream), compress.DecodeLimits{}, w)
					back, err := io.ReadAll(r)
					r.Close()
					if err != nil {
						t.Fatalf("chunk=%d workers=%d: read: %v", chunk, w, err)
					}
					if !bytes.Equal(back, in.data) {
						t.Fatalf("chunk=%d workers=%d: read mismatch", chunk, w)
					}
				}
			}
		})
	}
	t.Run("FaultEquivalence", func(t *testing.T) { streamFaultEquivalence(t, c) })
}

// streamFaultEquivalence corrupts a small multi-chunk stream and checks
// that the readers at 1 and 4 workers fail identically.
func streamFaultEquivalence(t *testing.T, c compress.Codec) {
	t.Helper()
	data := smoothFloatField(2 << 10) // 8 KiB over 2 KiB chunks -> 4 chunks
	stream := writeStream(t, c, data, 2<<10, 1)
	lim := faultLimits(len(data))

	read := func(mut []byte, workers int) ([]byte, error) {
		r := compress.NewReader(context.Background(), c, bytes.NewReader(mut), lim, workers)
		defer r.Close()
		return io.ReadAll(r)
	}
	check := func(desc string, mut []byte) {
		oneOut, oneErr := read(mut, 1)
		poolOut, poolErr := read(mut, 4)
		if (oneErr == nil) != (poolErr == nil) {
			t.Fatalf("%s: 1 worker err %v, 4 workers err %v", desc, oneErr, poolErr)
		}
		if !bytes.Equal(oneOut, poolOut) {
			t.Fatalf("%s: 1 worker delivered %d bytes, 4 workers %d", desc, len(oneOut), len(poolOut))
		}
		for _, sentinel := range []error{compress.ErrCorrupt, compress.ErrTruncated, compress.ErrLimitExceeded} {
			if errors.Is(oneErr, sentinel) != errors.Is(poolErr, sentinel) {
				t.Fatalf("%s: taxonomy mismatch for %v: 1 worker %v, 4 workers %v", desc, sentinel, oneErr, poolErr)
			}
		}
	}

	rng := rand.New(rand.NewSource(0xfa17))
	for i := 0; i < 10; i++ {
		cut := rng.Intn(len(stream))
		check("truncation", stream[:cut])
	}
	for i := 0; i < 24; i++ {
		pos := rng.Intn(8 * len(stream))
		mut := append([]byte(nil), stream...)
		mut[pos/8] ^= 1 << uint(pos%8)
		check("bit flip", mut)
	}
}

// writeStream compresses data through the chunk engine at the given
// worker count.
func writeStream(t *testing.T, c compress.Codec, data []byte, chunk, workers int) []byte {
	t.Helper()
	var sink bytes.Buffer
	w := compress.NewWriter(context.Background(), c, &sink, chunk, workers)
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return sink.Bytes()
}

func randomBytes(n int, seed int64) []byte {
	buf := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(buf)
	return buf
}

// runsAndNoise interleaves long runs with noise bursts, the stress shape
// the conformance suite uses.
func runsAndNoise(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	var buf []byte
	for len(buf) < n {
		if rng.Intn(3) == 0 {
			chunk := make([]byte, rng.Intn(100)+1)
			rng.Read(chunk)
			buf = append(buf, chunk...)
		} else {
			buf = append(buf, bytes.Repeat([]byte{byte(rng.Intn(4))}, rng.Intn(500)+1)...)
		}
	}
	return buf[:n]
}
