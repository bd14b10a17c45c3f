// Package codectest provides a conformance suite run against every codec:
// roundtrip correctness on structured and adversarial inputs, corruption
// rejection, and compression-effectiveness sanity floors.
package codectest

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"sync"
	"testing"

	"positbench/internal/compress"
)

// exercised records, per test binary, the codec names Run has been invoked
// on. The registry meta-test uses it to fail if a codec is registered
// without ever facing this suite — a new codec cannot silently skip the
// fault-injection / stream-equivalence wall.
var (
	exercisedMu sync.Mutex
	exercised   = map[string]bool{}
)

// Exercised returns a snapshot of the codec names Run has covered so far in
// this test binary.
func Exercised() map[string]bool {
	exercisedMu.Lock()
	defer exercisedMu.Unlock()
	out := make(map[string]bool, len(exercised))
	for k, v := range exercised {
		out[k] = v
	}
	return out
}

// Run exercises the full conformance suite on c.
func Run(t *testing.T, c compress.Codec) {
	t.Helper()
	exercisedMu.Lock()
	exercised[c.Name()] = true
	exercisedMu.Unlock()
	t.Run("Empty", func(t *testing.T) { roundtrip(t, c, nil) })
	t.Run("OneByte", func(t *testing.T) { roundtrip(t, c, []byte{42}) })
	t.Run("AllSame", func(t *testing.T) { roundtrip(t, c, bytes.Repeat([]byte{7}, 10000)) })
	t.Run("AllBytes", func(t *testing.T) {
		all := make([]byte, 256)
		for i := range all {
			all[i] = byte(i)
		}
		roundtrip(t, c, bytes.Repeat(all, 40))
	})
	t.Run("Random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		buf := make([]byte, 65536)
		rng.Read(buf)
		roundtrip(t, c, buf)
	})
	t.Run("Text", func(t *testing.T) {
		txt := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog. "), 2000)
		n := roundtrip(t, c, txt)
		if n >= len(txt) {
			t.Errorf("repetitive text did not compress: %d -> %d", len(txt), n)
		}
	})
	t.Run("FloatField", func(t *testing.T) {
		// Byte-oriented LZ without an entropy stage (lz4) legitimately
		// cannot compress smooth float data — the paper's own result — so
		// only bound the expansion here.
		data := smoothFloatField(1 << 14)
		n := roundtrip(t, c, data)
		if n > len(data)+len(data)/64+64 {
			t.Errorf("smooth float field expanded too much: %d -> %d", len(data), n)
		}
	})
	t.Run("RunsAndNoise", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		var buf []byte
		for len(buf) < 100000 {
			if rng.Intn(3) == 0 {
				chunk := make([]byte, rng.Intn(100)+1)
				rng.Read(chunk)
				buf = append(buf, chunk...)
			} else {
				buf = append(buf, bytes.Repeat([]byte{byte(rng.Intn(4))}, rng.Intn(500)+1)...)
			}
		}
		roundtrip(t, c, buf)
	})
	t.Run("Quick", func(t *testing.T) {
		rng := rand.New(rand.NewSource(4))
		for trial := 0; trial < 25; trial++ {
			n := rng.Intn(5000)
			buf := make([]byte, n)
			switch trial % 3 {
			case 0:
				rng.Read(buf)
			case 1:
				for i := range buf {
					buf[i] = byte(rng.Intn(3))
				}
			case 2:
				for i := range buf {
					buf[i] = byte(i / 7)
				}
			}
			roundtrip(t, c, buf)
		}
	})
	t.Run("Streaming", func(t *testing.T) {
		data := smoothFloatField(1 << 13)
		var sink bytes.Buffer
		w := compress.NewWriter(context.Background(), c, &sink, 1<<13, 1) // several chunks
		if _, err := w.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		back, err := io.ReadAll(compress.NewReader(context.Background(), c, &sink, compress.DecodeLimits{}, 1))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, data) {
			t.Fatal("streaming roundtrip mismatch")
		}
	})
	t.Run("TruncatedInput", func(t *testing.T) {
		data := smoothFloatField(1 << 10)
		comp, err := c.Compress(data)
		if err != nil {
			t.Fatal(err)
		}
		for _, cut := range []int{0, 1, len(comp) / 2, len(comp) - 1} {
			if cut >= len(comp) {
				continue
			}
			if back, err := c.Decompress(comp[:cut]); err == nil && bytes.Equal(back, data) {
				t.Errorf("truncation to %d bytes silently decoded to the original", cut)
			}
		}
	})
	t.Run("FaultInjection", func(t *testing.T) { FaultInjection(t, c) })
	t.Run("StreamEquivalence", func(t *testing.T) { StreamEquivalence(t, c) })
	t.Run("RangeEquivalence", func(t *testing.T) { RangeEquivalence(t, c) })
}

func roundtrip(t *testing.T, c compress.Codec, src []byte) int {
	t.Helper()
	n, err := compress.Roundtrip(c, src)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// smoothFloatField builds a little-endian float32 stream of a smooth 1-D
// field, the structure scientific inputs share.
func smoothFloatField(n int) []byte {
	out := make([]byte, 4*n)
	for i := 0; i < n; i++ {
		v := float32(math.Sin(float64(i)/50) + 2)
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return out
}
