package compress_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"

	"positbench/internal/compress"
	"positbench/internal/compress/all"
)

// Stream benchmarks over every registry codec at one worker ("serial",
// every chunk inline) and at four, on a synthetic float field cut into
// four chunks, so the pool always has chunks to overlap. Run them by hand
// to compare the two on one machine:
//
//	go test -run '^$' -bench '^BenchmarkStream' -cpu 1,2 ./internal/compress
//
// `make bench-smoke` races one pass of them on a small input; speed claims
// come from the perfbench module.

var benchBytes = flag.Int("bench-bytes", 4<<20, "benchmark input size; `make bench-smoke` shrinks it to run under -race")

const benchWorkers = 4

// syntheticInput builds n bytes of smooth float32 field with light noise,
// the same flavour of data as the study's SDRBench-style inputs, so
// per-codec throughput is measured on realistic entropy.
func syntheticInput(n int) []byte {
	rng := rand.New(rand.NewSource(7))
	buf := make([]byte, 0, n)
	for i := 0; i < n/4; i++ {
		v := float32(math.Sin(float64(i)/97) + 0.01*rng.NormFloat64())
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
	}
	return buf
}

func BenchmarkStreamCompress(b *testing.B) {
	data := syntheticInput(*benchBytes)
	chunk := *benchBytes / 4 // 1 MiB chunks at the default size
	for _, c := range all.Raw() {
		c := c
		b.Run(c.Name()+"/serial", func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			var dst bytes.Buffer
			for i := 0; i < b.N; i++ {
				dst.Reset()
				w := compress.NewWriter(context.Background(), c, &dst, chunk, 1)
				if _, err := w.Write(data); err != nil {
					b.Fatal(err)
				}
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%s/parallel-w%d", c.Name(), benchWorkers), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			var dst bytes.Buffer
			for i := 0; i < b.N; i++ {
				dst.Reset()
				w := compress.NewWriter(context.Background(), c, &dst, chunk, benchWorkers)
				if _, err := w.Write(data); err != nil {
					b.Fatal(err)
				}
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamDecompress covers the read side of the same streams.
func BenchmarkStreamDecompress(b *testing.B) {
	data := syntheticInput(*benchBytes)
	chunk := *benchBytes / 4 // 1 MiB chunks at the default size
	for _, c := range all.Raw() {
		c := c
		var enc bytes.Buffer
		w := compress.NewWriter(context.Background(), c, &enc, chunk, 1)
		if _, err := w.Write(data); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		stream := enc.Bytes()
		out := make([]byte, len(data))
		b.Run(c.Name()+"/serial", func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				r := compress.NewReader(context.Background(), c, bytes.NewReader(stream), compress.DecodeLimits{}, 1)
				if _, err := io.ReadFull(r, out); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%s/parallel-w%d", c.Name(), benchWorkers), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				r := compress.NewReader(context.Background(), c, bytes.NewReader(stream), compress.DecodeLimits{}, benchWorkers)
				if _, err := io.ReadFull(r, out); err != nil {
					r.Close()
					b.Fatal(err)
				}
				r.Close()
			}
		})
	}
}
