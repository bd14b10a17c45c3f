package compress_test

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"testing"

	"positbench/internal/compress"
	"positbench/internal/compress/all"
	"positbench/internal/sweep"
)

// Serial-vs-parallel stream benchmarks over every registry codec, on the
// sweep package's synthetic float field. `make bench-smoke` races one pass
// of them on a small input; speed claims come from the perfbench module
// and the per-core gate from `make bench-scaling`.

var benchBytes = flag.Int("bench-bytes", 4<<20, "benchmark input size; `make bench-smoke` shrinks it to run under -race")

const (
	benchChunk   = 1 << 20
	benchWorkers = 4
)

func BenchmarkStreamCompress(b *testing.B) {
	data := sweep.SyntheticInput(*benchBytes)
	for _, c := range all.Raw() {
		c := c
		b.Run(c.Name()+"/serial", func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			var dst bytes.Buffer
			for i := 0; i < b.N; i++ {
				dst.Reset()
				w := compress.NewWriter(c, &dst, benchChunk)
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
				w := compress.NewParallelWriter(c, &dst, benchChunk, benchWorkers)
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
	data := sweep.SyntheticInput(*benchBytes)
	for _, c := range all.Raw() {
		c := c
		var enc bytes.Buffer
		w := compress.NewWriter(c, &enc, benchChunk)
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
				r := compress.NewReader(c, bytes.NewReader(stream))
				if _, err := io.ReadFull(r, out); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%s/parallel-w%d", c.Name(), benchWorkers), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				r := compress.NewParallelReader(c, bytes.NewReader(stream), benchWorkers)
				if _, err := io.ReadFull(r, out); err != nil {
					r.Close()
					b.Fatal(err)
				}
				r.Close()
			}
		})
	}
}
