package lc

import (
	"fmt"
	"testing"
)

// Per-component throughput: forward and inverse MB/s for every stage in
// the library, on smooth float data.
func BenchmarkComponentForward(b *testing.B) {
	src := floatField(1 << 16)
	for _, c := range Components() {
		b.Run(c.Name(), func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				if _, err := c.Forward(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkComponentInverse(b *testing.B) {
	src := floatField(1 << 16)
	for _, c := range Components() {
		fwd, err := c.Forward(src)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.Name(), func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				if _, err := c.Inverse(fwd, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func ExamplePipeline() {
	p, err := NewPipeline("DIFFMS", "RARE", "RAZE")
	if err != nil {
		panic(err)
	}
	fmt.Println(p)
	// Output: DIFFMS|RARE|RAZE
}
