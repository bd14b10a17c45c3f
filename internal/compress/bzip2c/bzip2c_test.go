package bzip2c

import (
	"bytes"
	"math/rand"
	"testing"

	"positbench/internal/compress/codectest"
)

func TestConformance(t *testing.T) {
	codectest.Run(t, New())
}

// TestMultiBlockRoundtrip roundtrips inputs that a small block size turns
// into many blocks.
func TestMultiBlockRoundtrip(t *testing.T) {
	c := NewBlockSize(2048)
	inputs := map[string][]byte{
		"zeros":  make([]byte, 20<<10),
		"random": randomBytes(24<<10, 7),
		"runs":   bytes.Repeat([]byte{0, 0, 0, 1, 2, 2, 9}, 4000),
	}
	for name, data := range inputs {
		t.Run(name, func(t *testing.T) {
			comp, err := c.Compress(data)
			if err != nil {
				t.Fatalf("compress: %v", err)
			}
			back, err := c.Decompress(comp)
			if err != nil {
				t.Fatalf("decompress: %v", err)
			}
			if !bytes.Equal(back, data) {
				t.Fatal("round-trip mismatch")
			}
		})
	}
}

func randomBytes(n int, seed int64) []byte {
	buf := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(buf)
	return buf
}
