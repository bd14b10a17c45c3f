package lc

import (
	"errors"
	"fmt"
	"testing"

	"positbench/internal/bitio"
	"positbench/internal/compress"
	"positbench/internal/compress/codectest"
)

// libraryCodec runs every component once, in ID order, so one roundtrip
// exercises every Forward and every Inverse.
func libraryCodec() *Codec { return NewCodec(Pipeline{Stages: Components()}) }

// hugeWordsFrame is a 15-byte lc.Codec frame: one stage, the component
// with wire ID id, declaring 2^62 words and a 3-byte tail, followed by the
// tail. A stage that multiplies the declared count before checking it
// wraps to the 3 bytes that are really there.
func hugeWordsFrame(id byte) []byte {
	frame := []byte{1, id}
	frame = bitio.PutUvarint(frame, 1<<62)
	frame = bitio.PutUvarint(frame, 3)
	return append(frame, 1, 2, 3)
}

func componentID(t testing.TB, name string) byte {
	t.Helper()
	for id, c := range Components() {
		if c.Name() == name {
			return byte(id)
		}
	}
	t.Fatalf("no component %s", name)
	return 0
}

// TestHugeDeclaredWordCount: BIT and BYTE must reject a declared word
// count whose byte size overflows, not panic on it.
func TestHugeDeclaredWordCount(t *testing.T) {
	for _, name := range []string{"BIT", "BYTE", "RZE", "RARE", "RAZE"} {
		t.Run(name, func(t *testing.T) {
			frame := hugeWordsFrame(componentID(t, name))
			err := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("panic: %v", r)
					}
				}()
				_, err = NewCodec(Pipeline{}).DecompressLimits(frame, compress.DecodeLimits{})
				return err
			}()
			if !errors.Is(err, compress.ErrCorrupt) {
				t.Fatalf("%d-byte frame declaring 2^62 words: err = %v, want ErrCorrupt", len(frame), err)
			}
		})
	}
}

// TestHugeDeclaredTail: an RZE header declaring a tail longer than the
// stage's input is rejected before the output is allocated, also on the
// unbounded Invert path.
func TestHugeDeclaredTail(t *testing.T) {
	src := bitio.PutUvarint(nil, 0)
	src = bitio.PutUvarint(src, 1<<50)
	src = append(src, 0) // stored, empty occupancy bitmap
	p, err := NewPipeline("RZE")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invert(src); !errors.Is(err, compress.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func FuzzRoundtrip(f *testing.F) {
	codectest.FuzzRoundtrip(f, libraryCodec())
}

// FuzzDecompress is seeded with one valid single-stage stream per
// component and the overflowing BIT and BYTE frames. The frame header
// selects the stages, so this one target reaches every inverse.
func FuzzDecompress(f *testing.F) {
	src := goldenStreamInput()
	for _, c := range Components() {
		f.Add(goldenStream(f, c, src))
	}
	f.Add(hugeWordsFrame(componentID(f, "BIT")))
	f.Add(hugeWordsFrame(componentID(f, "BYTE")))
	codectest.FuzzDecompress(f, libraryCodec())
}
