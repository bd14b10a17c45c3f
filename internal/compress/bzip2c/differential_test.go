package bzip2c

import (
	"bytes"
	"compress/bzip2"
	"fmt"
	"io"
	"os/exec"
	"testing"

	"positbench/internal/compress/codectest"
)

// Differential tests against independent bzip2 decoders: the standard
// library's compress/bzip2 and, when installed, the reference bzip2 binary.
// The compat codec emits the real .bz2 container from the registry codec's
// own block stages (MTF and RUNA/RUNB coding, trainTables, writeSelectors,
// writeSymbols), so every stream it produces must decode bit-exactly with
// both, at every level and over every differential input family, and a
// defect in those shared stages fails here as well as in the registry
// codec's roundtrips. The reverse direction (a stdlib-produced .bz2 into
// our decoder) is inherently covered because CompatCodec.Decompress *is*
// the stdlib decoder, and the stdlib ships no bzip2 writer to cross-produce
// streams with.

func TestDifferentialCompatToStdlib(t *testing.T) {
	for _, level := range []int{1, 9} {
		c := NewCompat(level)
		for _, in := range codectest.DifferentialInputs() {
			in, level := in, level
			t.Run(fmt.Sprintf("L%d/%s", level, in.Name), func(t *testing.T) {
				comp, err := c.Compress(in.Data)
				if err != nil {
					t.Fatal(err)
				}
				back, err := io.ReadAll(bzip2.NewReader(bytes.NewReader(comp)))
				if err != nil {
					t.Fatalf("level %d: stdlib decode: %v", level, err)
				}
				if len(in.Data) == 0 {
					// A .bz2 stream with zero blocks decodes to nothing.
					if len(back) != 0 {
						t.Fatalf("empty input decoded to %d bytes", len(back))
					}
					return
				}
				if !bytes.Equal(back, in.Data) {
					t.Fatalf("level %d: stdlib decoded %d bytes, want %d", level, len(back), len(in.Data))
				}
			})
		}
	}
}

// TestCompatAgainstReferenceTool decodes the compat codec's output with the
// reference bzip2 binary when one is on PATH; skipped otherwise.
func TestCompatAgainstReferenceTool(t *testing.T) {
	bin, err := exec.LookPath("bzip2")
	if err != nil {
		t.Skip("bzip2 binary not installed")
	}
	for _, level := range []int{1, 9} {
		c := NewCompat(level)
		for _, in := range codectest.DifferentialInputs() {
			t.Run(fmt.Sprintf("L%d/%s", level, in.Name), func(t *testing.T) {
				comp, err := c.Compress(in.Data)
				if err != nil {
					t.Fatal(err)
				}
				cmd := exec.Command(bin, "-d", "-c")
				cmd.Stdin = bytes.NewReader(comp)
				back, err := cmd.Output()
				if err != nil {
					t.Fatalf("reference bzip2 rejected our stream: %v", err)
				}
				if !bytes.Equal(back, in.Data) {
					t.Fatalf("reference bzip2 decoded %d bytes, want %d", len(back), len(in.Data))
				}
			})
		}
	}
}

// The native codec and the compat codec implement the same pipeline in
// different containers; on identical input their decompressed outputs must
// agree with each other (and the original) even though the bytes differ.
func TestDifferentialNativeVsCompat(t *testing.T) {
	native, compat := New(), NewCompat(9)
	for _, in := range codectest.DifferentialInputs() {
		in := in
		t.Run(in.Name, func(t *testing.T) {
			nc, err := native.Compress(in.Data)
			if err != nil {
				t.Fatal(err)
			}
			nb, err := native.Decompress(nc)
			if err != nil {
				t.Fatal(err)
			}
			cc, err := compat.Compress(in.Data)
			if err != nil {
				t.Fatal(err)
			}
			cb, err := compat.Decompress(cc)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(nb, in.Data) || !bytes.Equal(cb, in.Data) {
				t.Fatalf("pipelines disagree: native %d bytes, compat %d bytes, want %d",
					len(nb), len(cb), len(in.Data))
			}
		})
	}
}
