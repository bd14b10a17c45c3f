package lz4c

import (
	"bytes"
	"encoding/binary"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"positbench/internal/compress/codectest"
)

func TestLegacyConformance(t *testing.T) {
	codectest.Run(t, NewLegacy())
}

func TestLegacyMagic(t *testing.T) {
	c := NewLegacy()
	comp, err := c.Compress([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint32(comp) != legacyMagic {
		t.Fatalf("magic: %x", comp[:4])
	}
	if _, err := c.Decompress([]byte{1, 2, 3, 4}); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := c.Decompress(nil); err == nil {
		t.Fatal("empty accepted")
	}
}

func TestLegacyMultiBlock(t *testing.T) {
	// >8 MiB forces two blocks. Use compressible data so this stays fast.
	data := bytes.Repeat([]byte("0123456789abcdef"), (9<<20)/16)
	c := NewLegacy()
	comp, err := c.Compress(data)
	if err != nil {
		t.Fatal(err)
	}
	back, err := c.Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("multi-block roundtrip failed")
	}
}

// TestLegacyAgainstReferenceTool cross-validates the legacy frame with the
// real lz4 binary both ways when one is installed; skipped otherwise. The
// binary decodes our encoder's output, and our decoder decodes the binary's
// output at fast, high and maximum (HC) levels, so the block decoder sees
// sequences another encoder chose.
func TestLegacyAgainstReferenceTool(t *testing.T) {
	lz4bin, err := exec.LookPath("lz4")
	if err != nil {
		t.Skip("lz4 binary not installed")
	}
	data := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog. "), 5000)
	comp, err := NewLegacy().Compress(data)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "x.lz4")
	if err := os.WriteFile(in, comp, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(lz4bin, "-d", "-c", in).Output()
	if err != nil {
		t.Fatalf("reference lz4 rejected our frame: %v", err)
	}
	if !bytes.Equal(out, data) {
		t.Fatalf("reference decode mismatch: %d vs %d bytes", len(out), len(data))
	}

	for _, level := range []string{"-1", "-9", "-12"} {
		for _, in := range codectest.DifferentialInputs() {
			t.Run(level+"/"+in.Name, func(t *testing.T) {
				cmd := exec.Command(lz4bin, "-l", level, "-c")
				cmd.Stdin = bytes.NewReader(in.Data)
				comp, err := cmd.Output()
				if err != nil {
					t.Fatalf("reference lz4 %s: %v", level, err)
				}
				back, err := NewLegacy().Decompress(comp)
				if err != nil {
					t.Fatalf("decoding lz4 %s output: %v", level, err)
				}
				if !bytes.Equal(back, in.Data) {
					t.Fatalf("decoded %d bytes of lz4 %s output, want %d", len(back), level, len(in.Data))
				}
			})
		}
	}
}

func FuzzLegacyRoundtrip(f *testing.F) {
	codectest.FuzzRoundtrip(f, NewLegacy())
}
