package lc

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"positbench/internal/posit"
	"positbench/internal/sdrbench"
)

var updateGolden = flag.Bool("update", false, "rewrite the LC wire-format golden fixtures")

// writeOrLoad rewrites testdata/name with got under -update, then returns
// the fixture's contents.
func writeOrLoad(t *testing.T, name string, got []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture %s (run with -update to create): %v", path, err)
	}
	return want
}

// goldenStudyInput is one study input at 2048 values, as the study
// serializes it: IEEE-754 binary32 and posit<32,3>, both little-endian.
// The sdrbench generators' float64 math is pinned on amd64; on a GOARCH
// whose compiler fuses multiply-adds (arm64, ppc64le, s390x, riscv64) a
// last-bit difference can change these bytes and with them the hashes.
func goldenStudyInput() (ieee, pos []byte) {
	spec, err := sdrbench.ByName("CLOUDf48.bin.f32")
	if err != nil {
		panic(err)
	}
	return studyInput(spec, 2048)
}

// studyInput generates spec at the given number of values in both of the
// study's encodings.
func studyInput(spec sdrbench.InputSpec, values int) (ieee, pos []byte) {
	floats := spec.Generate(values)
	return posit.EncodeFloat32LE(floats), posit.EncodeWordsLE(posit.Posit32e3.FromFloat32SliceWorkers(nil, floats, 1))
}

// goldenRagged is one word plus a 3-byte tail.
var goldenRagged = []byte{0x01, 0x80, 0xFF, 0x7F, 0x00, 0xAA, 0x55}

// TestComponentForwardGolden pins the wire ID and the byte layout of every
// component: one line per component in Components() order, with the
// SHA-256 of Forward on the study input in both encodings and on a ragged
// 7-byte input.
func TestComponentForwardGolden(t *testing.T) {
	ieee, pos := goldenStudyInput()
	var b strings.Builder
	b.WriteString("# id name sha256(Forward(ieee)) sha256(Forward(posit)) sha256(Forward(ragged7)); input CLOUDf48.bin.f32 at 2048 values\n")
	for id, c := range Components() {
		fmt.Fprintf(&b, "%d %s", id, c.Name())
		for _, src := range [][]byte{ieee, pos, goldenRagged} {
			fwd, err := c.Forward(src)
			if err != nil {
				t.Fatalf("%s: %v", c.Name(), err)
			}
			fmt.Fprintf(&b, " %x", sha256.Sum256(fwd))
		}
		b.WriteByte('\n')
	}
	got := []byte(b.String())
	want := writeOrLoad(t, "forward.golden", got)
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d: got %q, golden %q", i+1, gotLines[i], wantLines[i])
		}
	}
}

// goldenStreamInput is the first 1027 bytes of the study input's IEEE
// encoding: 256 words and a 3-byte tail.
func goldenStreamInput() []byte {
	ieee, _ := goldenStudyInput()
	return ieee[:4*256+3]
}

// goldenStream is the single-stage lc.Codec stream for component c.
func goldenStream(t testing.TB, c Component, src []byte) []byte {
	t.Helper()
	comp, err := NewCodec(Pipeline{Stages: []Component{c}}).Compress(src)
	if err != nil {
		t.Fatalf("%s: %v", c.Name(), err)
	}
	return comp
}

// TestCodecStreamGolden keeps one committed lc.Codec stream per component:
// each must still decode byte-exactly, and Compress must still produce it.
func TestCodecStreamGolden(t *testing.T) {
	src := goldenStreamInput()
	for id, c := range Components() {
		t.Run(c.Name(), func(t *testing.T) {
			got := goldenStream(t, c, src)
			want := writeOrLoad(t, fmt.Sprintf("streams/%02d_%s.lc", id, c.Name()), got)
			back, err := NewCodec(Pipeline{}).Decompress(want)
			if err != nil {
				t.Fatalf("decode of committed stream: %v", err)
			}
			if !bytes.Equal(back, src) {
				t.Fatalf("committed stream decodes to %d bytes that differ from the %d-byte input", len(back), len(src))
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("Compress drifted from the committed stream (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}
