package all

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"positbench/internal/compress/bzip2c"
	"positbench/internal/posit"
	"positbench/internal/sdrbench"
)

var updateGolden = flag.Bool("update", false, "rewrite the codec output golden fixture")

// outputGoldenInput is one input of TestOutputGolden in both of the study's
// encodings: IEEE-754 binary32 and posit<32,3>, both little-endian.
type outputGoldenInput struct {
	name      string
	ieee, pos []byte
}

// outputGoldenInputs is every study input at 4096 values (16 KiB, the
// ingest chunk size), then AEROD at 262,144 values (1 MiB). RLE1 leaves
// AEROD's 1 MiB whole, so bzip2 codes it as two 900 kB blocks, and xz parses
// it over thousands of horizons.
func outputGoldenInputs() []outputGoldenInput {
	gen := func(spec sdrbench.InputSpec, values int) outputGoldenInput {
		floats := spec.Generate(values)
		return outputGoldenInput{
			name: fmt.Sprintf("%s@%d", spec.Name, values),
			ieee: posit.EncodeFloat32LE(floats),
			pos:  posit.EncodeWordsLE(posit.Posit32e3.FromFloat32SliceWorkers(nil, floats, 1)),
		}
	}
	var ins []outputGoldenInput
	for _, spec := range sdrbench.Inputs() {
		ins = append(ins, gen(spec, 4096))
	}
	aerod, err := sdrbench.ByName("AEROD_v_1_1800_3600.f32")
	if err != nil {
		panic(err)
	}
	return append(ins, gen(aerod, 1<<18))
}

// TestOutputGolden pins the bytes, not only the lengths, of every Raw()
// codec's Compress output and of the .bz2 writer bzip2c.NewCompat(9), which
// shares the bzip2 codec's block stages: one line per (codec, input,
// encoding) with the SHA-256 of the stream. TestStudySizesGolden in
// internal/core pins sizes, which a kernel change that keeps every length
// but moves bytes would pass; this fixture fails it. A change to any
// codec's output fails here until the fixture is regenerated with -update
// and the change says why.
//
// gzipc wraps the standard library's compress/flate, so its lines describe
// the Go toolchain the fixture was made with as well as this repository.
// The inputs come from the sdrbench generators, whose float64 math is
// pinned on amd64; on a GOARCH whose compiler fuses multiply-adds (arm64,
// ppc64le, s390x, riscv64) a last-bit difference can change an input and
// with it these hashes. The fixture then describes amd64, not a codec
// defect.
func TestOutputGolden(t *testing.T) {
	ins := outputGoldenInputs()
	codecs := append(Raw(), bzip2c.NewCompat(9))
	lines := make([][]string, len(codecs))
	var wg sync.WaitGroup
	errs := make([]error, len(codecs))
	for ci, c := range codecs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, in := range ins {
				for _, enc := range []struct {
					name string
					src  []byte
				}{{"ieee", in.ieee}, {"posit", in.pos}} {
					comp, err := c.Compress(enc.src)
					if err != nil {
						errs[ci] = fmt.Errorf("%s on %s/%s: %w", c.Name(), in.name, enc.name, err)
						return
					}
					lines[ci] = append(lines[ci], fmt.Sprintf("%s %s %s %x", c.Name(), in.name, enc.name, sha256.Sum256(comp)))
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	b.WriteString("# codec input@values encoding sha256(Compress(input))\n")
	for _, ls := range lines {
		for _, l := range ls {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	got := []byte(b.String())
	path := filepath.Join("testdata", "output.golden")
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
