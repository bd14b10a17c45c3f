package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the study-size golden fixture")

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

// TestStudySizesGolden pins every compressed size of the cached
// smallStudy (8 codecs including lc, 14 inputs, 2 encodings, 128 KiB per
// input) as integers. A change to any registry codec's output or to the LC
// library fails here until the fixture is regenerated with -update and the
// change says why.
//
// The inputs come from the sdrbench generators, whose float64 math
// (math.Sin, math.Exp, math.Log, ...) is pinned on amd64. On a GOARCH whose
// compiler fuses multiply-adds (arm64, ppc64le, s390x, riscv64) or whose
// math package uses other assembly, a last-bit difference can change a
// generated float32 and with it these sizes; the fixture then describes
// amd64, not a defect in the codecs.
func TestStudySizesGolden(t *testing.T) {
	st := smallStudy(t)
	var b strings.Builder
	b.WriteString("# codec input encoding compressed_bytes (smallStudy, 1<<15 values per input)\n")
	for _, m := range st.Measurements {
		fmt.Fprintf(&b, "%s %s %s %d\n", m.Codec, m.Input, m.Encoding, m.CompLen)
	}
	got := []byte(b.String())
	want := writeOrLoad(t, "study_sizes.golden", got)
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("study sizes: %d lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("study sizes line %d: got %q, golden %q", i+1, gotLines[i], wantLines[i])
		}
	}
}
