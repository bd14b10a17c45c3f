package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"positbench/internal/stats"
)

func writeField(t *testing.T, dir, name string, n int) string {
	t.Helper()
	buf := make([]byte, 4*n)
	for i := 0; i < n; i++ {
		v := float32(math.Sin(float64(i)/30) + 2)
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSubset(t *testing.T) {
	dir := t.TempDir()
	f1 := writeField(t, dir, "a.f32", 2000)
	f2 := writeField(t, dir, "b.f32", 1000)
	var out bytes.Buffer
	if err := run([]string{"-codecs", "lz4,gzip", "-verify", f1, f2}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"a.f32", "b.f32", "geomean", "lz4", "gzip"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "xz") {
		t.Error("unrequested codec in output")
	}
}

func TestRunWithLC(t *testing.T) {
	dir := t.TempDir()
	f := writeField(t, dir, "c.f32", 1500)
	var out bytes.Buffer
	if err := run([]string{"-codecs", "lz4,lc", f}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "|") { // pipeline string present
		t.Fatalf("LC pipeline missing:\n%s", out.String())
	}
}

// TestRunJSON checks the machine-readable report: valid schema, per-cell
// ratios, LC pipeline detail, and geomeans over requested codecs only.
func TestRunJSON(t *testing.T) {
	dir := t.TempDir()
	f1 := writeField(t, dir, "a.f32", 2000)
	f2 := writeField(t, dir, "b.f32", 1000)
	var out bytes.Buffer
	if err := run([]string{"-json", "-codecs", "lz4,gzip,lc", f1, f2}, &out); err != nil {
		t.Fatalf("run -json: %v", err)
	}
	var rep stats.RatioReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not a RatioReport: %v\n%s", err, out.String())
	}
	if want := []string{"lz4", "gzip", "lc"}; len(rep.Codecs) != len(want) {
		t.Fatalf("codecs = %v, want %v", rep.Codecs, want)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors = %d on clean inputs", rep.Errors)
	}
	if len(rep.Files) != 2 || len(rep.Files[0].Cells) != 3 {
		t.Fatalf("report shape: %d files x %d cells", len(rep.Files), len(rep.Files[0].Cells))
	}
	for _, f := range rep.Files {
		for _, c := range f.Cells {
			if c.Ratio <= 0 {
				t.Fatalf("%s/%s ratio = %v", f.File, c.Codec, c.Ratio)
			}
			if c.Codec == "lc" && !strings.Contains(c.Detail, "|") {
				t.Fatalf("lc cell missing pipeline detail: %+v", c)
			}
		}
	}
	for _, codec := range []string{"lz4", "gzip", "lc"} {
		if rep.GeoMeans[codec] <= 0 {
			t.Fatalf("geomean missing for %s: %v", codec, rep.GeoMeans)
		}
	}
}

// TestRunJSONCellFailure: a failed row still renders (full picture for CI)
// but the run exits non-zero, and healthy rows keep their numbers.
func TestRunJSONCellFailure(t *testing.T) {
	dir := t.TempDir()
	good := writeField(t, dir, "good.f32", 1000)
	missing := filepath.Join(dir, "missing.f32")
	var out bytes.Buffer
	err := run([]string{"-json", "-codecs", "gzip", good, missing}, &out)
	if err == nil {
		t.Fatal("run with a failed cell exited clean")
	}
	var rep stats.RatioReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("failed run still must emit the report: %v\n%s", err, out.String())
	}
	if rep.Errors != 1 {
		t.Fatalf("errors = %d, want 1", rep.Errors)
	}
	if rep.Files[0].Cells[0].Error != "" || rep.Files[0].Cells[0].Ratio <= 0 {
		t.Fatalf("healthy cell damaged: %+v", rep.Files[0].Cells[0])
	}
	if rep.Files[1].Cells[0].Error == "" {
		t.Fatalf("failed cell missing its error: %+v", rep.Files[1].Cells[0])
	}
	if rep.GeoMeans["gzip"] <= 0 {
		t.Fatalf("geomean must still cover the healthy cells: %v", rep.GeoMeans)
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Fatal("no files accepted")
	}
	if err := run([]string{"-codecs", "nope", "x"}, &out); err == nil {
		t.Fatal("unknown codec accepted")
	}
	if err := run([]string{"/definitely/missing/file"}, &out); err == nil {
		t.Fatal("missing file accepted")
	}
}

// Corrupt or truncated framed input must yield a one-line error from run
// (and thus a non-zero exit from main), never a panic or a stack trace.
func TestFramedRoundtripAndCorruptInput(t *testing.T) {
	dir := t.TempDir()
	orig := writeField(t, dir, "in.f32", 3000)
	blob := filepath.Join(dir, "in.pbcf")
	var out bytes.Buffer
	if err := run([]string{"-z", "gzip", orig, blob}, &out); err != nil {
		t.Fatal(err)
	}
	back := filepath.Join(dir, "back.f32")
	if err := run([]string{"-d", blob, back}, &out); err != nil {
		t.Fatal(err)
	}
	want, _ := os.ReadFile(orig)
	got, _ := os.ReadFile(back)
	if !bytes.Equal(want, got) {
		t.Fatal("framed roundtrip mismatch")
	}

	frame, err := os.ReadFile(blob)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), frame...)
	flipped[len(flipped)-1] ^= 0x01
	cases := []struct {
		name string
		data []byte
		args []string
	}{
		{"Truncated", frame[:len(frame)/2], nil},
		{"BitFlip", flipped, nil},
		{"Garbage", []byte("not a container frame at all"), nil},
		{"Empty", nil, nil},
		{"TooSmallLimit", frame, []string{"-max-out", "16"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := filepath.Join(dir, "bad.pbcf")
			if err := os.WriteFile(bad, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			args := append(append([]string{"-d"}, tc.args...), bad, filepath.Join(dir, "bad.out"))
			err := run(args, &out)
			if err == nil {
				t.Fatal("corrupt input accepted")
			}
			if strings.Contains(err.Error(), "\n") {
				t.Fatalf("diagnostic is not one line: %q", err.Error())
			}
		})
	}
}

func TestFramedModeErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-z", "gzip", "-d", "a", "b"}, &out); err == nil {
		t.Fatal("-z with -d accepted")
	}
	if err := run([]string{"-z", "gzip", "only-one-path"}, &out); err == nil {
		t.Fatal("missing output path accepted")
	}
	if err := run([]string{"-z", "nope", os.DevNull, "x"}, &out); err == nil {
		t.Fatal("unknown codec accepted")
	}
}

// TestStreamModes drives the indexed-stream modes end to end: -zs -chunk
// writes a stream whose seek trailer -index reads back, -range writes
// exactly the requested slice, -ds roundtrips the whole stream, and -zs
// with -ds is rejected.
func TestStreamModes(t *testing.T) {
	dir := t.TempDir()
	orig := writeField(t, dir, "in.f32", 40000)
	want, err := os.ReadFile(orig)
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 16 << 10
	chunks := (len(want) + chunk - 1) / chunk
	stream := filepath.Join(dir, "in.pbs")
	var out bytes.Buffer
	if err := run([]string{"-zs", "gzip", "-chunk", fmt.Sprint(chunk), orig, stream}, &out); err != nil {
		t.Fatalf("-zs: %v", err)
	}

	out.Reset()
	if err := run([]string{"-index", stream}, &out); err != nil {
		t.Fatalf("-index: %v", err)
	}
	if s := fmt.Sprintf(": %d chunks, %d raw bytes", chunks, len(want)); !strings.Contains(out.String(), s) {
		t.Errorf("-index output lacks %q:\n%s", s, out.String())
	}

	// The window straddles chunk boundaries on both ends.
	off, n := chunk+100, 2*chunk+200
	slice := filepath.Join(dir, "slice.bin")
	if err := run([]string{"-range", fmt.Sprintf("%d:%d", off, n), stream, slice}, &out); err != nil {
		t.Fatalf("-range: %v", err)
	}
	if got, _ := os.ReadFile(slice); !bytes.Equal(got, want[off:off+n]) {
		t.Errorf("-range %d:%d wrote %d bytes that are not that slice of the input", off, n, len(got))
	}

	back := filepath.Join(dir, "back.f32")
	if err := run([]string{"-ds", stream, back}, &out); err != nil {
		t.Fatalf("-ds: %v", err)
	}
	if got, _ := os.ReadFile(back); !bytes.Equal(got, want) {
		t.Error("-ds roundtrip is not byte-identical")
	}

	if err := run([]string{"-zs", "gzip", "-ds", orig, back}, &out); err == nil {
		t.Error("-zs with -ds accepted")
	}

	// Each decode mode rejects the other layout with a one-line error.
	frame := filepath.Join(dir, "in.pbcf")
	if err := run([]string{"-z", "gzip", orig, frame}, &out); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-d", stream, back},
		{"-ds", frame, back},
		{"-range", "0:10", frame, back},
	} {
		if err := run(args, &out); err == nil || strings.Contains(err.Error(), "\n") {
			t.Errorf("%v: err = %v, want a one-line rejection", args, err)
		}
	}
}
