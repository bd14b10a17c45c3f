package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"positbench/internal/stats"
	"positbench/internal/sweep"
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

// TestCheckScalingExitStatus drives the -workers-sweep gate with synthetic
// reports, so no timing is involved: every row that falls more than 10%
// below serial is listed in the error, named by codec, worker count and
// direction, and a 1-CPU report keeps its 25% widening.
func TestCheckScalingExitStatus(t *testing.T) {
	row := func(codec string, workers int, serEnc, parEnc, serDec, parDec float64) sweep.BenchResult {
		return sweep.BenchResult{Codec: codec, Workers: workers,
			SerialMBps: serEnc, ParallelMBps: parEnc,
			SerialDecodeMBps: serDec, ParallelDecodeMBps: parDec}
	}
	healthy := &sweep.BenchReport{NumCPU: 4, Results: []sweep.BenchResult{
		row("xz", 1, 10, 9.5, 40, 39),
		row("xz", 4, 10, 33, 40, 42),
	}}
	if err := checkScaling(healthy); err != nil {
		t.Fatalf("healthy curve failed: %v", err)
	}

	broken := &sweep.BenchReport{NumCPU: 4, Results: []sweep.BenchResult{
		row("bzip2", 4, 10, 5, 40, 42),
		row("fpc32", 2, 10, 11, 40, 30),
		row("gzip", 8, 10, 9.5, 40, 39),
	}}
	err := checkScaling(broken)
	if err == nil {
		t.Fatal("rows below serial passed the gate")
	}
	for _, want := range []string{
		"2 scaling check(s) failed",
		"bzip2 w=4: parallel compress",
		"fpc32 w=2: parallel decode",
		"(tol 10%)",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error missing %q:\n%v", want, err)
		}
	}
	if strings.Contains(err.Error(), "gzip") {
		t.Errorf("row within 10%% listed:\n%v", err)
	}

	// A 20% dip is same-code noise on one CPU and a failure on four.
	dip := &sweep.BenchReport{NumCPU: 1, Results: []sweep.BenchResult{row("gzip", 4, 10, 8, 40, 32)}}
	if err := checkScaling(dip); err != nil {
		t.Errorf("1-CPU 20%% dip failed: %v", err)
	}
	dip.NumCPU = 4
	if err := checkScaling(dip); err == nil || !strings.Contains(err.Error(), "2 scaling check(s) failed") {
		t.Errorf("multi-CPU 20%% dip in both directions: got %v", err)
	}
	dip.NumCPU = 1
	dip.Results[0].ParallelDecodeMBps = 28
	if err := checkScaling(dip); err == nil || !strings.Contains(err.Error(), "gzip w=4: parallel decode") ||
		!strings.Contains(err.Error(), "(tol 25%)") {
		t.Errorf("1-CPU 30%% decode dip: got %v", err)
	}
}
