package sweep

import (
	"testing"
	"time"

	"positbench/internal/compress"
	"positbench/internal/compress/all"
)

// TestRunShape pins the report format the CI gate checks: one row per
// (codec, workers) with serial throughput re-measured on every row, sorted,
// speedups filled, and hardware recorded.
func TestRunShape(t *testing.T) {
	gz, err := all.Get("gzip")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Options{
		Codecs:  []compress.Codec{gz},
		Workers: []int{1, 2},
		Bytes:   64 << 10,
		Chunk:   16 << 10,
		MinTime: time.Millisecond,
		MinIter: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rep.Results))
	}
	if rep.NumCPU < 1 || rep.GOMAXPROCS < 1 {
		t.Errorf("hardware not recorded: %+v", rep)
	}
	for i, r := range rep.Results {
		if r.Codec != "gzip" || r.Workers != []int{1, 2}[i] {
			t.Errorf("row %d: got (%s,%d)", i, r.Codec, r.Workers)
		}
		for name, v := range map[string]float64{
			"serial_mb_s":          r.SerialMBps,
			"parallel_mb_s":        r.ParallelMBps,
			"serial_decode_mb_s":   r.SerialDecodeMBps,
			"parallel_decode_mb_s": r.ParallelDecodeMBps,
			"speedup":              r.Speedup,
			"decode_speedup":       r.DecodeSpeedup,
		} {
			if v <= 0 {
				t.Errorf("row %d: %s not measured", i, name)
			}
		}
	}
	// Serial columns are paired with each parallel point (not copied), so
	// rows carry independent — but same-ballpark — serial measurements.
	s0, s1 := rep.Results[0].SerialMBps, rep.Results[1].SerialMBps
	if s0 <= 0 || s1 <= 0 {
		t.Error("serial throughput missing from a curve row")
	}
	// No timing assertion: one 64 KiB sample per side swings the
	// parallel/serial ratio by more than 10x under load, even at w=1 where
	// both sides run the same code. `make bench-scaling` holds the curve to
	// CheckScaling at 10% on 1 MiB with 300 ms per point.
}

func TestRunRejectsEmpty(t *testing.T) {
	if _, err := Run(Options{}); err == nil {
		t.Error("Run with no codecs did not error")
	}
}

func TestSyntheticInputDeterministic(t *testing.T) {
	a, b := SyntheticInput(4096), SyntheticInput(4096)
	if len(a) != 4096 {
		t.Fatalf("len = %d", len(a))
	}
	if string(a) != string(b) {
		t.Error("synthetic input not deterministic")
	}
}
