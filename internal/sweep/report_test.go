package sweep

import (
	"strings"
	"testing"
)

func scalingRow(codec string, workers int, serEnc, parEnc, serDec, parDec float64) BenchResult {
	return BenchResult{
		Codec: codec, Workers: workers,
		SerialMBps: serEnc, ParallelMBps: parEnc,
		SerialDecodeMBps: serDec, ParallelDecodeMBps: parDec,
	}
}

func TestCheckScalingPassesHealthyCurve(t *testing.T) {
	rep := &BenchReport{NumCPU: 4, Results: []BenchResult{
		scalingRow("xz", 1, 10, 9.8, 40, 39),
		scalingRow("xz", 2, 10, 18, 40, 41),
		scalingRow("xz", 4, 10, 33, 40, 42),
	}}
	if probs := CheckScaling(rep, 10); len(probs) != 0 {
		t.Errorf("healthy curve flagged: %v", probs)
	}
}

func TestCheckScalingFlagsParallelBelowSerial(t *testing.T) {
	rep := &BenchReport{NumCPU: 4, Results: []BenchResult{
		scalingRow("bzip2", 4, 10, 5, 40, 42),  // encode collapsed
		scalingRow("fpc32", 4, 10, 11, 40, 30), // decode collapsed
	}}
	probs := CheckScaling(rep, 10)
	if len(probs) != 2 {
		t.Fatalf("want 2 problems, got %d: %v", len(probs), probs)
	}
	joined := strings.Join(probs, "\n")
	for _, want := range []string{"bzip2 w=4", "parallel compress", "fpc32 w=4", "parallel decode"} {
		if !strings.Contains(joined, want) {
			t.Errorf("problems missing %q:\n%s", want, joined)
		}
	}
}

func TestCheckScalingLenientOnOneCPU(t *testing.T) {
	// 20% dips both directions: noise on a 1-core box (serial fallback
	// measures the same code twice), regressions on real parallel hardware.
	rep := &BenchReport{NumCPU: 1, Results: []BenchResult{
		scalingRow("gzip", 4, 10, 8, 40, 32),
	}}
	if probs := CheckScaling(rep, 10); len(probs) != 0 {
		t.Errorf("1-CPU noise flagged: %v", probs)
	}
	rep.NumCPU = 4
	if probs := CheckScaling(rep, 10); len(probs) != 2 {
		t.Errorf("multi-CPU dips not both flagged: %v", probs)
	}
	// Past the widened bound, even a 1-CPU box fails: that is a broken
	// fallback, not noise.
	rep.NumCPU = 1
	rep.Results[0].ParallelDecodeMBps = 25
	if probs := CheckScaling(rep, 10); len(probs) != 1 {
		t.Errorf("1-CPU catastrophic decode dip not flagged: %v", probs)
	}
}

func TestFill(t *testing.T) {
	r := &BenchReport{
		GOMAXPROCS: 4,
		Results: []BenchResult{
			{Codec: "zstd", Workers: 4, InputBytes: 1 << 22, ChunkBytes: 1 << 20, SerialMBps: 50, ParallelMBps: 150},
			{Codec: "gzip", Workers: 4, InputBytes: 1 << 22, ChunkBytes: 1 << 20, SerialMBps: 20, ParallelMBps: 60},
		},
	}
	r.Fill()
	// Fill computed speedups and sorted by codec name.
	if r.Results[0].Codec != "gzip" || r.Results[1].Codec != "zstd" {
		t.Fatalf("not sorted: %+v", r.Results)
	}
	for _, res := range r.Results {
		if res.Speedup < 2.9 || res.Speedup > 3.1 {
			t.Fatalf("speedup not derived: %+v", res)
		}
	}
}

func TestFillZeroSerial(t *testing.T) {
	r := &BenchReport{Results: []BenchResult{{Codec: "xz", ParallelMBps: 10}}}
	r.Fill()
	if r.Results[0].Speedup != 0 {
		t.Fatalf("speedup with zero serial baseline should stay 0, got %g", r.Results[0].Speedup)
	}
}
