package sweep

import (
	"fmt"
	"sort"
)

// BenchResult is one codec's serial-vs-parallel throughput comparison, in
// both directions: the *MBps fields are the compress side, the *DecodeMBps
// fields the decompress side of the same stream.
type BenchResult struct {
	Codec              string  `json:"codec"`
	Workers            int     `json:"workers"`
	InputBytes         int64   `json:"input_bytes"`
	ChunkBytes         int     `json:"chunk_bytes"`
	SerialMBps         float64 `json:"serial_mb_s"`
	ParallelMBps       float64 `json:"parallel_mb_s"`
	Speedup            float64 `json:"speedup"`
	SerialDecodeMBps   float64 `json:"serial_decode_mb_s,omitempty"`
	ParallelDecodeMBps float64 `json:"parallel_decode_mb_s,omitempty"`
	DecodeSpeedup      float64 `json:"decode_speedup,omitempty"`
}

// BenchReport is the per-core scaling report `compressbench
// -workers-sweep` prints: one BenchResult row per (codec, workers) pair.
type BenchReport struct {
	// GOMAXPROCS records the parallelism available to the run; speedups are
	// only meaningful relative to it (a 1-CPU machine caps every speedup
	// at ~1.0 regardless of worker count).
	GOMAXPROCS int `json:"gomaxprocs"`
	// NumCPU is runtime.NumCPU() on the measuring machine. GOMAXPROCS can be
	// lowered below it by the environment, so both are recorded: absolute
	// MB/s numbers are only comparable between runs on the same hardware.
	NumCPU int `json:"num_cpu"`
	// Note is a free-form environment annotation (e.g. "1-CPU CI container:
	// parallel speedups are ~1.0 by construction").
	Note    string        `json:"note,omitempty"`
	Results []BenchResult `json:"results"`
}

// Fill computes Speedup for every result that has both throughputs.
func (r *BenchReport) Fill() {
	for i := range r.Results {
		if s := r.Results[i].SerialMBps; s > 0 {
			r.Results[i].Speedup = r.Results[i].ParallelMBps / s
		}
		if s := r.Results[i].SerialDecodeMBps; s > 0 {
			r.Results[i].DecodeSpeedup = r.Results[i].ParallelDecodeMBps / s
		}
	}
	sort.Slice(r.Results, func(i, j int) bool {
		a, b := &r.Results[i], &r.Results[j]
		if a.Codec != b.Codec {
			return a.Codec < b.Codec
		}
		return a.Workers < b.Workers
	})
}

// CheckScaling validates a single report's intra-run invariant: the
// parallel engine must never fall below the serial path by more than
// tolPct percent at any worker count.
//
// On multi-core hardware both directions are held to tolPct strictly — the
// read-ahead reader's whole reason to exist is "never slower than serial".
// A 1-CPU machine gets a wider margin (2.5x tolPct, at least 25%) in both
// directions: the engine falls back to the serial path there, so each
// comparison measures the same code twice and the delta is pure
// scheduler/cache noise, which on a shared 1-core CI runner routinely
// exceeds a strict threshold even with the sweep's drift-cancelling
// paired measurement.
func CheckScaling(r *BenchReport, tolPct float64) []string {
	if tolPct <= 0 {
		tolPct = 10
	}
	encTol, decTol := tolPct, tolPct
	if r.NumCPU == 1 {
		encTol = tolPct * 2.5
		if encTol < 25 {
			encTol = 25
		}
		decTol = encTol
	}
	var problems []string
	for _, res := range r.Results {
		if res.SerialMBps > 0 && res.ParallelMBps > 0 &&
			res.ParallelMBps < res.SerialMBps*(1-encTol/100) {
			problems = append(problems, fmt.Sprintf(
				"%s w=%d: parallel compress %.2f MB/s is %.1f%% below serial %.2f MB/s (tol %.0f%%)",
				res.Codec, res.Workers, res.ParallelMBps,
				(1-res.ParallelMBps/res.SerialMBps)*100, res.SerialMBps, encTol))
		}
		if res.SerialDecodeMBps > 0 && res.ParallelDecodeMBps > 0 &&
			res.ParallelDecodeMBps < res.SerialDecodeMBps*(1-decTol/100) {
			problems = append(problems, fmt.Sprintf(
				"%s w=%d: parallel decode %.2f MB/s is %.1f%% below serial %.2f MB/s (tol %.0f%%)",
				res.Codec, res.Workers, res.ParallelDecodeMBps,
				(1-res.ParallelDecodeMBps/res.SerialDecodeMBps)*100, res.SerialDecodeMBps, decTol))
		}
	}
	sort.Strings(problems)
	return problems
}
