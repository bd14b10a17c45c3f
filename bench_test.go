package positbench_test

// One benchmark per table and figure of the paper, plus ablations over the
// design choices DESIGN.md calls out. Each benchmark both times the
// regeneration and reports the headline metric of its artifact via
// b.ReportMetric, so `go test -bench=.` reprints the paper's numbers.
//
// Benchmarks run at a reduced per-input size (benchValues) so the full
// suite finishes in minutes; cmd/repro regenerates the same artifacts at
// full scale.

import (
	"sync"
	"testing"

	"positbench/internal/compress"
	"positbench/internal/compress/all"
	"positbench/internal/compress/bzip2c"
	"positbench/internal/compress/xzc"
	"positbench/internal/core"
	"positbench/internal/ieee"
	"positbench/internal/lc"
	"positbench/internal/posit"
	"positbench/internal/sdrbench"
	"positbench/internal/stats"
)

const benchValues = 1 << 15 // 128 KiB per input

var (
	studyOnce sync.Once
	study     *core.Study
	studyErr  error
)

// benchStudy runs the full study (with LC) once and caches it.
func benchStudy(b *testing.B) *core.Study {
	studyOnce.Do(func() {
		study, studyErr = core.Run(core.Options{
			ValuesPerInput: benchValues,
			WithLC:         true,
		})
	})
	if studyErr != nil {
		b.Fatal(studyErr)
	}
	return study
}

// BenchmarkTable1Compressors regenerates the compressor inventory.
func BenchmarkTable1Compressors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if core.Table1() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2Datasets regenerates the dataset inventory.
func BenchmarkTable2Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if core.Table2() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable3InputGeneration regenerates all 14 synthetic inputs.
func BenchmarkTable3InputGeneration(b *testing.B) {
	specs := sdrbench.Inputs()
	b.SetBytes(int64(len(specs) * benchValues * 4))
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			if len(spec.Generate(benchValues)) != benchValues {
				b.Fatal("bad generation")
			}
		}
	}
}

// BenchmarkPrecisionStudy regenerates Section 4.2: the es=3 vs es=2
// roundtrip-precision geomeans over all 14 inputs.
func BenchmarkPrecisionStudy(b *testing.B) {
	inputs := make([][]float32, 0, 14)
	for _, spec := range sdrbench.Inputs() {
		inputs = append(inputs, spec.Generate(benchValues))
	}
	b.ResetTimer()
	var g3, g2 float64
	for i := 0; i < b.N; i++ {
		var l3, l2 []float64
		for _, vals := range inputs {
			l3 = append(l3, posit.Posit32e3.RoundtripStats(vals).PrecisePct())
			l2 = append(l2, posit.Posit32.RoundtripStats(vals).PrecisePct())
		}
		g3, g2 = stats.GeoMean(l3), stats.GeoMean(l2)
	}
	b.ReportMetric(g3, "es3-precise-%")
	b.ReportMetric(g2, "es2-precise-%")
}

// BenchmarkFig3FloatRatios regenerates Figure 3 (geomean compression
// ratios on IEEE data) and reports each codec's ratio.
func BenchmarkFig3FloatRatios(b *testing.B) {
	st := benchStudy(b)
	b.ResetTimer()
	var bars []core.FigureBar
	for i := 0; i < b.N; i++ {
		bars = st.Figure3()
	}
	for _, bar := range bars {
		b.ReportMetric(bar.Ratio, bar.Codec+"-CR")
	}
}

// BenchmarkFig4PositRatios regenerates Figure 4 (geomean ratios on posit
// data) and reports each codec's percentage delta against IEEE.
func BenchmarkFig4PositRatios(b *testing.B) {
	st := benchStudy(b)
	b.ResetTimer()
	var bars []core.FigureBar
	for i := 0; i < b.N; i++ {
		bars = st.Figure4()
	}
	for _, bar := range bars {
		b.ReportMetric(bar.Ratio, bar.Codec+"-CR")
		b.ReportMetric(bar.DeltaPct, bar.Codec+"-delta-%")
	}
}

// BenchmarkFig5ExponentHistogram regenerates the per-input biased-exponent
// distributions.
func BenchmarkFig5ExponentHistogram(b *testing.B) {
	inputs := make([][]float32, 0, 14)
	for _, spec := range sdrbench.Inputs() {
		inputs = append(inputs, spec.Generate(benchValues))
	}
	b.SetBytes(int64(len(inputs) * benchValues * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, vals := range inputs {
			var h ieee.Histogram
			h.AddSlice(vals)
			if h.Total == 0 {
				b.Fatal("empty histogram")
			}
		}
	}
}

// BenchmarkFig6PerFileLC regenerates Figure 6: per-file LC pipelines vs the
// single global pipeline, reporting the percentage gains.
func BenchmarkFig6PerFileLC(b *testing.B) {
	st := benchStudy(b)
	b.ResetTimer()
	var res []core.Figure6Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = st.Figure6()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res {
		b.ReportMetric(r.GainPct, string(r.Encoding)+"-perfile-gain-%")
	}
}

// --- ablations ---------------------------------------------------------------

// BenchmarkAblationES sweeps the posit exponent-field width, the design
// choice Section 4.2 justifies: es=3 keeps far more values exact than the
// standard es=2 on data with wide dynamic range.
func BenchmarkAblationES(b *testing.B) {
	vals := mustInput(b, "QRAINf48.bin.f32")
	for _, es := range []uint{0, 1, 2, 3, 4} {
		cfg := posit.Config{N: 32, ES: es}
		b.Run(cfg.String(), func(b *testing.B) {
			var pct float64
			for i := 0; i < b.N; i++ {
				pct = cfg.RoundtripStats(vals).PrecisePct()
			}
			b.ReportMetric(pct, "precise-%")
		})
	}
}

// BenchmarkAblationXZWindow sweeps the xz-class dictionary size, the
// property the paper credits for XZ's lead over the other dictionary
// coders. The input deliberately contains redundancy at ~190 KiB distance
// (a repeated field snapshot, as checkpointed simulation output has), so
// only windows larger than that can exploit it.
func BenchmarkAblationXZWindow(b *testing.B) {
	first := posit.EncodeFloat32LE(mustInput(b, "PRES-98x1200x1200.f32"))
	second := posit.EncodeFloat32LE(mustInput(b, "RH-98x1200x1200.f32"))
	data := append(append(append([]byte(nil), first...), second[:64<<10]...), first...)
	for _, window := range []int{1 << 15, 1 << 17, 1 << 20, 8 << 20} {
		codec := xzc.NewParams(window, 128)
		b.Run(byteSize(window), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			var r float64
			for i := 0; i < b.N; i++ {
				comp, err := codec.Compress(data)
				if err != nil {
					b.Fatal(err)
				}
				r = compress.Ratio(len(data), len(comp))
			}
			b.ReportMetric(r, "CR")
		})
	}
}

// BenchmarkAblationBzip2Block sweeps the bzip2-class block size (-1 ... -9).
func BenchmarkAblationBzip2Block(b *testing.B) {
	data := posit.EncodeFloat32LE(mustInput(b, "ICEFRAC_1_1800_3600.f32"))
	for _, block := range []int{100 * 1000, 300 * 1000, 900 * 1000} {
		codec := bzip2c.NewBlockSize(block)
		b.Run(byteSize(block), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			var r float64
			for i := 0; i < b.N; i++ {
				comp, err := codec.Compress(data)
				if err != nil {
					b.Fatal(err)
				}
				r = compress.Ratio(len(data), len(comp))
			}
			b.ReportMetric(r, "CR")
		})
	}
}

// BenchmarkAblationLCStages compares the best 1-, 2-, and 3-stage LC
// pipelines (NUL padding makes shallower pipelines a subset of the search).
func BenchmarkAblationLCStages(b *testing.B) {
	data := posit.EncodeFloat32LE(mustInput(b, "einspline.f32"))
	results, err := lc.SearchAll(data, 0)
	if err != nil {
		b.Fatal(err)
	}
	best := func(maxReal int) float64 {
		for _, r := range results {
			real := 0
			for _, n := range r.Names {
				if n != "NUL" {
					real++
				}
			}
			if real <= maxReal {
				return r.Ratio
			}
		}
		return 0
	}
	b.Run("stages", func(b *testing.B) {
		var r1, r2, r3 float64
		for i := 0; i < b.N; i++ {
			r1, r2, r3 = best(1), best(2), best(3)
		}
		b.ReportMetric(r1, "1-stage-CR")
		b.ReportMetric(r2, "2-stage-CR")
		b.ReportMetric(r3, "3-stage-CR")
	})
}

// BenchmarkCodecsThroughput measures end-to-end compress throughput of
// every codec on one representative input in both encodings.
func BenchmarkCodecsThroughput(b *testing.B) {
	vals := mustInput(b, "PRES-98x1200x1200.f32")
	ieeeBytes := posit.EncodeFloat32LE(vals)
	positBytes := posit.EncodeWordsLE(posit.Posit32e3.FromFloat32Slice(nil, vals))
	for _, enc := range []struct {
		name string
		data []byte
	}{{"ieee", ieeeBytes}, {"posit", positBytes}} {
		for _, codec := range all.Codecs() {
			b.Run(codec.Name()+"/"+enc.name, func(b *testing.B) {
				b.SetBytes(int64(len(enc.data)))
				var r float64
				for i := 0; i < b.N; i++ {
					comp, err := codec.Compress(enc.data)
					if err != nil {
						b.Fatal(err)
					}
					r = compress.Ratio(len(enc.data), len(comp))
				}
				b.ReportMetric(r, "CR")
			})
		}
	}
}

// BenchmarkDecompressThroughput measures decompression speed for every
// codec — together with BenchmarkCodecsThroughput this covers the
// throughput study the paper defers to future work.
func BenchmarkDecompressThroughput(b *testing.B) {
	vals := mustInput(b, "PRES-98x1200x1200.f32")
	for _, enc := range []struct {
		name string
		data []byte
	}{
		{"ieee", posit.EncodeFloat32LE(vals)},
		{"posit", posit.EncodeWordsLE(posit.Posit32e3.FromFloat32Slice(nil, vals))},
	} {
		for _, codec := range all.Codecs() {
			comp, err := codec.Compress(enc.data)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(codec.Name()+"/"+enc.name, func(b *testing.B) {
				b.SetBytes(int64(len(enc.data)))
				for i := 0; i < b.N; i++ {
					if _, err := codec.Decompress(comp); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPositConversionThroughput measures the float->posit->float
// conversion pipeline, the cost a posit-storing workflow pays once per file.
func BenchmarkPositConversionThroughput(b *testing.B) {
	vals := mustInput(b, "velocity_x.f32")
	words := make([]uint32, len(vals))
	back := make([]float32, len(vals))
	b.SetBytes(int64(8 * len(vals)))
	for i := 0; i < b.N; i++ {
		posit.Posit32e3.FromFloat32Slice(words, vals)
		posit.Posit32e3.ToFloat32Slice(back, words)
	}
}

func mustInput(b *testing.B, name string) []float32 {
	b.Helper()
	spec, err := sdrbench.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return spec.Generate(benchValues)
}

func byteSize(n int) string {
	switch {
	case n >= 1<<20:
		return mustItoa(n>>20) + "MiB"
	case n >= 1000:
		return mustItoa(n/1000) + "kB"
	default:
		return mustItoa(n) + "B"
	}
}

func mustItoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
