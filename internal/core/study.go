// Package core implements the paper's experiment: the compressibility of
// the 14 SDRBench inputs encoded as IEEE-754 binary32 versus posit<32,3>,
// measured over the registry codecs (the paper's five general-purpose
// classes plus the predictive fpc32/fpc-posit family) and LC-synthesized
// pipelines. It exposes one structured result type per table and figure.
package core

import (
	"fmt"

	"positbench/internal/compress"
	"positbench/internal/compress/all"
	"positbench/internal/ieee"
	"positbench/internal/lc"
	"positbench/internal/pool"
	"positbench/internal/posit"
	"positbench/internal/sdrbench"
	"positbench/internal/stats"
)

// Encoding names a number representation of an input file.
type Encoding string

// The two encodings under study.
const (
	EncIEEE  Encoding = "ieee"  // IEEE-754 binary32, little-endian
	EncPosit Encoding = "posit" // posit<32,3>, little-endian
)

// Options configures a study run.
type Options struct {
	// ValuesPerInput is the number of float32 values generated per input
	// (default sdrbench.DefaultValues = 1 Mi values = 4 MiB).
	ValuesPerInput int
	// Codecs are the codecs to evaluate (default the full registry).
	Codecs []compress.Codec
	// WithLC adds the LC compressor: a full pipeline search per encoding,
	// global best pipeline (Figures 3/4) and per-file best (Figure 6).
	WithLC bool
	// Verify roundtrips every compression and fails on any mismatch.
	Verify bool
	// Workers bounds the concurrent input preparations, codec runs and LC
	// pipeline trials (default GOMAXPROCS; the CLIs' -p flag lands here).
	Workers int
	// Progress, if non-nil, receives one line per completed step.
	Progress func(format string, args ...interface{})
}

func (o *Options) fill() {
	if o.ValuesPerInput == 0 {
		o.ValuesPerInput = sdrbench.DefaultValues
	}
	if o.Codecs == nil {
		o.Codecs = all.Codecs()
	}
	if o.Progress == nil {
		o.Progress = func(string, ...interface{}) {}
	}
}

// Input is one prepared study input: the synthetic float data and its
// posit<32,3> re-encoding, plus conversion statistics for both es values.
type Input struct {
	Spec       sdrbench.InputSpec
	Floats     []float32
	FloatBytes []byte // .f32 little-endian serialization
	PositBytes []byte // posit<32,3> little-endian serialization (same size)
	StatsES3   posit.ConvertStats
	StatsES2   posit.ConvertStats
	Histogram  ieee.Histogram // biased-exponent histogram (Figure 5)
}

// Bytes returns the input's serialized bytes under enc.
func (in *Input) Bytes(enc Encoding) []byte {
	if enc == EncPosit {
		return in.PositBytes
	}
	return in.FloatBytes
}

// Measurement is one codec x input x encoding result.
type Measurement struct {
	Codec    string
	Input    string
	Encoding Encoding
	OrigLen  int
	CompLen  int
	Ratio    float64
}

// Study holds everything a run produced.
type Study struct {
	Opts         Options
	Inputs       []*Input
	Measurements []Measurement // all codecs including "lc", both encodings

	// LC artifacts (set when Opts.WithLC).
	LCFloatPipeline lc.Pipeline // global best on IEEE inputs
	LCPositPipeline lc.Pipeline // global best on posit inputs
	LCPerFileFloat  []lc.Result // per-input best, IEEE (Figure 6)
	LCPerFilePosit  []lc.Result // per-input best, posit (Figure 6)
}

// PrepareInputs generates the 14 synthetic inputs and their posit
// conversions in parallel, at most workers at a time (<= 0 means
// GOMAXPROCS). Each input converts on one worker, so workers bounds the
// whole phase.
func PrepareInputs(nValues, workers int, progress func(string, ...interface{})) []*Input {
	if progress == nil {
		progress = func(string, ...interface{}) {}
	}
	specs := sdrbench.Inputs()
	inputs := make([]*Input, len(specs))
	pool.Run(workers, len(specs), func(i int) {
		spec := specs[i]
		floats := spec.Generate(nValues)
		words3 := posit.Posit32e3.FromFloat32SliceWorkers(nil, floats, 1)
		in := &Input{
			Spec:       spec,
			Floats:     floats,
			FloatBytes: posit.EncodeFloat32LE(floats),
			PositBytes: posit.EncodeWordsLE(words3),
			StatsES3:   posit.Posit32e3.RoundtripStatsWorkers(floats, 1),
			StatsES2:   posit.Posit32.RoundtripStatsWorkers(floats, 1),
		}
		in.Histogram.AddSlice(floats)
		inputs[i] = in
	})
	progress("prepared %d inputs (%d values each)", len(inputs), nValues)
	return inputs
}

// Run executes the full study.
func Run(opts Options) (*Study, error) {
	opts.fill()
	st := &Study{Opts: opts}
	st.Inputs = PrepareInputs(opts.ValuesPerInput, opts.Workers, opts.Progress)

	// General-purpose codecs: every codec x input x encoding cell is one
	// pool item; results land in preallocated indices.
	type cell struct {
		codec compress.Codec
		input *Input
		enc   Encoding
	}
	var cells []cell
	for _, c := range opts.Codecs {
		for _, in := range st.Inputs {
			for _, enc := range []Encoding{EncIEEE, EncPosit} {
				cells = append(cells, cell{c, in, enc})
			}
		}
	}
	st.Measurements = make([]Measurement, len(cells))
	errs := make([]error, len(cells))
	pool.Run(opts.Workers, len(cells), func(i int) {
		cl := cells[i]
		data := cl.input.Bytes(cl.enc)
		var compLen int
		var err error
		if opts.Verify {
			compLen, err = compress.Roundtrip(cl.codec, data)
		} else {
			var comp []byte
			comp, err = cl.codec.Compress(data)
			compLen = len(comp)
		}
		if err != nil {
			errs[i] = err
			return
		}
		st.Measurements[i] = Measurement{
			Codec:    cl.codec.Name(),
			Input:    cl.input.Spec.Name,
			Encoding: cl.enc,
			OrigLen:  len(data),
			CompLen:  compLen,
			Ratio:    compress.Ratio(len(data), compLen),
		}
		opts.Progress("%-6s %-26s %-5s ratio %.3f",
			cl.codec.Name(), cl.input.Spec.Name, cl.enc,
			st.Measurements[i].Ratio)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	if opts.WithLC {
		if err := st.runLC(); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// runLC performs the pipeline search per encoding and appends "lc"
// measurements using each encoding's global-best pipeline.
func (st *Study) runLC() error {
	for _, enc := range []Encoding{EncIEEE, EncPosit} {
		data := make([][]byte, len(st.Inputs))
		for i, in := range st.Inputs {
			data[i] = in.Bytes(enc)
		}
		perInput, err := lc.SearchAllMulti(data, st.Opts.Workers)
		if err != nil {
			return fmt.Errorf("lc search (%s): %w", enc, err)
		}
		pipe, results, err := lc.SelectGlobal(perInput)
		if err != nil {
			return fmt.Errorf("lc selection (%s): %w", enc, err)
		}
		perFile, err := lc.SelectPerFile(perInput)
		if err != nil {
			return fmt.Errorf("lc per-file (%s): %w", enc, err)
		}
		if enc == EncIEEE {
			st.LCFloatPipeline, st.LCPerFileFloat = pipe, perFile
		} else {
			st.LCPositPipeline, st.LCPerFilePosit = pipe, perFile
		}
		for i, in := range st.Inputs {
			st.Measurements = append(st.Measurements, Measurement{
				Codec:    "lc",
				Input:    in.Spec.Name,
				Encoding: enc,
				OrigLen:  len(data[i]),
				CompLen:  results[i].Size,
				Ratio:    results[i].Ratio,
			})
		}
		st.Opts.Progress("lc global pipeline (%s): %s", enc, pipe)
		if st.Opts.Verify {
			codec := lc.NewCodec(pipe)
			for i := range st.Inputs {
				if _, err := compress.Roundtrip(codec, data[i]); err != nil {
					return fmt.Errorf("lc verify: %w", err)
				}
			}
		}
	}
	return nil
}

// CodecNames lists the measured codec names in figure order (registry
// codecs alphabetically as the paper's figures do, with lc included when
// present).
func (st *Study) CodecNames() []string {
	seen := map[string]bool{}
	var names []string
	for _, m := range st.Measurements {
		if !seen[m.Codec] {
			seen[m.Codec] = true
			names = append(names, m.Codec)
		}
	}
	return names
}

// GeoMeanRatio aggregates one codec's ratios over all inputs under enc.
func (st *Study) GeoMeanRatio(codec string, enc Encoding) float64 {
	var ratios []float64
	for _, m := range st.Measurements {
		if m.Codec == codec && m.Encoding == enc {
			ratios = append(ratios, m.Ratio)
		}
	}
	return stats.GeoMean(ratios)
}

// Ratio returns the measurement for one codec x input x encoding cell.
func (st *Study) Ratio(codec, input string, enc Encoding) (Measurement, bool) {
	for _, m := range st.Measurements {
		if m.Codec == codec && m.Input == input && m.Encoding == enc {
			return m, true
		}
	}
	return Measurement{}, false
}
