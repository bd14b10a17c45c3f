// Package positbench reproduces "On the Compressibility of Floating-Point
// Data in Posit and IEEE-754 Representation" (Rodriguez & Burtscher, SC
// Workshops '25): a study of how well general-purpose lossless compressors
// and LC-synthesized pipelines compress scientific float32 data when it is
// re-encoded as posit<32,3>.
//
// The library lives under internal/: the posit codec (internal/posit),
// the five compressor classes (internal/compress/...),
// the LC pipeline-synthesis framework (internal/lc), the synthetic
// SDRBench substitutes (internal/sdrbench), and the study engine
// (internal/core). Executables are under cmd/ and runnable examples under
// examples/. The benchmarks in bench_test.go regenerate every table and
// figure of the paper; see DESIGN.md and EXPERIMENTS.md.
package positbench
