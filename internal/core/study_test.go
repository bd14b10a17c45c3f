package core

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"positbench/internal/compress"
	"positbench/internal/compress/all"
	"positbench/internal/lc"
)

// smallStudy runs the full study (with LC) at reduced scale, shared across
// tests via sync-once style caching.
var cachedStudy *Study

func smallStudy(t *testing.T) *Study {
	t.Helper()
	if cachedStudy != nil {
		return cachedStudy
	}
	st, err := Run(Options{
		ValuesPerInput: 1 << 15, // 128 KiB per input: fast but structured
		WithLC:         true,
		Verify:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cachedStudy = st
	return st
}

func TestStudyMeasurementsComplete(t *testing.T) {
	st := smallStudy(t)
	// 5 general codecs + the predictive pair + lc, 14 inputs, 2 encodings.
	want := 8 * 14 * 2
	if len(st.Measurements) != want {
		t.Fatalf("got %d measurements, want %d", len(st.Measurements), want)
	}
	for _, m := range st.Measurements {
		if m.Ratio <= 0 {
			t.Fatalf("bad ratio in %+v", m)
		}
		if m.OrigLen != 4<<15 {
			t.Fatalf("unexpected original size %d", m.OrigLen)
		}
	}
	names := st.CodecNames()
	if len(names) != 8 {
		t.Fatalf("codec names: %v", names)
	}
}

func TestStudyShapeMatchesPaper(t *testing.T) {
	st := smallStudy(t)
	get := func(name string, enc Encoding) float64 { return st.GeoMeanRatio(name, enc) }

	for _, enc := range []Encoding{EncIEEE, EncPosit} {
		xz, lcr, bz := get("xz", enc), get("lc", enc), get("bzip2", enc)
		gz, zs, l4 := get("gzip", enc), get("zstd", enc), get("lz4", enc)
		// Paper Figures 3 and 4: xz highest; lz4 lowest; gzip ~ zstd in the
		// middle; lc and bzip2 between xz and gzip.
		if !(xz > bz && xz > gz && xz > zs && xz > l4) {
			t.Errorf("%s: xz (%.3f) must lead bzip2 %.3f gzip %.3f zstd %.3f lz4 %.3f",
				enc, xz, bz, gz, zs, l4)
		}
		if !(l4 < gz && l4 < zs && l4 < bz && l4 < xz && l4 < lcr) {
			t.Errorf("%s: lz4 (%.3f) must trail all others", enc, l4)
		}
		if lcr <= gz {
			t.Errorf("%s: lc (%.3f) should beat gzip (%.3f)", enc, lcr, gz)
		}
	}

	// Figure 4's headline: bzip2 gains on posit data while xz/gzip/zstd/lc
	// lose a little and lz4 is roughly unchanged.
	bars := st.Figure4()
	delta := map[string]float64{}
	for _, b := range bars {
		delta[b.Codec] = b.DeltaPct
	}
	// At the reduced test scale the absolute bzip2 gain can hover around
	// zero (the BWT needs more context); the scale-robust claim is that
	// bzip2 is the most posit-friendly of the dictionary+entropy codecs.
	// cmd/repro at full scale shows the strictly positive gain
	// (EXPERIMENTS.md: +1.55% vs the paper's +1.74%).
	if delta["bzip2"] < -1.0 {
		t.Errorf("bzip2 delta %.2f%%, paper reports an increase on posit data", delta["bzip2"])
	}
	for _, name := range []string{"xz", "gzip", "zstd"} {
		if delta["bzip2"] <= delta[name] {
			t.Errorf("bzip2 delta %.2f%% should exceed %s delta %.2f%%",
				delta["bzip2"], name, delta[name])
		}
	}
	for _, name := range []string{"xz", "gzip", "zstd"} {
		if delta[name] > 1.0 {
			t.Errorf("%s delta %.2f%%: paper reports a small reduction on posit data", name, delta[name])
		}
		if delta[name] < -15 {
			t.Errorf("%s delta %.2f%%: reduction implausibly large", name, delta[name])
		}
	}
	if d := delta["lz4"]; d < -6 || d > 6 {
		t.Errorf("lz4 delta %.2f%%: paper reports parity on both encodings", d)
	}
}

func TestPrecisionStudy(t *testing.T) {
	st := smallStudy(t)
	rows, g3, g2 := st.Precision()
	if len(rows) != 14 {
		t.Fatalf("rows %d", len(rows))
	}
	if g3 < 93 || g3 > 99.5 {
		t.Errorf("es=3 geomean %.2f, want ~97", g3)
	}
	if g2 >= g3 {
		t.Errorf("es=2 (%.2f) must be below es=3 (%.2f)", g2, g3)
	}
	out := st.RenderPrecision()
	if !strings.Contains(out, "geomean") || !strings.Contains(out, "QRAIN") {
		t.Error("render missing rows")
	}
}

func TestFigure6(t *testing.T) {
	st := smallStudy(t)
	res, err := st.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results %d", len(res))
	}
	for _, r := range res {
		// Per-file pipelines can only improve on the single global one.
		if r.GainPct < -1e-9 {
			t.Errorf("%s: per-file LC lost to global: %+v", r.Encoding, r)
		}
		if r.GlobalPipeline == "" {
			t.Errorf("%s: empty pipeline", r.Encoding)
		}
	}
	txt, err := st.RenderFigure6()
	if err != nil || !strings.Contains(txt, "ieee") {
		t.Errorf("render: %v\n%s", err, txt)
	}
}

func TestRenderers(t *testing.T) {
	st := smallStudy(t)
	if s := Table1(); !strings.Contains(s, "bzip2") || !strings.Contains(s, "xz") {
		t.Error("Table1 missing codecs")
	}
	if s := Table2(); !strings.Contains(s, "CESM") {
		t.Error("Table2 missing datasets")
	}
	if s := st.Table3(); !strings.Contains(s, "vx.f32") {
		t.Error("Table3 missing inputs")
	}
	fig3 := RenderFigure("Figure 3", st.Figure3(), false)
	if !strings.Contains(fig3, "#") {
		t.Error("Figure 3 render empty")
	}
	fig4 := RenderFigure("Figure 4", st.Figure4(), true)
	if !strings.Contains(fig4, "vs float") {
		t.Error("Figure 4 render missing deltas")
	}
	if s := st.Figure5(); !strings.Contains(s, "AEROD") {
		t.Error("Figure 5 render missing inputs")
	}
	if s := st.RenderMeasurements(); !strings.Contains(s, "posit") {
		t.Error("measurement dump empty")
	}
}

func TestRatioLookup(t *testing.T) {
	st := smallStudy(t)
	m, ok := st.Ratio("xz", "vx.f32", EncIEEE)
	if !ok || m.Ratio <= 0 {
		t.Fatalf("lookup failed: %+v %v", m, ok)
	}
	if _, ok := st.Ratio("nope", "vx.f32", EncIEEE); ok {
		t.Fatal("bogus codec found")
	}
}

func TestStudyWithoutLC(t *testing.T) {
	st, err := Run(Options{
		ValuesPerInput: 1 << 10,
		Codecs:         []compress.Codec{all.Codecs()[2]}, // lz4 only: fast
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Measurements) != 14*2 {
		t.Fatalf("measurements %d", len(st.Measurements))
	}
	if _, err := st.Figure6(); err == nil {
		t.Fatal("Figure6 must require WithLC")
	}
}

// TestVerifyLCChecksSearchSize: with Verify on, a search size that
// disagrees with the stream lc.Codec writes for the global pipeline fails
// the study, and the error names the encoding, the input and both sizes.
func TestVerifyLCChecksSearchSize(t *testing.T) {
	st := &Study{Inputs: PrepareInputs(256, 1, nil)[:2]}
	pipe, err := lc.NewPipeline("DIFFMS", "RARE", "RAZE")
	if err != nil {
		t.Fatal(err)
	}
	data := make([][]byte, len(st.Inputs))
	results := make([]lc.Result, len(st.Inputs))
	for i, in := range st.Inputs {
		data[i] = in.Bytes(EncPosit)
		comp, err := lc.NewCodec(pipe).Compress(data[i])
		if err != nil {
			t.Fatal(err)
		}
		results[i].Size = len(comp)
	}
	if err := st.verifyLC(EncPosit, pipe, data, results); err != nil {
		t.Fatalf("matching sizes: %v", err)
	}
	streamLen := results[1].Size
	results[1].Size++
	err = st.verifyLC(EncPosit, pipe, data, results)
	if err == nil {
		t.Fatal("a wrong search size passed verification")
	}
	for _, want := range []string{string(EncPosit), st.Inputs[1].Spec.Name, fmt.Sprint(streamLen), fmt.Sprint(streamLen + 1)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// TestProgressSerialized checks that Run never has two cell workers inside
// Progress at once, so a callback that writes one io.Writer needs no lock.
func TestProgressSerialized(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	lz4, err := all.Get("lz4")
	if err != nil {
		t.Fatal(err)
	}
	var calls, inFlight, overlaps atomic.Int32
	_, err = Run(Options{
		ValuesPerInput: 256,
		Codecs:         []compress.Codec{lz4},
		Workers:        2,
		Progress: func(string, ...interface{}) {
			calls.Add(1)
			if inFlight.Add(1) > 1 {
				overlaps.Add(1)
			}
			time.Sleep(time.Millisecond) // widen the window a second worker could enter
			inFlight.Add(-1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := overlaps.Load(); n > 0 {
		t.Errorf("%d of %d Progress calls overlapped another", n, calls.Load())
	}
}

func TestWriteCSVs(t *testing.T) {
	st := smallStudy(t)
	dir := t.TempDir()
	if err := st.WriteCSVs(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig3.csv", "fig4.csv", "fig5.csv", "fig6.csv", "precision.csv", "measurements.csv"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		if len(lines) < 2 {
			t.Errorf("%s: only %d lines", name, len(lines))
		}
	}
	// fig4.csv must include a delta column for every codec.
	b, _ := os.ReadFile(filepath.Join(dir, "fig4.csv"))
	if !strings.Contains(string(b), "delta_pct_vs_ieee") {
		t.Error("fig4.csv missing delta column")
	}
	// measurements has 8 codecs x 14 inputs x 2 encodings + header.
	b, _ = os.ReadFile(filepath.Join(dir, "measurements.csv"))
	if got := len(strings.Split(strings.TrimSpace(string(b)), "\n")); got != 8*14*2+1 {
		t.Errorf("measurements.csv rows: %d", got)
	}
}

func TestNarrowStorageStudy(t *testing.T) {
	st := smallStudy(t)
	rows, err := st.NarrowStorageStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 14 {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		// Half-width storage plus compression must beat plain-xz-on-f32
		// in effective ratio whenever the data is at all compressible.
		if r.EffectiveGain <= 1 {
			t.Errorf("%s: effective gain %.3f", r.Input, r.EffectiveGain)
		}
		if r.PrecisePct <= 0 || r.PrecisePct > 100 {
			t.Errorf("%s: precise %.2f", r.Input, r.PrecisePct)
		}
	}
	out, err := st.RenderNarrowStorage()
	if err != nil || !strings.Contains(out, "geomean") {
		t.Fatalf("render: %v", err)
	}
}

func TestSpecialPurposeStudy(t *testing.T) {
	st := smallStudy(t)
	rows, err := st.SpecialPurposeStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 14 {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		if r.PackRatio <= 0 || r.GeneralRatio <= 0 || r.BestGeneral == "" {
			t.Errorf("bad row %+v", r)
		}
	}
	out, err := st.RenderSpecialPurpose()
	if err != nil || !strings.Contains(out, "positpack") == false && out == "" {
		t.Fatalf("render: %v", err)
	}
}
