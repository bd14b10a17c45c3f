package main

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"positbench/internal/compress"
	"positbench/internal/compress/all"
	"positbench/internal/core"
	"positbench/internal/lc"
	"positbench/internal/sdrbench"
	"positbench/internal/stats"
)

const (
	// studyValues is the study's fixed reduced scale: float32 values per
	// input. One core.Run at this scale takes a few seconds on two cores.
	studyValues = 2048
	// warmValues is the scale of the set-up's warm-up study, which
	// generates and converts the inputs and runs every registry codec with
	// verification once before timing.
	warmValues = 256
	// cellFormat is the Progress format core.Run prints once per finished
	// registry-codec cell.
	cellFormat = "%-6s %-26s %-5s ratio %.3f"
)

// studyEnv runs core.Run exactly as cmd/repro does for "-exp all -verify":
// both encodings, every registry codec, the LC search and selection, and
// Verify on. The seed has no effect: the inputs are the 14 fixed
// generators.
type studyEnv struct {
	cfg    config
	rec    *recorder
	codecs []compress.Codec // nil: the registry defaults
	ct     *codecTallies
}

func setUpStudy(cfg config, rec *recorder, ct *codecTallies) (env, error) {
	e := &studyEnv{cfg: cfg, rec: rec, ct: ct}
	if rec != nil {
		var err error
		if e.codecs, err = traceCodecs(all.Codecs(), rec, ct); err != nil {
			return nil, err
		}
	}
	if _, err := core.Run(core.Options{ValuesPerInput: warmValues, Codecs: e.codecs, Verify: true}); err != nil {
		return nil, fmt.Errorf("warm-up study: %w", err)
	}
	return e, nil
}

func (e *studyEnv) close() {}

// phases are the Progress timestamps of one traced core.Run.
type phases struct {
	start, prepared, lastCell time.Time
	lcLines                   []time.Time
}

func (e *studyEnv) measure() *pass {
	p := newPass()
	if e.ct != nil {
		e.ct.reset()
	}
	var runs []float64
	var first *core.Study
	var phs []phases
	before := readRuntime()
	start := time.Now()
	for p.attempted == 0 || time.Since(start) < e.cfg.window {
		ph := phases{start: time.Now()}
		opts := core.Options{ValuesPerInput: studyValues, Codecs: e.codecs, WithLC: true, Verify: true}
		if e.rec != nil {
			var mu sync.Mutex // codec cells report from their own goroutines
			opts.Progress = func(format string, _ ...interface{}) {
				now := time.Now()
				mu.Lock()
				defer mu.Unlock()
				switch {
				case strings.HasPrefix(format, "prepared"):
					ph.prepared = now
				case format == cellFormat:
					ph.lastCell = now
				case strings.HasPrefix(format, "lc global pipeline"):
					ph.lcLines = append(ph.lcLines, now)
				}
			}
		}
		p.attempted++
		st, err := core.Run(opts)
		end := time.Now()
		if err != nil {
			p.fail(true, "core.Run: %v", err)
			continue
		}
		runs = append(runs, end.Sub(ph.start).Seconds())
		e.record(ph, end)
		phs = append(phs, ph)
		switch {
		case first == nil:
			first = st
			p.digests["study"] = studyDigest(st)
		case studyDigest(st) != p.digests["study"]:
			p.fail(true, "core.Run gave different measurements on a repeated run")
		}
	}
	readRuntime().since(before, p.attempted, p)
	p.layers["alloc_mb"] /= float64(p.attempted)
	p.layers["gc_cycles"] /= float64(p.attempted)
	p.e2e["live_heap_mb"] = liveHeapMB()
	if first == nil {
		return p
	}

	inputMB := float64(2*len(sdrbench.Inputs())*studyValues*4) / 1e6
	studyS := median(append([]float64(nil), runs...))
	p.e2e["p50_ms"] = studyS * 1e3
	p.e2e["mb_s"] = inputMB / studyS
	p.e2e["ratio_ieee"] = studyRatio(first, core.EncIEEE)
	p.e2e["ratio_posit"] = studyRatio(first, core.EncPosit)
	p.named = []named{
		{"study_s", "s", studyS},
		{"ratio_ieee", "x", p.e2e["ratio_ieee"]},
		{"ratio_posit", "x", p.e2e["ratio_posit"]},
	}
	if e.rec != nil {
		e.phaseLayers(phs, p)
	}
	return p
}

// record turns one run's Progress timestamps into spans.
func (e *studyEnv) record(ph phases, end time.Time) {
	if e.rec == nil || len(ph.lcLines) < 2 {
		return
	}
	root := e.rec.add("core.run", "", 0, ph.start, end, 0)
	e.rec.add("core.prepare", "", root, ph.start, ph.prepared, 0)
	e.rec.add("core.codecs", "", root, ph.prepared, ph.lastCell, 0)
	e.rec.add("lc.search", "", root, ph.lastCell, ph.lcLines[1], 0)
}

// phaseLayers reports the median phase times over the traced runs: the
// "prepared" line ends the prepare phase, the last cell line ends the
// codec phase, and the second "lc global pipeline" line ends the search.
func (e *studyEnv) phaseLayers(phs []phases, p *pass) {
	var prep, codecs, search []float64
	for _, ph := range phs {
		if ph.prepared.IsZero() || ph.lastCell.IsZero() || len(ph.lcLines) < 2 {
			p.fail(true, "core.Run progress lines changed; cannot split its phases")
			return
		}
		prep = append(prep, ph.prepared.Sub(ph.start).Seconds())
		codecs = append(codecs, ph.lastCell.Sub(ph.prepared).Seconds())
		search = append(search, ph.lcLines[1].Sub(ph.lastCell).Seconds())
	}
	p.layers["core.prepare_s"] = median(prep)
	p.layers["core.codecs_s"] = median(codecs)
	p.layers["lc.search_s"] = median(search)
	trials := float64(2 * len(sdrbench.Inputs()) * lc.PipelineCount())
	p.layers["lc.pipelines_per_s"] = trials / p.layers["lc.search_s"]
}

// studyRatio is the geomean compression ratio over every (codec, input)
// cell of one encoding, lc included: the mean of Figure 3's (IEEE) or
// Figure 4's (posit) bars.
func studyRatio(st *core.Study, enc core.Encoding) float64 {
	var rs []float64
	for _, m := range st.Measurements {
		if m.Encoding == enc {
			rs = append(rs, m.Ratio)
		}
	}
	return stats.GeoMean(rs)
}

// studyDigest identifies every measurement of a study, so repeated and
// traced runs can be compared.
func studyDigest(st *core.Study) string {
	var b strings.Builder
	for _, m := range st.Measurements {
		fmt.Fprintf(&b, "%s|%s|%s|%d|%d\n", m.Codec, m.Input, m.Encoding, m.OrigLen, m.CompLen)
	}
	fmt.Fprintf(&b, "%s|%s\n", st.LCFloatPipeline, st.LCPositPipeline)
	return digest([]byte(b.String()))
}
