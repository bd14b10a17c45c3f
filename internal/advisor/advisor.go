// Package advisor implements adaptive codec selection: given a small
// deterministic sample of a stream, it fingerprints the sample's float
// structure, trial-compresses it through every candidate codec in parallel
// (including a shortlist of LC pipelines), and picks the codec — and for
// LC, the pipeline — for the whole stream. Decisions are cached in a
// bounded LRU keyed by the sample's content fingerprint, with single-flight
// de-duplication so concurrent identical streams share one set of trials.
// Every decision carries its evidence (fingerprint features, per-candidate
// sample ratios, confidence) and is recorded as a span subtree when the
// caller passes a trace span.
package advisor

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"positbench/internal/compress"
	"positbench/internal/compress/all"
	"positbench/internal/container"
	"positbench/internal/lc"
	"positbench/internal/pool"
	"positbench/internal/trace"
)

// Defaults for Config zero values.
const (
	// DefaultSampleBytes is the trial-compression sample budget: large
	// enough that general-purpose codecs reach steady-state ratios, small
	// enough that a full candidate sweep costs single-digit milliseconds.
	DefaultSampleBytes = 64 << 10
	// DefaultCacheSize bounds the decision LRU.
	DefaultCacheSize = 256
	// DefaultCodecName is the fallback codec when trials produce nothing
	// usable (corrupt sample, every candidate erroring): the registry's
	// best general-purpose ratio/speed compromise.
	DefaultCodecName = "zstd"
)

// DefaultLCPipelines is the LC shortlist trialed under the "lc" candidate:
// the repo's measured global-best pipeline on the synthetic corpus, the
// paper's published float and posit pipelines, and two transpose-family
// pipelines that win on smooth low-entropy fields. A full 14^3 search per
// request would cost seconds; the shortlist keeps the advise path in
// milliseconds while covering the pipeline families that actually win.
func DefaultLCPipelines() []string {
	return []string{
		"BIT|RLE|HUF",      // repo global best (EXPERIMENTS.md fig. 3/4)
		"DIFFMS|RARE|RAZE", // paper's float pipeline
		"DIFFNB|BIT|RZE",   // paper's posit pipeline
		"DIFF4|BYTE|RZE",   // word delta + byte transpose + zero runs
		"XOR4|BYTE|HUF",    // word xor + byte transpose + entropy coder
	}
}

// Config configures an Advisor. Zero values select the defaults above.
type Config struct {
	// Codecs are the candidate codecs (default the full registry). They
	// must be safe for concurrent use; the registry codecs are.
	Codecs []compress.Codec
	// LCPipelines lists "A|B|C" pipeline specs trialed under the "lc"
	// candidate (default DefaultLCPipelines; explicit empty non-nil slice
	// disables LC candidacy).
	LCPipelines []string
	// SampleBytes is the sampling budget handed to Sample.
	SampleBytes int
	// CacheSize bounds the decision LRU (< 0 disables caching entirely;
	// single-flight coalescing still applies).
	CacheSize int
	// Default names the fallback codec (default DefaultCodecName, or the
	// first candidate if that name is absent).
	Default string
	// Workers bounds concurrent trial compressions per decision (default
	// GOMAXPROCS).
	Workers int
}

// candidateSpec is one trial target: a registry codec, or one LC pipeline
// wrapped as a framed codec (so its trial size includes the same container
// overhead the registry codecs pay).
type candidateSpec struct {
	name     string
	pipeline string // non-empty only for LC
	codec    compress.Codec
}

// Advisor makes cached, traced codec decisions. Safe for concurrent use.
type Advisor struct {
	specs       []candidateSpec
	names       []string // unique candidate names, registry order, "lc" last
	byName      map[string]bool
	sampleBytes int
	def         candidateSpec
	workers     int
	cache       *lruCache

	decisions atomic.Int64
	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	fallbacks atomic.Int64
	chosen    map[string]*atomic.Int64 // keyed by candidate name, built at New
}

// New builds an Advisor from cfg.
func New(cfg Config) (*Advisor, error) {
	codecs := cfg.Codecs
	if codecs == nil {
		codecs = all.Codecs()
	}
	if len(codecs) == 0 && len(cfg.LCPipelines) == 0 {
		return nil, fmt.Errorf("advisor: no candidate codecs")
	}
	pipes := cfg.LCPipelines
	if pipes == nil {
		pipes = DefaultLCPipelines()
	}

	a := &Advisor{
		byName:      map[string]bool{},
		sampleBytes: cfg.SampleBytes,
		workers:     cfg.Workers,
		chosen:      map[string]*atomic.Int64{},
	}
	if a.sampleBytes <= 0 {
		a.sampleBytes = DefaultSampleBytes
	}
	size := cfg.CacheSize
	if size == 0 {
		size = DefaultCacheSize
	}
	a.cache = newLRUCache(size)

	for _, c := range codecs {
		name := c.Name()
		if a.byName[name] {
			return nil, fmt.Errorf("advisor: duplicate candidate %q", name)
		}
		a.byName[name] = true
		a.names = append(a.names, name)
		a.specs = append(a.specs, candidateSpec{name: name, codec: c})
		a.chosen[name] = &atomic.Int64{}
	}
	for _, spec := range pipes {
		pipe, err := lc.NewPipeline(strings.Split(spec, "|")...)
		if err != nil {
			return nil, fmt.Errorf("advisor: lc pipeline %q: %w", spec, err)
		}
		if !a.byName["lc"] {
			a.byName["lc"] = true
			a.names = append(a.names, "lc")
			a.chosen["lc"] = &atomic.Int64{}
		}
		a.specs = append(a.specs, candidateSpec{
			name:     "lc",
			pipeline: pipe.String(),
			codec:    container.Wrap(lc.NewCodec(pipe)),
		})
	}

	defName := cfg.Default
	if defName == "" {
		defName = DefaultCodecName
	}
	for _, s := range a.specs {
		if s.name == defName {
			a.def = s
			break
		}
	}
	if a.def.codec == nil {
		if cfg.Default != "" {
			return nil, fmt.Errorf("advisor: default codec %q not among candidates %v", cfg.Default, a.names)
		}
		a.def = a.specs[0]
	}
	return a, nil
}

// Names lists the candidate names in trial order ("lc" last when present).
func (a *Advisor) Names() []string { return append([]string(nil), a.names...) }

// Eligible reports whether name is an advisor candidate.
func (a *Advisor) Eligible(name string) bool { return a.byName[name] }

// SampleBytes reports the configured sampling budget.
func (a *Advisor) SampleBytes() int { return a.sampleBytes }

// Candidate is one trial outcome, kept on the decision as evidence.
type Candidate struct {
	Codec       string  `json:"codec"`
	Pipeline    string  `json:"pipeline,omitempty"`
	CompLen     int     `json:"comp_len"`
	SampleRatio float64 `json:"sample_ratio"`
	DurUS       int64   `json:"dur_us"`
	Err         string  `json:"err,omitempty"`
}

// Decision sources.
const (
	SourceTrial     = "trial"     // this call ran the trials
	SourceCache     = "cache"     // served from the LRU
	SourceCoalesced = "coalesced" // waited on a concurrent identical trial
)

// Decision is the advisor's verdict for one sampled stream.
type Decision struct {
	// Codec is the chosen codec name; Pipeline is set when Codec is "lc".
	Codec    string `json:"codec"`
	Pipeline string `json:"pipeline,omitempty"`
	// SampleRatio is the winner's compression ratio on the sample.
	SampleRatio float64 `json:"sample_ratio"`
	// Confidence is the winner's relative margin over the runner-up:
	// 1 - bestCompLen/runnerUpCompLen, in [0,1). 1.0 when only one
	// candidate succeeded; 0 when the decision is a fallback.
	Confidence float64 `json:"confidence"`
	// Fallback marks a decision where no trial succeeded and the advisor
	// degraded to the configured default codec instead of erroring.
	Fallback bool `json:"fallback,omitempty"`
	// Source says how this decision was obtained (trial/cache/coalesced).
	Source string `json:"source"`
	// Fingerprint is the sampled stream's feature evidence and cache key.
	Fingerprint Fingerprint `json:"fingerprint"`
	// Candidates holds every trial outcome, winner first by CompLen.
	Candidates []Candidate `json:"candidates,omitempty"`
}

// CacheHit reports whether the decision avoided running trials.
func (d Decision) CacheHit() bool { return d.Source != SourceTrial }

// Decide fingerprints sample (as produced by Sample) under hints and
// returns the cached or freshly-trialed decision. hints, when non-empty,
// restrict the candidate set to the named codecs; an unknown hint is the
// only error path — everything else degrades to the default codec with
// Fallback set. ctx bounds only the wait on a concurrent identical
// decision; the trials themselves are sub-millisecond-per-candidate and run
// to completion. The decision is recorded as an "advise" span subtree under
// parent.
func (a *Advisor) Decide(ctx context.Context, sample []byte, hints []string, parent *trace.Span) (Decision, error) {
	sp := parent.Child("advise")
	defer sp.End()
	sp.SetBytes(int64(len(sample)), 0)

	norm := normalizeHints(hints)
	for _, h := range norm {
		if !a.byName[h] {
			return Decision{}, fmt.Errorf("advisor: unknown hint %q (candidates %v)", h, a.names)
		}
	}

	t0 := time.Now()
	fp := fingerprintSample(sample, norm)
	sp.AddStage("fingerprint", time.Since(t0), int64(len(sample)), 0)

	dec, hit, f, leader := a.cache.lookup(fp.Key)
	switch {
	case hit:
		a.hits.Add(1)
		dec.Source = SourceCache
	case !leader:
		a.coalesced.Add(1)
		select {
		case <-f.done:
		case <-ctx.Done():
			return Decision{}, ctx.Err()
		}
		dec = f.dec
		dec.Source = SourceCoalesced
	default:
		a.misses.Add(1)
		dec = a.trial(sample, norm, fp, sp)
		a.cache.finish(fp.Key, f, dec)
	}

	a.decisions.Add(1)
	if dec.Fallback {
		a.fallbacks.Add(1)
	}
	if n := a.chosen[dec.Codec]; n != nil {
		n.Add(1)
	}
	sp.Annotate("codec", dec.Codec)
	if dec.Pipeline != "" {
		sp.Annotate("pipeline", dec.Pipeline)
	}
	sp.Annotate("source", dec.Source)
	sp.Annotate("confidence", fmt.Sprintf("%.3f", dec.Confidence))
	if dec.Fallback {
		sp.Annotate("fallback", "true")
	}
	return dec, nil
}

// trial runs every eligible candidate on the sample in parallel and picks
// the smallest output. Trial failures (errors or panics from a corrupt
// sample) are recorded on the candidate and excluded from the pick; if
// nothing succeeds the decision degrades to the default codec.
func (a *Advisor) trial(sample []byte, hints []string, fp Fingerprint, sp *trace.Span) Decision {
	want := func(name string) bool {
		if len(hints) == 0 {
			return true
		}
		for _, h := range hints {
			if h == name {
				return true
			}
		}
		return false
	}
	var specs []candidateSpec
	for _, s := range a.specs {
		if want(s.name) {
			specs = append(specs, s)
		}
	}

	cands := make([]Candidate, len(specs))
	if len(sample) > 0 {
		pool.Run(a.workers, len(specs), func(i int) {
			cands[i] = runTrial(specs[i], sample)
		})
	} else {
		for i, s := range specs {
			cands[i] = Candidate{Codec: s.name, Pipeline: s.pipeline, Err: "empty sample"}
		}
	}
	for _, c := range cands {
		sp.AddStage("trial:"+trialLabel(c), time.Duration(c.DurUS)*time.Microsecond,
			int64(len(sample)), int64(c.CompLen))
	}

	// Winner first, then ascending output size; failures last in trial
	// order. sort.SliceStable keeps candidate order deterministic on ties,
	// so identical samples always elect the identical winner.
	sort.SliceStable(cands, func(i, j int) bool {
		if (cands[i].Err == "") != (cands[j].Err == "") {
			return cands[i].Err == ""
		}
		if cands[i].Err != "" {
			return false
		}
		return cands[i].CompLen < cands[j].CompLen
	})

	dec := Decision{Source: SourceTrial, Fingerprint: fp, Candidates: cands}
	if len(cands) == 0 || cands[0].Err != "" {
		dec.Codec = a.def.name
		dec.Pipeline = a.def.pipeline
		dec.Fallback = true
		return dec
	}
	best := cands[0]
	dec.Codec = best.Codec
	dec.Pipeline = best.Pipeline
	dec.SampleRatio = best.SampleRatio
	dec.Confidence = 1
	if len(cands) > 1 && cands[1].Err == "" && cands[1].CompLen > 0 {
		dec.Confidence = 1 - float64(best.CompLen)/float64(cands[1].CompLen)
		if dec.Confidence < 0 {
			dec.Confidence = 0
		}
	}
	return dec
}

// runTrial compresses sample with one candidate, converting any panic into
// a trial error so one hostile sample cannot take down the advise path.
func runTrial(s candidateSpec, sample []byte) (cand Candidate) {
	cand = Candidate{Codec: s.name, Pipeline: s.pipeline}
	t0 := time.Now()
	defer func() {
		cand.DurUS = time.Since(t0).Microseconds()
		if p := recover(); p != nil {
			cand.CompLen, cand.SampleRatio = 0, 0
			cand.Err = fmt.Sprintf("panic: %v", p)
		}
	}()
	comp, err := s.codec.Compress(sample)
	if err != nil {
		cand.Err = err.Error()
		return cand
	}
	cand.CompLen = len(comp)
	cand.SampleRatio = compress.Ratio(len(sample), len(comp))
	return cand
}

// trialLabel names a trial stage: the codec name, or lc:<pipeline>.
func trialLabel(c Candidate) string {
	if c.Pipeline != "" {
		return c.Codec + ":" + c.Pipeline
	}
	return c.Codec
}

// CodecFor materializes the codec a decision names: the matching candidate
// for registry codecs, or a freshly framed LC codec for the decided
// pipeline.
func (a *Advisor) CodecFor(d Decision) (compress.Codec, error) {
	if d.Codec == "lc" {
		pipe, err := lc.NewPipeline(strings.Split(d.Pipeline, "|")...)
		if err != nil {
			return nil, fmt.Errorf("advisor: decision pipeline %q: %w", d.Pipeline, err)
		}
		return container.Wrap(lc.NewCodec(pipe)), nil
	}
	for _, s := range a.specs {
		if s.name == d.Codec {
			return s.codec, nil
		}
	}
	return nil, fmt.Errorf("advisor: decision codec %q not among candidates %v", d.Codec, a.names)
}

// Stats is a point-in-time advisor counter snapshot.
type Stats struct {
	Decisions   int64            `json:"decisions"`
	CacheHits   int64            `json:"cache_hits"`
	CacheMisses int64            `json:"cache_misses"`
	Coalesced   int64            `json:"coalesced"`
	Evictions   int64            `json:"evictions"`
	Fallbacks   int64            `json:"fallbacks"`
	CacheLen    int              `json:"cache_len"`
	HitRatePct  float64          `json:"hit_rate_pct"` // hits/(hits+misses)
	Chosen      map[string]int64 `json:"chosen,omitempty"`
}

// Stats snapshots the advisor's counters.
func (a *Advisor) Stats() Stats {
	st := Stats{
		Decisions:   a.decisions.Load(),
		CacheHits:   a.hits.Load(),
		CacheMisses: a.misses.Load(),
		Coalesced:   a.coalesced.Load(),
		Fallbacks:   a.fallbacks.Load(),
		Chosen:      map[string]int64{},
	}
	st.CacheLen, st.Evictions = a.cache.stats()
	if lookups := st.CacheHits + st.CacheMisses; lookups > 0 {
		st.HitRatePct = 100 * float64(st.CacheHits) / float64(lookups)
	}
	for name, n := range a.chosen {
		if v := n.Load(); v > 0 {
			st.Chosen[name] = v
		}
	}
	return st
}
