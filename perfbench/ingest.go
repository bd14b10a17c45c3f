package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"time"

	"positbench/internal/advisor"
	"positbench/internal/compress"
	"positbench/internal/compress/all"
	"positbench/internal/stats"
)

const (
	// ingestValues sizes each input the request bodies are cut from:
	// 256 KiB per input and encoding.
	ingestValues = 1 << 16
	// Bodies are 24-72 KiB, sent with ?chunk=16384, so most requests span
	// two to five chunks and take the engine's parallel path.
	ingestChunk   = 16 << 10
	ingestMinBody = 24 << 10
	ingestMaxBody = 72 << 10
	// hotBodies is the pool of repeated auto bodies. The set-up's warm-up
	// puts their decisions in the advisor's cache, so the timed phase
	// meets them as cache hits.
	hotBodies = 8
	// ingestDecideSamples bounds the samples the advisor section replays.
	ingestDecideSamples = 16
)

// ingestDeck fixes the operation mix per 25 operations: a quarter of the
// roundtrips compress through /v1/compress/auto, half of those on repeated
// bodies (decision-cache hits) and half on fresh cuts (misses), and a
// small share converts float32 to posit<32,3>. A short deck keeps the mix
// the same in every stretch of the window.
var ingestDeck = []struct {
	kind  string
	count int
}{{"direct", 18}, {"auto_hot", 3}, {"auto_fresh", 3}, {"convert", 1}}

// ingestEnv hosts one positd and pushes seeded request bodies through it
// from a closed loop of NumCPU clients, one connection each: a simulation
// pipeline that waits for each reply before sending its next field.
type ingestEnv struct {
	cfg    config
	rec    *recorder
	ct     *codecTallies
	corpus *corpus
	hot    []cut
	combos []ingestOp // one direct roundtrip per (codec, input, encoding)
	svc    *service
}

// cut is a request body: bytes [off, off+n) of one input in one encoding.
type cut struct{ input, enc, off, n int }

func (c *corpus) body(k cut) []byte { return c.enc[k.enc][k.input][k.off : k.off+k.n] }

// randomCut picks a word-aligned body of random size at a random offset.
func (c *corpus) randomCut(rng *rand.Rand, input, enc, minN, maxN int) cut {
	n := minN + 4*rng.Intn((maxN-minN)/4+1)
	size := len(c.enc[enc][input])
	return cut{input: input, enc: enc, off: 4 * rng.Intn((size-n)/4+1), n: n}
}

func setUpIngest(cfg config, rec *recorder, ct *codecTallies) (env, error) {
	e := &ingestEnv{cfg: cfg, rec: rec, ct: ct, corpus: makeCorpus(ingestValues)}
	// Direct roundtrip bodies are one cut per (codec, input, encoding),
	// the same for every seed, so the ratio the replies deliver is exact.
	fixed := rand.New(rand.NewSource(1))
	for _, codec := range all.Names() {
		for in := range e.corpus.names {
			for enc := 0; enc < 2; enc++ {
				body := e.corpus.randomCut(fixed, in, enc, ingestMinBody, ingestMaxBody)
				e.combos = append(e.combos, ingestOp{kind: "direct", codec: codec, body: body})
			}
		}
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	for i := 0; i < hotBodies; i++ {
		e.hot = append(e.hot, e.corpus.randomCut(rng, rng.Intn(len(e.corpus.names)), i%2, ingestMinBody, ingestMaxBody))
	}
	var codecs []compress.Codec
	if rec != nil {
		var err error
		if codecs, err = traceCodecs(all.Codecs(), rec, ct); err != nil {
			return nil, err
		}
	}
	var err error
	if e.svc, err = startPositd(codecs, 0, rec); err != nil {
		return nil, err
	}
	if err := e.warm(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// warm runs, untimed, one roundtrip per codec, one auto roundtrip per hot
// body and one convert, so lazy state in the codecs and the engine is
// built before timing starts and the hot bodies' decisions are cached.
func (e *ingestEnv) warm() error {
	cl := &ingestClient{http: newClient(nil), p: newPass(), ratios: map[ratioKey]*[2]int64{}}
	defer cl.http.close()
	ops := []ingestOp{{kind: "convert", body: e.hot[0]}} // hot[0] is an IEEE cut
	for i := 0; i < len(e.combos); i += len(e.combos) / len(all.Names()) {
		ops = append(ops, e.combos[i])
	}
	for _, h := range e.hot {
		ops = append(ops, ingestOp{kind: "auto", body: h})
	}
	for i, op := range ops {
		id := fmt.Sprintf("warm-%d", i)
		e.requests(cl, op, e.corpus.body(op.body), id, id)
	}
	if cl.p.failed > 0 {
		return fmt.Errorf("warm-up: %d requests failed: %v", cl.p.failed, cl.p.notes)
	}
	return nil
}

func (e *ingestEnv) close() { e.svc.close() }

// ingestOp is one operation of a client's seeded sequence.
type ingestOp struct {
	kind  string
	codec string
	body  cut
}

// ingestGen yields one client's operations. Kinds come from a shuffled
// ingestDeck per 25 operations; direct roundtrips cycle through every
// (codec, input, encoding) in a seeded order, so every codec runs in both
// directions on every input in both encodings. Auto and convert bodies
// are cut at seeded offsets.
type ingestGen struct {
	e      *ingestEnv
	rng    *rand.Rand
	deck   []string
	combos []ingestOp
	direct int
}

func (e *ingestEnv) newGen(client int) *ingestGen {
	g := &ingestGen{e: e, rng: rand.New(rand.NewSource(e.cfg.seed*7919 + int64(client) + 1))}
	for _, d := range ingestDeck {
		for i := 0; i < d.count; i++ {
			g.deck = append(g.deck, d.kind)
		}
	}
	// Direct roundtrips go in rounds that hold every codec once, so each
	// stretch of the window has the same codec mix; the seed orders the
	// codecs within a round and each codec's (input, encoding) pairs.
	// Clients walk the same order from evenly spaced rounds, so together
	// they cover every combination early in the window.
	order := rand.New(rand.NewSource(e.cfg.seed))
	codecs := len(all.Names())
	pairs := len(e.combos) / codecs
	perm := make([][]int, codecs)
	for c := range perm {
		perm[c] = order.Perm(pairs)
	}
	for round := 0; round < pairs; round++ {
		for _, c := range order.Perm(codecs) {
			g.combos = append(g.combos, e.combos[c*pairs+perm[c][round]])
		}
	}
	g.direct = codecs * (client * pairs / runtime.NumCPU())
	return g
}

func (g *ingestGen) next(seq int) ingestOp {
	if seq%len(g.deck) == 0 {
		g.rng.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
	}
	c := g.e.corpus
	switch kind := g.deck[seq%len(g.deck)]; kind {
	case "direct":
		op := g.combos[g.direct%len(g.combos)]
		g.direct++
		return op
	case "auto_hot":
		return ingestOp{kind: "auto", body: g.e.hot[g.rng.Intn(len(g.e.hot))]}
	case "auto_fresh":
		return ingestOp{kind: "auto", body: c.randomCut(g.rng, g.rng.Intn(len(c.names)), g.rng.Intn(2), ingestMinBody, ingestMaxBody)}
	default:
		return ingestOp{kind: "convert", body: c.randomCut(g.rng, g.rng.Intn(len(c.names)), 0, ingestMinBody, ingestMaxBody)}
	}
}

// ingestClient is one closed-loop client's state and tallies.
type ingestClient struct {
	gen        *ingestGen
	http       *client
	p          *pass
	ratios     map[ratioKey]*[2]int64 // direct roundtrips: raw, compressed bytes
	autoBodies []cut                  // for the advisor section
}

func (e *ingestEnv) measure() *pass {
	p := newPass()
	if e.ct != nil {
		e.ct.reset()
	}
	clients := make([]*ingestClient, runtime.NumCPU())
	for i := range clients {
		clients[i] = &ingestClient{gen: e.newGen(i), http: newClient(e.rec), p: newPass(), ratios: map[ratioKey]*[2]int64{}}
	}
	before, eng0 := readRuntime(), compress.EngineSnapshot()
	start := time.Now()
	perClient := closedLoop(len(clients), e.cfg.window, func(c, seq int) []sample {
		return e.do(clients[c], c, seq)
	})
	elapsed := time.Since(start)
	after, eng1 := readRuntime(), compress.EngineSnapshot()
	engineLayers(eng0, eng1, elapsed, p)
	p.e2e["live_heap_mb"] = liveHeapMB()

	var all []sample
	ratios := map[ratioKey]*[2]int64{}
	var autoSamples []cut
	for i, cl := range clients {
		cl.http.close()
		all = append(all, perClient[i]...)
		p.attempted += cl.p.attempted
		p.failed += cl.p.failed
		p.mismatches += cl.p.mismatches
		p.notes = append(p.notes, cl.p.notes...)
		for k, v := range cl.p.digests {
			p.digests[k] = v
		}
		for k, v := range cl.ratios {
			ratios[k] = v
		}
		autoSamples = append(autoSamples, cl.autoBodies...)
		p.rejected += cl.p.rejected
	}
	p.layers["server.rejected_429"] = float64(p.rejected)

	var verified, ops int64
	for _, s := range all {
		if s.kind == "op" && s.ok {
			verified += s.bytes
			ops++
		}
	}
	after.since(before, ops, p)
	lat := func(q float64, kinds ...string) float64 { return quantile(latencies(all, e.cfg.window, kinds...), q) }
	// The gated median is the compress route's: the request a pushing
	// pipeline waits on first. The median over all operations would sit
	// between codec clusters and move with their mix, not with speed.
	p.e2e["p50_ms"] = lat(0.5, "compress")
	p.e2e["mb_s"] = float64(verified) / 1e6 / elapsed.Seconds()
	p.e2e["ratio_ieee"], p.e2e["ratio_posit"] = ratioByEncoding(ratios)
	count := func(kind string) int { return len(latencies(all, 0, kind)) }
	p.named = []named{
		{"ingest_mb_s", "MB/s", p.e2e["mb_s"]},
		{"compress_p50_ms", "ms", lat(0.5, "compress")},
		{"compress_p99_ms", "ms", lat(0.99, "compress")},
		{"decompress_p50_ms", "ms", lat(0.5, "decompress")},
		{"decompress_p99_ms", "ms", lat(0.99, "decompress")},
		{"auto_miss_p50_ms", "ms", lat(0.5, "auto_miss")},
		{"auto_hit_p50_ms", "ms", lat(0.5, "auto_hit")},
		{"compress_n", "requests", float64(count("compress"))},
		{"decompress_n", "requests", float64(count("decompress"))},
		{"auto_miss_n", "requests", float64(count("auto_miss"))},
		{"auto_hit_n", "requests", float64(count("auto_hit"))},
		{"convert_n", "requests", float64(count("convert"))},
	}

	if m, err := positdStats(e.svc); err != nil {
		p.fail(false, "positd /metrics: %v", err)
	} else {
		p.layers["advisor.hit_pct"] = m.Advisor.HitRatePct
		p.layers["advisor.coalesced"] = float64(m.Advisor.Coalesced)
	}
	if e.rec != nil {
		requestLayers(e.rec, start, "server", p)
		e.decideLayers(autoSamples, p)
	}
	return p
}

// do performs operation seq of client c. It returns one sample per
// request and, last, an "op" sample: the operation's total latency, and
// its body's bytes when every request succeeded and the output verified.
func (e *ingestEnv) do(cl *ingestClient, c, seq int) []sample {
	op := cl.gen.next(seq)
	body := e.corpus.body(op.body)
	reqs := e.requests(cl, op, body, fmt.Sprintf("i%d-%d", c, seq), fmt.Sprintf("%d/%d", c, seq))
	total := sample{kind: "op", ok: true, bytes: int64(len(body))}
	for _, r := range reqs {
		total.lat += r.lat
		total.ok = total.ok && r.ok
	}
	if len(reqs) < 2 && op.kind != "convert" {
		total.ok = false // a compress that failed sends no decompress
	}
	return append(reqs, total)
}

// requests sends op's requests: a convert, or a compress and the
// decompress of its reply. It checks every output.
func (e *ingestEnv) requests(cl *ingestClient, op ingestOp, body []byte, id, opKey string) []sample {
	if op.kind == "convert" {
		r := cl.send(http.MethodPost, e.svc.url+"/v1/convert?to=posit&n=32&es=3", id, body)
		s := sample{kind: "convert", lat: r.lat, ok: r.ok()}
		if s.ok && !bytes.Equal(r.body, e.corpus.enc[1][op.body.input][op.body.off:op.body.off+op.body.n]) {
			s.ok = false
			cl.p.fail(true, "convert %s: response differs from posit.Posit32e3 of the body", opKey)
		}
		if s.ok {
			cl.p.digests[opKey] = digest(r.body)
		}
		return []sample{s}
	}

	url := e.svc.url + "/v1/compress/" + op.codec + fmt.Sprintf("?chunk=%d", ingestChunk)
	if op.kind == "auto" {
		url = e.svc.url + fmt.Sprintf("/v1/compress/auto?chunk=%d", ingestChunk)
		cl.autoBodies = append(cl.autoBodies, op.body)
	}
	comp := cl.send(http.MethodPost, url, id+"c", body)
	first := sample{kind: "compress", lat: comp.lat, ok: comp.ok()}
	if op.kind == "auto" {
		first.kind = "auto_hit"
		if comp.header.Get("X-Positd-Auto-Source") == advisor.SourceTrial {
			first.kind = "auto_miss"
		}
	}
	if !first.ok {
		return []sample{first}
	}
	back := cl.send(http.MethodPost, e.svc.url+"/v1/decompress", id+"d", comp.body)
	second := sample{kind: "decompress", lat: back.lat, ok: back.ok()}
	if second.ok && !bytes.Equal(back.body, body) {
		second.ok = false
		cl.p.fail(true, "roundtrip %s (%s): decompressed bytes differ from the body", opKey, op.kind+op.codec)
	}
	if second.ok {
		if op.kind == "direct" {
			cl.ratios[ratioKey{op.codec, op.body.input, op.body.enc}] = &[2]int64{int64(len(body)), int64(len(comp.body))}
		}
		cl.p.digests[opKey] = digest(comp.body, back.body, []byte(comp.header.Get("X-Positd-Codec")))
	}
	return []sample{first, second}
}

// send issues one request and books it as attempted, or failed when it
// does not come back 2xx.
func (cl *ingestClient) send(method, url, id string, body []byte) reply {
	cl.p.attempted++
	r := cl.http.do(method, url, id, body, nil)
	cl.p.countRejected(r)
	if !r.ok() {
		cl.p.fail(false, "%s %s: %s", method, url, r.describe())
	}
	return r
}

// ratioKey names one (codec, input, encoding).
type ratioKey struct {
	codec      string
	input, enc int
}

// ratioByEncoding is the geomean over (codec, input) of the compression
// ratio each delivered, per encoding.
// The keys are taken in a fixed order so the floating-point result repeats
// to the last digit.
func ratioByEncoding(ratios map[ratioKey]*[2]int64) (ieee, posit float64) {
	keys := make([]ratioKey, 0, len(ratios))
	for k := range ratios {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.codec != b.codec {
			return a.codec < b.codec
		}
		if a.input != b.input {
			return a.input < b.input
		}
		return a.enc < b.enc
	})
	var rs [2][]float64
	for _, k := range keys {
		if v := ratios[k]; v[1] > 0 {
			rs[k.enc] = append(rs[k.enc], float64(v[0])/float64(v[1]))
		}
	}
	return stats.GeoMean(rs[0]), stats.GeoMean(rs[1])
}

// decideLayers times advisor.New plus Decide on the workload's own auto
// samples: each distinct sample's first Decide is a miss (it runs the
// trials), the repeat is a hit.
func (e *ingestEnv) decideLayers(samples []cut, p *pass) {
	adv, err := advisor.New(advisor.Config{})
	if err != nil {
		p.fail(false, "advisor.New: %v", err)
		return
	}
	seen := map[cut]bool{}
	var miss, hit []float64
	for _, k := range samples {
		if seen[k] || len(seen) == ingestDecideSamples {
			continue
		}
		seen[k] = true
		body := e.corpus.body(k)
		sample := body[:min(len(body), adv.SampleBytes())]
		for i, dst := range []*[]float64{&miss, &hit} {
			t0 := time.Now()
			dec, err := adv.Decide(context.Background(), sample, nil, nil)
			t1 := time.Now()
			if err != nil || dec.CacheHit() != (i == 1) {
				p.fail(false, "advisor.Decide: hit=%v err=%v", dec.CacheHit(), err)
				continue
			}
			*dst = append(*dst, ms(t1.Sub(t0)))
			e.rec.add("advisor.decide."+dec.Source, "", 0, t0, t1, int64(len(sample)))
		}
	}
	p.layers["advisor.decide_miss_ms"] = median(miss)
	p.layers["advisor.decide_hit_ms"] = median(hit)
}
