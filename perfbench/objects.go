package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"positbench/internal/compress"
	"positbench/internal/compress/all"
)

const (
	// Objects: every codec x encoding x objVariants keys, each objSize raw
	// bytes in objChunk chunks, with two pre-compressed versions a PUT
	// overwrite alternates between.
	objVariants = 2
	objSize     = 128 << 10
	objChunk    = 16 << 10
	// objValues sizes the inputs the objects are cut from: room for both
	// versions of an object.
	objValues = 2 * objSize / 4
	// objBackends is the number of positd behind the gateway.
	objBackends = 2
	// objRate is the open loop's fixed rate, well under what two cores
	// serve, so the schedule, not the system, sets the offered load.
	objRate = 150
	// objWarmReads is the untimed read pass that fills the chunk caches.
	objWarmReads = 300
	// objZipfS skews reads toward the first keys; the key order puts one
	// key of every codec among the hottest.
	objZipfS = 1.2
	// objCacheShare sets each backend's chunk-cache budget to a third of
	// the raw bytes it holds: the working set does not fit, the hot keys do.
	objCacheShare = 3
)

// objectsDeck fixes the operation mix per 20 operations: ranged reads
// inside one chunk, ranged reads spanning several chunks, a few
// whole-object reads, and PUT overwrites. Reads inside one chunk are most
// of the traffic, so the median request is one of them.
var objectsDeck = []struct {
	kind  string
	count int
}{{"read_chunk", 14}, {"read_span", 4}, {"read_whole", 1}, {"put", 1}}

// object is one key: its codec, and the raw and compressed bytes of both
// versions.
type object struct {
	key   string
	codec string
	enc   int
	raw   [2][]byte
	comp  [2][]byte

	mu       sync.Mutex
	version  int   // the version stored, when no PUT is in flight
	inflight int   // PUTs sent and not yet answered
	epoch    int64 // bumped whenever a PUT starts or ends
	unsure   bool  // overlapping or failed PUTs left the stored version unknown
}

// objectsEnv hosts two positd backends behind one positgw and serves
// random-access reads out of stored objects: the ranged-read path through
// gateway routing, ReaderAt chunk location, the chunk cache and decode.
type objectsEnv struct {
	cfg      config
	rec      *recorder
	ct       *codecTallies
	objs     []*object
	backends []*service
	gw       *service
}

func setUpObjects(cfg config, rec *recorder, ct *codecTallies) (env, error) {
	e := &objectsEnv{cfg: cfg, rec: rec, ct: ct}
	c := makeCorpus(objValues)
	codecs := all.Names()
	for v := 0; v < objVariants; v++ {
		for enc := 0; enc < 2; enc++ {
			for _, codec := range codecs {
				// The stored objects are the same for every seed, so the
				// ratio they compress to is exact; the seed drives the
				// traffic. Every key has its own (codec, encoding, input),
				// with versions at the input's first and second objSize
				// bytes.
				input := (len(e.objs) + v*len(c.names)/2) % len(c.names)
				o := &object{key: fmt.Sprintf("%s-%s-%d", codec, encNames[enc], v), codec: codec, enc: enc}
				for ver := range o.raw {
					o.raw[ver] = c.body(cut{input: input, enc: enc, off: ver * objSize, n: objSize})
				}
				e.objs = append(e.objs, o)
			}
		}
	}
	cacheBytes := int64(len(e.objs)*objSize) / (objBackends * objCacheShare)
	var wrapped []compress.Codec
	if rec != nil {
		var err error
		if wrapped, err = traceCodecs(all.Codecs(), rec, ct); err != nil {
			return nil, err
		}
	}
	var urls []string
	for i := 0; i < objBackends; i++ {
		svc, err := startPositd(wrapped, cacheBytes, rec)
		if err != nil {
			e.close()
			return nil, err
		}
		e.backends = append(e.backends, svc)
		urls = append(urls, svc.url)
	}
	var err error
	if e.gw, err = startPositgw(urls, rec); err != nil {
		e.close()
		return nil, err
	}
	if err := e.preload(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// preload compresses both versions of every object through the gateway,
// stores version 0, and warms the caches with an untimed read pass.
func (e *objectsEnv) preload() error {
	jobs := make(chan int)
	errs := make([]error, runtime.NumCPU())
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := newClient(nil)
			defer cl.close()
			for j := range jobs {
				o, ver := e.objs[j/2], j%2
				url := fmt.Sprintf("%s/v1/compress/%s?chunk=%d", e.gw.url, o.codec, objChunk)
				r := cl.do(http.MethodPost, url, fmt.Sprintf("setup-z%d", j), o.raw[ver], nil)
				if !r.ok() && errs[w] == nil {
					errs[w] = fmt.Errorf("compress %s v%d: %s", o.key, ver, r.describe())
				}
				// An exact-size copy: the benchmark's own share of the live
				// heap must not depend on how ReadAll's buffer grew.
				o.comp[ver] = bytes.Clone(r.body)
			}
		}(w)
	}
	for j := 0; j < 2*len(e.objs); j++ {
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	cl := newClient(nil)
	defer cl.close()
	for _, o := range e.objs {
		r := cl.do(http.MethodPut, e.gw.url+"/v1/objects/"+o.key, "setup-put-"+o.key, o.comp[0], nil)
		if !r.ok() {
			return fmt.Errorf("PUT %s: %s", o.key, r.describe())
		}
	}
	p := newPass()
	gen := e.newGen(-1)
	for i := 0; i < objWarmReads; i++ {
		if op := gen.next(i); op.kind != "put" {
			e.read(cl, op, fmt.Sprintf("setup-r%d", i), p)
		}
	}
	if p.failed > 0 {
		return fmt.Errorf("warm-up reads: %d failed: %v", p.failed, p.notes)
	}
	return nil
}

func (e *objectsEnv) close() {
	if e.gw != nil {
		e.gw.close()
	}
	for _, b := range e.backends {
		b.close()
	}
}

// objectsOp is one scheduled operation.
type objectsOp struct {
	kind    string
	obj     *object
	off, n  int // read window; n == 0 reads the whole object
	version int // the version a PUT stores
}

// objectsGen yields the seeded operation schedule. Kinds come from a
// shuffled objectsDeck per 20 operations; ranged reads pick keys
// Zipf-skewed, whole-object reads and PUTs go round-robin over the keys,
// and each PUT stores the key's other version.
type objectsGen struct {
	e      *objectsEnv
	rng    *rand.Rand
	zipf   *rand.Zipf
	deck   []string
	puts   int
	wholes int
}

func (e *objectsEnv) newGen(salt int64) *objectsGen {
	rng := rand.New(rand.NewSource(e.cfg.seed*104729 + salt))
	g := &objectsGen{e: e, rng: rng, zipf: rand.NewZipf(rng, objZipfS, 1, uint64(len(e.objs)-1))}
	for _, d := range objectsDeck {
		for i := 0; i < d.count; i++ {
			g.deck = append(g.deck, d.kind)
		}
	}
	return g
}

func (g *objectsGen) next(i int) objectsOp {
	if i%len(g.deck) == 0 {
		g.rng.Shuffle(len(g.deck), func(a, b int) { g.deck[a], g.deck[b] = g.deck[b], g.deck[a] })
	}
	op := objectsOp{kind: g.deck[i%len(g.deck)]}
	switch op.kind {
	case "put":
		op.obj = g.e.objs[g.puts%len(g.e.objs)]
		op.version = (g.puts/len(g.e.objs) + 1) % 2
		g.puts++
		return op
	case "read_chunk":
		op.obj = g.e.objs[g.zipf.Uint64()]
		op.n = 512 + 4*g.rng.Intn((objChunk/2-512)/4+1)
		op.off = g.rng.Intn(objSize/objChunk)*objChunk + 4*g.rng.Intn((objChunk-op.n)/4+1)
	case "read_span":
		op.obj = g.e.objs[g.zipf.Uint64()]
		op.n = objChunk + 4*g.rng.Intn((3*objChunk)/4+1)
		op.off = 4 * g.rng.Intn((objSize-op.n)/4+1)
	default:
		// Whole-object reads sweep the keys in order, so every run has the
		// same cold, whole-object decodes in its tail.
		op.obj = g.e.objs[g.wholes%len(g.e.objs)]
		g.wholes++
	}
	op.kind = "read"
	return op
}

// read performs one GET /v1/read and checks the body against the raw
// bytes of the version stored. While a PUT of the key is in flight, or
// after PUTs left it unknown, either version's bytes are accepted.
func (e *objectsEnv) read(cl *client, op objectsOp, id string, p *pass) sample {
	o := op.obj
	o.mu.Lock()
	ver, epoch, sure := o.version, o.epoch, o.inflight == 0 && !o.unsure
	o.mu.Unlock()

	var hdr map[string]string
	if op.n > 0 {
		hdr = map[string]string{"Range": fmt.Sprintf("bytes=%d-%d", op.off, op.off+op.n-1)}
	}
	p.attempted++
	r := cl.do(http.MethodGet, e.gw.url+"/v1/read/"+o.key, id, nil, hdr)
	p.countRejected(r)
	s := sample{kind: "read", lat: r.lat, ok: r.ok()}
	if !s.ok {
		p.fail(false, "read %s: %s", o.key, r.describe())
		return s
	}
	o.mu.Lock()
	sure = sure && o.epoch == epoch
	o.mu.Unlock()
	window := func(v int) []byte {
		if op.n == 0 {
			return o.raw[v]
		}
		return o.raw[v][op.off : op.off+op.n]
	}
	switch {
	case bytes.Equal(r.body, window(ver)):
	case !sure && bytes.Equal(r.body, window(1-ver)):
		ver = 1 - ver
	default:
		s.ok = false
		p.fail(true, "read %s [%d,+%d): body differs from the stored version's bytes", o.key, op.off, op.n)
		return s
	}
	s.bytes = int64(len(r.body))
	if sure {
		// Keyed by version too: which version a read meets depends on how
		// it raced the PUTs, so passes compare only reads of one version.
		p.digests[fmt.Sprintf("%s/v%d", id, ver)] = digest(r.body)
	}
	return s
}

// put overwrites an object with its other pre-compressed version.
func (e *objectsEnv) put(cl *client, op objectsOp, id string, p *pass) sample {
	o := op.obj
	o.mu.Lock()
	if o.inflight > 0 {
		o.unsure = true
	}
	o.inflight++
	o.epoch++
	o.mu.Unlock()

	p.attempted++
	r := cl.do(http.MethodPut, e.gw.url+"/v1/objects/"+o.key, id, o.comp[op.version], nil)
	p.countRejected(r)
	s := sample{kind: "put", lat: r.lat, ok: r.ok()}

	o.mu.Lock()
	o.inflight--
	o.epoch++
	if s.ok {
		o.version = op.version
	} else {
		o.unsure = true
	}
	o.mu.Unlock()
	if !s.ok {
		p.fail(false, "PUT %s: %s", o.key, r.describe())
		return s
	}
	s.bytes = int64(len(o.comp[op.version]))
	p.digests[id] = fmt.Sprint(r.status)
	return s
}

func (e *objectsEnv) measure() *pass {
	p := newPass()
	if e.ct != nil {
		e.ct.reset()
	}
	n := int(e.cfg.window.Seconds() * objRate)
	due := make([]time.Duration, n)
	ops := make([]objectsOp, n)
	gen := e.newGen(0)
	for i := range due {
		due[i] = time.Duration(i) * time.Second / objRate
		ops[i] = gen.next(i)
	}
	conns := runtime.NumCPU()
	clients := make([]*client, conns)
	passes := make([]*pass, conns)
	for i := range clients {
		clients[i], passes[i] = newClient(e.rec), newPass()
	}

	st0, err := e.backendStats()
	if err != nil {
		p.fail(false, "metrics before the timed phase: %v", err)
	}
	tries0, err := positgwTries(e.gw)
	if err != nil {
		p.fail(false, "positgw /metrics: %v", err)
	}
	before, eng0 := readRuntime(), compress.EngineSnapshot()
	start := time.Now()
	samples := openLoop(conns, due, func(w, i int) sample {
		id := fmt.Sprintf("o%d", i)
		if ops[i].kind == "put" {
			return e.put(clients[w], ops[i], id, passes[w])
		}
		return e.read(clients[w], ops[i], id, passes[w])
	})
	elapsed := time.Since(start)
	after, eng1 := readRuntime(), compress.EngineSnapshot()
	p.e2e["live_heap_mb"] = liveHeapMB()
	for i, cl := range clients {
		cl.close()
		q := passes[i]
		p.attempted += q.attempted
		p.failed += q.failed
		p.mismatches += q.mismatches
		p.rejected += q.rejected
		p.notes = append(p.notes, q.notes...)
		for k, v := range q.digests {
			p.digests[k] = v
		}
	}

	var served, reads, ok int64
	var lags []float64
	for _, s := range samples {
		if s.ok && s.kind == "read" {
			served += s.bytes
			reads++
		}
		if s.ok {
			ok++
		}
		lags = append(lags, ms(s.lag))
	}
	after.since(before, ok, p)
	lat := func(q float64, kinds ...string) float64 {
		return quantile(latencies(samples, e.cfg.window, kinds...), q)
	}
	p.e2e["p50_ms"] = lat(0.5, "read")
	p.e2e["mb_s"] = float64(served) / 1e6 / elapsed.Seconds()
	p.e2e["ratio_ieee"], p.e2e["ratio_posit"] = e.storedRatios()
	p.named = []named{
		{"read_p50_ms", "ms", lat(0.5, "read")},
		{"read_p99_ms", "ms", lat(0.99, "read")},
		{"put_p50_ms", "ms", lat(0.5, "put")},
		{"read_n", "requests", float64(len(latencies(samples, 0, "read")))},
		{"put_n", "requests", float64(len(latencies(samples, 0, "put")))},
	}

	p.layers["server.rejected_429"] = float64(p.rejected)
	p.layers["loadgen.lag_p99_ms"] = quantile(lags, 0.99)
	if reads > 0 && served > 0 {
		p.layers["container.read_amp"] = float64(eng1.RangeBytesOut-eng0.RangeBytesOut) / float64(served)
		p.layers["container.chunks_per_read"] = float64(eng1.RangeChunks-eng0.RangeChunks) / float64(reads)
	}
	if tries1, err := positgwTries(e.gw); err == nil && n > 0 {
		p.layers["gateway.tries_per_req"] = float64(tries1-tries0) / float64(n)
	}
	if st1, err := e.backendStats(); err == nil {
		lookups := st1.lookups - st0.lookups
		if lookups > 0 {
			p.layers["chunkcache.hit_pct"] = 100 * float64(st1.hits-st0.hits) / float64(lookups)
		}
		p.layers["chunkcache.evictions"] = float64(st1.evictions - st0.evictions)
		p.layers["chunkcache.coalesced"] = float64(st1.coalesced - st0.coalesced)
	} else {
		p.fail(false, "metrics after the timed phase: %v", err)
	}
	if e.rec != nil {
		requestLayers(e.rec, start, "gateway", p)
	}
	return p
}

// cacheTotals sums the chunk-cache counters of both backends.
type cacheTotals struct{ lookups, hits, evictions, coalesced int64 }

func (e *objectsEnv) backendStats() (cacheTotals, error) {
	var t cacheTotals
	for _, b := range e.backends {
		m, err := positdStats(b)
		if err != nil {
			return t, err
		}
		t.lookups += m.ChunkCache.Lookups
		t.hits += m.ChunkCache.Hits
		t.evictions += m.ChunkCache.Evictions
		t.coalesced += m.ChunkCache.Coalesced
	}
	return t, nil
}

// storedRatios is the geomean compression ratio of the stored objects'
// versions, per encoding.
func (e *objectsEnv) storedRatios() (ieee, posit float64) {
	ratios := map[ratioKey]*[2]int64{}
	for _, o := range e.objs {
		for v := range o.raw {
			ratios[ratioKey{o.key, v, o.enc}] = &[2]int64{int64(len(o.raw[v])), int64(len(o.comp[v]))}
		}
	}
	return ratioByEncoding(ratios)
}
