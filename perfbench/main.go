// Command perfbench is positbench's benchmark: one process that runs one
// named workload against the program built from this checkout and prints
// every metric by name with its unit, checking every output it gets back.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload study|ingest|objects --seed N --seconds S --trace 0|1
//
// Workloads:
//
//	study    core.Run at a fixed reduced scale, as cmd/repro computes it
//	ingest   a closed loop of NumCPU clients doing roundtrips through positd
//	objects  an open loop of ranged reads and PUTs through positgw to two positd
//
// With --trace 0 the last stdout line carries the end-to-end metrics. With
// --trace 1 the workload runs twice, untraced and then traced, followed by
// isolated calls into each primitive; the last line carries the per-layer
// metrics, the tracing overhead, and the spans go to
// .bench_build/spans/<workload>-<seed>.json. perfbench/README.md defines
// every metric.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"positbench/internal/compress/all"
	"positbench/internal/posit"
	"positbench/internal/sdrbench"
)

// processStart approximates process start: the first set-up is timed from
// here, so runtime start-up counts as set-up.
var processStart = time.Now()

// setupReps is how many times each run sets its workload up from scratch;
// setup_s is the median.
const setupReps = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is what one invocation was asked to do.
type config struct {
	workload string
	seed     int64
	window   time.Duration // the timed phase's length
	trace    bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is one set-up workload, ready for its timed phase.
type env interface {
	// measure runs the timed phase once and reports it.
	measure() *pass
	close()
}

// setUpFunc sets a workload up from scratch. rec and ct are nil for an
// untraced pass; a traced pass hands wrapped codecs to the program.
type setUpFunc func(cfg config, rec *recorder, ct *codecTallies) (env, error)

var workloads = map[string]setUpFunc{
	"study":   setUpStudy,
	"ingest":  setUpIngest,
	"objects": setUpObjects,
}

// pass is what one timed phase measured.
type pass struct {
	e2e                           map[string]float64 // end-to-end metrics, by BENCHMARK.json name
	named                         []named            // the workload's own end-to-end metrics
	layers                        map[string]float64 // per-layer metrics this pass could measure
	digests                       map[string]string  // operation -> hash of the outputs, for the identity check
	attempted, failed, mismatches int64
	rejected                      int64    // replies with status 429
	notes                         []string // one line per failure, capped
}

// named is a workload-specific end-to-end metric (study_s, compress_p99_ms,
// ...), printed as its own line and carried into the traced run's
// per-layer metrics.
type named struct {
	name, unit string
	value      float64
}

func newPass() *pass {
	return &pass{e2e: map[string]float64{}, layers: map[string]float64{}, digests: map[string]string{}}
}

// fail records one failed operation; mismatch marks a wrong output, which
// makes the whole run incorrect.
func (p *pass) fail(mismatch bool, format string, args ...any) {
	p.failed++
	if mismatch {
		p.mismatches++
	}
	if len(p.notes) < 20 {
		p.notes = append(p.notes, fmt.Sprintf(format, args...))
	}
}

func (p *pass) countRejected(r reply) {
	if r.status == http.StatusTooManyRequests {
		p.rejected++
	}
}

// Units of the end-to-end metrics, as BENCHMARK.json declares them.
var e2eUnits = map[string]string{
	"setup_s": "s", "live_heap_mb": "MB", "cpu_ms": "ms", "mb_s": "MB/s", "p50_ms": "ms",
	"ratio_ieee": "x", "ratio_posit": "x",
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "study, ingest or objects")
	seed := fl.Int64("seed", 1, "seed of the generated inputs and request schedule")
	seconds := fl.Int("seconds", 10, "length of the timed phase")
	traceFlag := fl.Int("trace", 0, "1 runs the traced per-layer run")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	setUp, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload study|ingest|objects, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *traceFlag == 1}
	st := newStamp(cfg)
	stampJSON, _ := json.Marshal(st)
	fmt.Fprintf(stdout, "stamp %s\n", stampJSON)

	var res result
	var notes []string
	var err error
	if cfg.trace {
		res, notes, err = tracedRun(cfg, setUp, st, stdout)
	} else {
		res, notes, err = untracedRun(cfg, setUp, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	for _, n := range notes {
		fmt.Fprintf(stderr, "perfbench: %s\n", n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// untracedRun sets the workload up, measures it, and then sets it up
// setupReps-1 more times from scratch for the set-up time's median. The
// extra set-ups come after the timed phase so that nothing they leave
// behind is in the heap the timed phase measures.
func untracedRun(cfg config, setUp setUpFunc, stdout io.Writer) (result, []string, error) {
	e, err := setUp(cfg, nil, nil)
	if err != nil {
		return result{}, nil, fmt.Errorf("set-up: %w", err)
	}
	times := []float64{time.Since(processStart).Seconds()}
	p := e.measure()
	e.close()
	for len(times) < setupReps {
		t0 := time.Now()
		if e, err = setUp(cfg, nil, nil); err != nil {
			return result{}, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		e.close()
	}
	p.e2e["setup_s"] = median(times)
	printNamed(stdout, p.named)

	res := result{Correct: p.mismatches == 0, Attempted: p.attempted, Failed: p.failed, Metrics: map[string]metric{}}
	for name, unit := range e2eUnits {
		v, ok := p.e2e[name]
		if !ok {
			return result{}, nil, fmt.Errorf("metric %s not measured", name)
		}
		res.Metrics[name] = metric{v, unit}
	}
	return res, p.notes, nil
}

// tracedRun measures the workload untraced, then again with spans and
// wrapped codecs on a fresh set-up with the same seed, then the primitive
// section. It checks that both passes produced identical outputs and
// reports the per-layer metrics and the tracing overhead.
func tracedRun(cfg config, setUp setUpFunc, st stamp, stdout io.Writer) (result, []string, error) {
	e, err := setUp(cfg, nil, nil)
	if err != nil {
		return result{}, nil, fmt.Errorf("set-up: %w", err)
	}
	base := e.measure()
	e.close()

	rec := newRecorder()
	var ct codecTallies
	if e, err = setUp(cfg, rec, &ct); err != nil {
		return result{}, nil, fmt.Errorf("traced set-up: %w", err)
	}
	traced := e.measure()
	e.close()

	layers := traced.layers
	// Allocation counts come from the untraced pass: the tracer allocates too.
	layers["alloc_mb"], layers["gc_cycles"] = base.layers["alloc_mb"], base.layers["gc_cycles"]
	for _, n := range base.named {
		layers[n.name] = n.value
	}
	for _, k := range []string{"p50_ms", "mb_s"} {
		layers["trace_overhead."+k] = traced.e2e[k] - base.e2e[k]
	}
	for _, name := range all.Names() {
		t := ct.get(name)
		layers["codec."+name+".compress_mb_s"] = t[0].mbPerS()
		layers["codec."+name+".decompress_mb_s"] = t[1].mbPerS()
	}
	prim := primitives(rec)
	for k, v := range prim.layers {
		layers[k] = v
	}

	notes := append(append(base.notes, traced.notes...), prim.notes...)
	mismatches := base.mismatches + traced.mismatches + prim.mismatches
	compared, differ := compareDigests(base.digests, traced.digests)
	if compared == 0 {
		mismatches++
		notes = append(notes, "identity check: no operation completed in both passes")
	}
	if differ > 0 {
		mismatches += int64(differ)
		notes = append(notes, fmt.Sprintf("identity check: %d of %d operations differ between the untraced and traced passes", differ, compared))
	}
	fmt.Fprintf(stdout, "identity: %d operations compared, %d differ\n", compared, differ)
	printNamed(stdout, base.named)

	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.json", cfg.workload, cfg.seed))
	if err := rec.write(path, st); err != nil {
		return result{}, nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(stdout, "spans %s\n", path)

	res := result{
		Correct:   mismatches == 0,
		Attempted: base.attempted + traced.attempted + prim.attempted,
		Failed:    base.failed + traced.failed + prim.failed,
		Metrics:   map[string]metric{},
	}
	for _, l := range layerMetrics {
		// A layer the workload does not exercise has no entry: it reports 0.
		res.Metrics[l.name] = metric{layers[l.name], l.unit}
	}
	return res, notes, nil
}

// compareDigests counts the operations present in both passes and how
// many of them produced different outputs.
func compareDigests(a, b map[string]string) (compared, differ int) {
	for k, va := range a {
		if vb, ok := b[k]; ok {
			compared++
			if va != vb {
				differ++
			}
		}
	}
	return compared, differ
}

func printNamed(w io.Writer, ns []named) {
	for _, n := range ns {
		fmt.Fprintf(w, "%-20s %14.4f %s\n", n.name, n.value, n.unit)
	}
}

// stamp identifies what was measured and where.
type stamp struct {
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	GoVersion    string `json:"go_version"`
	GOOS         string `json:"goos"`
	GOARCH       string `json:"goarch"`
	NumCPU       int    `json:"num_cpu"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	Seed         int64  `json:"seed"`
	Workload     string `json:"workload"`
	Seconds      int    `json:"seconds"`
	Trace        bool   `json:"trace"`
}

func newStamp(cfg config) stamp {
	st := stamp{
		Commit: "unknown", SourceSHA256: sourceDigest("."),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: cfg.seed, Workload: cfg.workload, Seconds: int(cfg.window / time.Second), Trace: cfg.trace,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				st.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				st.Commit += "-dirty"
			}
		}
	}
	return st
}

// sourceDigest hashes the Go sources and go.mod files under root, so a
// result names the code it measured even where no VCS revision is built in.
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

// corpus holds the 14 study inputs in both encodings: the float32 bytes
// and the posit<32,3> bytes of the same values, converted here with
// posit.Posit32e3 so the benchmark has its own reference for /v1/convert.
type corpus struct {
	names []string
	enc   [2][][]byte // [0] IEEE, [1] posit
}

var encNames = [2]string{"ieee", "posit"}

func makeCorpus(values int) *corpus {
	c := &corpus{}
	for _, spec := range sdrbench.Inputs() {
		floats := spec.Generate(values)
		c.names = append(c.names, spec.Name)
		c.enc[0] = append(c.enc[0], posit.EncodeFloat32LE(floats))
		c.enc[1] = append(c.enc[1], posit.EncodeWordsLE(posit.Posit32e3.FromFloat32Slice(nil, floats)))
	}
	return c
}

// runtimeCounters reads the process CPU time and the allocation and GC
// counters the timed phase takes deltas of.
type runtimeCounters struct {
	cpu                  time.Duration
	allocBytes, gcCycles uint64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return runtimeCounters{cpu, s[0].Value.Uint64(), s[1].Value.Uint64()}
}

// since records the allocation and GC deltas since prev and sets cpu_ms:
// the process's user and system CPU time per operation. CPU time, unlike
// wall time, does not count the time a virtual CPU is stolen by the host.
func (r runtimeCounters) since(prev runtimeCounters, ops int64, p *pass) {
	p.layers["alloc_mb"] = float64(r.allocBytes-prev.allocBytes) / 1e6
	p.layers["gc_cycles"] = float64(r.gcCycles - prev.gcCycles)
	if ops > 0 {
		p.e2e["cpu_ms"] = ms(r.cpu-prev.cpu) / float64(ops)
	}
}

// liveHeapMB forces a collection and reports the live heap. The second
// collection frees what sync.Pool victim caches kept through the first, so
// the figure is state the program holds, not the pools' recent traffic.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}
