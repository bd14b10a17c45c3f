//go:build e2e

// Package e2e soaks positd, positgw and positload as real processes over
// real sockets. Its files carry the e2e build tag, so go test ./..., go vet
// ./... and make race skip it; make e2e runs go test -tags e2e -count=1
// ./internal/e2e. TestMain builds each binary once, each soak is a subtest
// of TestSoak, and checks decode the programs' own types: /metrics into
// server.MetricsSnapshot or gateway.MetricsSnapshot, positload's report
// into load.Report.
package e2e

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"positbench/internal/compress"
	"positbench/internal/compress/all"
	"positbench/internal/container"
	"positbench/internal/gateway"
	"positbench/internal/load"
	"positbench/internal/server"
)

// Binaries built by TestMain.
var positd, positdRace, positgwRace, positloadBin string

func TestMain(m *testing.M) { os.Exit(buildAndRun(m)) }

func buildAndRun(m *testing.M) int {
	dir, err := os.MkdirTemp("", "positbench-e2e-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	plain, race := filepath.Join(dir, "plain"), filepath.Join(dir, "race")
	positd, positloadBin = filepath.Join(plain, "positd"), filepath.Join(plain, "positload")
	positdRace, positgwRace = filepath.Join(race, "positd"), filepath.Join(race, "positgw")
	for _, args := range [][]string{
		{"build", "-o", plain + "/", "positbench/cmd/positd", "positbench/cmd/positload"},
		{"build", "-race", "-o", race + "/", "positbench/cmd/positd", "positbench/cmd/positgw"},
	} {
		cmd := exec.Command("go", args...)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "e2e: go %s: %v\n", strings.Join(args, " "), err)
			return 1
		}
	}
	return m.Run()
}

// daemon is one positd or positgw process started by a soak.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	log    string        // the daemon's stdout and stderr
	exited chan struct{} // closed once the process has been reaped
	err    error         // the exit status, valid after exited closes
}

// start runs bin on addr (127.0.0.1:0 picks a port) and waits for its
// -addr-file. A daemon still running when the test ends is killed.
func start(t *testing.T, bin, addr string, args ...string) *daemon {
	t.Helper()
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	d := &daemon{log: filepath.Join(dir, "log"), exited: make(chan struct{})}
	logf, err := os.Create(d.log)
	if err != nil {
		t.Fatal(err)
	}
	defer logf.Close()
	d.cmd = exec.Command(bin, append([]string{"-addr", addr, "-addr-file", addrFile}, args...)...)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { d.err = d.cmd.Wait(); close(d.exited) }()
	// Kill fails harmlessly on a daemon the soak already stopped or killed.
	t.Cleanup(func() { d.cmd.Process.Kill(); <-d.exited })
	for i := 0; i < 100; i++ {
		if raw, err := os.ReadFile(addrFile); err == nil && len(raw) > 0 {
			d.addr = strings.TrimSpace(string(raw))
			return d
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("%s never wrote its address:\n%s", d, d.logs())
	return nil
}

func (d *daemon) String() string { return filepath.Base(d.cmd.Path) + " on " + d.addr }

func (d *daemon) url() string { return "http://" + d.addr }

func (d *daemon) logs() string {
	raw, _ := os.ReadFile(d.log)
	return string(raw)
}

// stop sends SIGTERM and requires a clean drain: exit status 0.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("%s: SIGTERM: %v", d, err)
	}
	select {
	case <-d.exited:
	case <-time.After(time.Minute):
		t.Fatalf("%s did not exit within a minute of SIGTERM", d)
	}
	if d.err != nil {
		t.Errorf("%s: %v after SIGTERM, want exit 0:\n%s", d, d.err, d.logs())
	}
}

// kill9 takes the daemon down with SIGKILL: no drain, no goodbye.
func (d *daemon) kill9(t *testing.T) {
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatalf("%s: SIGKILL: %v", d, err)
	}
	<-d.exited
}

// client bounds every request the soaks make.
var client = &http.Client{Timeout: 30 * time.Second}

// send makes one request, with rng as its Range header when set, requires
// status want and returns the response body.
func send(t *testing.T, method, url, rng string, body io.Reader, want int) []byte {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	if rng != "" {
		req.Header.Set("Range", rng)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != want {
		t.Fatalf("%s %s %s: status %d, %d bytes, %v; want %d", method, url, rng, resp.StatusCode, len(got), err, want)
	}
	return got
}

// getMetrics decodes d's /metrics into v, the daemon's own snapshot type.
func getMetrics(t *testing.T, d *daemon, v any) {
	t.Helper()
	blob := send(t, http.MethodGet, d.url()+"/metrics", "", nil, http.StatusOK)
	if err := json.Unmarshal(blob, v); err != nil {
		t.Fatalf("%s: /metrics as %T: %v", d, v, err)
	}
}

// runLoad runs positload against d and requires exit 0: no 5xx, no
// transport errors, no roundtrip mismatches.
func runLoad(t *testing.T, d *daemon, args ...string) *load.Report {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(positloadBin, append([]string{"-url", d.url()}, args...)...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("positload %s: %v\n%s%s", strings.Join(args, " "), err, stderr.String(), stdout.String())
	}
	var rep load.Report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("positload report: %v\n%s", err, stdout.String())
	}
	return &rep
}

func TestSoak(t *testing.T) {
	t.Run("burst", soakBurst)
	t.Run("auto", soakAuto)
	t.Run("range", soakRange)
}

// soakBurst runs a short open-loop positload burst against a race-built
// positd. positload itself fails on any 5xx, transport error or roundtrip
// mismatch; afterwards the engine gauges must drain back to zero.
func soakBurst(t *testing.T) {
	d := start(t, positdRace, "127.0.0.1:0")
	runLoad(t, d, "-duration", "5s", "-qps", "80")
	var snap server.MetricsSnapshot
	for i := 0; ; i++ {
		getMetrics(t, d, &snap)
		if snap.Inflight == 0 && snap.Engine.QueueDepth == 0 && snap.Engine.WorkersBusy == 0 {
			break
		}
		if i == 100 {
			t.Fatalf("gauges never drained: inflight %d, queue_depth %d, workers_busy %d",
				snap.Inflight, snap.Engine.QueueDepth, snap.Engine.WorkersBusy)
		}
		time.Sleep(100 * time.Millisecond)
	}
	d.stop(t)
}

// soakAuto mixes one /v1/compress/auto roundtrip into every 2 direct zstd
// ops. The advisor must decide, and serve the generator's repeated bodies
// from its cache. Auto's p50 must stay within 2x of direct compress: one
// bucket of the log2 latency histogram, the finest gate it supports. positd
// is not race-built: a raced server crawls through the all-miss first pass
// over the body set, and cache hits need the workload to come back around.
func soakAuto(t *testing.T) {
	d := start(t, positd, "127.0.0.1:0")
	rep := runLoad(t, d, "-duration", "5s", "-grace", "3s", "-qps", "80",
		"-codecs", "zstd", "-auto", "2", "-values", "4096")
	if len(rep.Auto) == 0 { // entries exist only for booked ops
		t.Fatal("the report has no auto ops")
	}
	var snap server.MetricsSnapshot
	getMetrics(t, d, &snap)
	if adv := snap.Advisor; adv == nil || adv.Decisions == 0 || adv.CacheHits == 0 {
		t.Fatalf("advisor stats %+v: want decisions and cache hits above 0", adv)
	}
	auto, comp := rep.Latency["auto"], rep.Latency["compress"]
	if auto.Count == 0 || comp.Count == 0 {
		t.Fatalf("latency sections missing: %+v", rep.Latency)
	}
	if auto.P50US > 2*comp.P50US {
		t.Errorf("auto p50 %dus > 2x compress p50 %dus", auto.P50US, comp.P50US)
	}
	t.Logf("%d decisions, %d cache hits, auto p50 %dus vs compress %dus",
		snap.Advisor.Decisions, snap.Advisor.CacheHits, auto.P50US, comp.P50US)
	d.stop(t)
}

// soakRange replicates an indexed object to three positd backends behind a
// race-built positgw and reads byte-compared windows through the front.
// After 3 passes the owner (the backend the object-key sharding sends every
// read to) is kill -9'd; 2 passes must still get byte-exact 206es from the
// replicas. The owner restarts on its address, gets the object back (the
// store is in-memory), and 1 last pass runs. Passes repeat windows, so the
// backends' chunk caches must show hits.
func soakRange(t *testing.T) {
	// 1 MiB of `seq 1 200000` output as an indexed gzip stream in 64 KiB
	// chunks, written with the calls compressbench -zs makes.
	var text bytes.Buffer
	for i := 1; i <= 200000; i++ {
		fmt.Fprintln(&text, i)
	}
	in := text.Bytes()[:1<<20]
	gz, err := all.Get("gzip")
	if err != nil {
		t.Fatal(err)
	}
	var obj bytes.Buffer
	w := compress.NewWriter(context.Background(), gz, &obj, 64<<10, 1)
	w.SetIndexSink(container.NewIndexBuilder())
	if _, err = w.Write(in); err == nil {
		err = w.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	put := func(b *daemon) {
		send(t, http.MethodPut, b.url()+"/v1/objects/soak", "", bytes.NewReader(obj.Bytes()), http.StatusCreated)
	}

	backends := make([]*daemon, 3)
	addrs := make([]string, len(backends))
	for i := range backends {
		backends[i] = start(t, positd, "127.0.0.1:0")
		put(backends[i])
		addrs[i] = backends[i].addr
	}
	gw := start(t, positgwRace, "127.0.0.1:0", "-backends", strings.Join(addrs, ","),
		"-breaker-threshold", "2", "-breaker-cooldown", "100ms", "-probe-interval", "50ms",
		"-fail-threshold", "2", "-rise-threshold", "1", "-hedge-after", "1s", "-quiet")

	windows := [][2]int{{0, 3000}, {131072, 65536}, {524288, 4096}, {700001, 12345}, {1000000, 48576}}
	passes := func(count int, phase string) {
		t.Helper()
		for pass := 0; pass < count; pass++ {
			for _, w := range windows {
				off, n := w[0], w[1]
				rng := fmt.Sprintf("bytes=%d-%d", off, off+n-1)
				got := send(t, http.MethodGet, gw.url()+"/v1/read/soak", rng, nil, http.StatusPartialContent)
				if !bytes.Equal(got, in[off:off+n]) {
					t.Fatalf("%s: %s: bytes differ from the input", phase, rng)
				}
			}
		}
	}
	passes(3, "warm")

	owner := -1
	for i, b := range backends {
		var snap server.MetricsSnapshot
		getMetrics(t, b, &snap)
		if snap.ObjectStore.RangeReads > 0 {
			owner = i
			break
		}
	}
	if owner < 0 {
		t.Fatal("no backend served the range reads")
	}
	victim := backends[owner]
	victim.kill9(t)
	t.Logf("kill -9 the owner, %s", victim)
	passes(2, "after kill")

	backends[owner] = start(t, positd, victim.addr)
	put(backends[owner])
	passes(1, "after restart")

	var hits int64
	for _, b := range backends {
		var snap server.MetricsSnapshot
		getMetrics(t, b, &snap)
		if cc := snap.ChunkCache; cc != nil { // nil when the cache is off
			hits += cc.Hits
		}
	}
	if hits == 0 {
		t.Error("repeated windows never hit any backend chunk cache")
	}
	var gsnap gateway.MetricsSnapshot
	getMetrics(t, gw, &gsnap)
	if want := int64(6 * len(windows)); gsnap.RangeRequests != want {
		t.Errorf("gateway range_requests = %d, want %d", gsnap.RangeRequests, want)
	}
	t.Logf("%d range reads byte-exact across a backend crash, %d chunk-cache hits, %d retries",
		gsnap.RangeRequests, hits, gsnap.RetriesTotal)
	gw.stop(t)
	for _, b := range backends {
		b.stop(t)
	}
}
