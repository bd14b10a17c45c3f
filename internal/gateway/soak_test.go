package gateway

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"positbench/internal/httpshell"
	"positbench/internal/load"
	"positbench/internal/server"
)

// soakBackend is a positd instance the chaos controller can kill -9 (Close
// drops the listener and every open connection, no drain) and later rebind
// on the same address, so the gateway's breakers, probes, and retries see a
// realistic crash/restart cycle.
type soakBackend struct {
	name    string
	handler http.Handler

	mu   sync.Mutex
	addr string // pinned after the first bind so restarts reuse it
	srv  *http.Server
}

func (b *soakBackend) Name() string { return b.name }

func (b *soakBackend) Restart() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	bind := b.addr
	if bind == "" {
		bind = "127.0.0.1:0"
	}
	var ln net.Listener
	var err error
	// The previous listener is closed synchronously by Kill, but give the
	// kernel a beat on a loaded runner anyway.
	for attempt := 0; attempt < 50; attempt++ {
		if ln, err = net.Listen("tcp", bind); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("rebind %s: %w", bind, err)
	}
	b.addr = ln.Addr().String()
	b.srv = &http.Server{Handler: b.handler}
	go b.srv.Serve(ln)
	return nil
}

func (b *soakBackend) Kill() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.srv == nil {
		return nil
	}
	err := b.srv.Close()
	b.srv = nil
	return err
}

// degradableBackend also misbehaves in place: while degraded its listener
// keeps accepting but every request gets a 503, so only the gateway's
// breakers and probes — not TCP errors — can route around it.
type degradableBackend struct {
	*soakBackend
	broken atomic.Bool
}

func (b *degradableBackend) Degrade() error { b.broken.Store(true); return nil }
func (b *degradableBackend) Recover() error { b.broken.Store(false); return nil }

func (b *degradableBackend) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if b.broken.Load() {
			io.Copy(io.Discard, r.Body)
			httpshell.WriteError(w, http.StatusServiceUnavailable, "degraded", "chaos 503 injection")
			return
		}
		next.ServeHTTP(w, r)
	})
}

// TestChaosSoak is the end-to-end resilience gate, in process: three real
// positd backends behind the gateway, a seeded chaos controller crash-
// looping one backend at a time, and positload driving a verified
// compress/decompress/convert workload through the front. The client must
// see zero failures, and afterwards the generator's status counts must
// reconcile exactly — number for number — with the gateway's response
// counters.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos soak")
	}

	var urls []string
	var targets []load.ChaosTarget
	backends := make([]*soakBackend, 3)
	for i := range backends {
		srv, err := server.New(server.Config{AccessLog: io.Discard, ChunkSize: 16 << 10})
		if err != nil {
			t.Fatal(err)
		}
		b := &soakBackend{name: fmt.Sprintf("b%d", i), handler: srv.Handler()}
		if i == 0 {
			// One backend can also be degraded in place (503 injection),
			// so the soak covers the failure mode TCP cannot see.
			db := &degradableBackend{soakBackend: b}
			b.handler = db.wrap(srv.Handler())
			targets = append(targets, db)
		} else {
			targets = append(targets, b)
		}
		if err := b.Restart(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Kill() })
		backends[i] = b
		urls = append(urls, "http://"+b.addr)
	}

	g, err := New(Config{
		Backends: urls,
		// Crash-loop-speed resilience: trip breakers after 2 failures,
		// probe every 50ms, eject fast, recover fast.
		Backoff:          fastRetry,
		BreakerThreshold: 2,
		BreakerCooldown:  100 * time.Millisecond,
		ProbeInterval:    50 * time.Millisecond,
		FailThreshold:    2,
		RiseThreshold:    1,
		PerTryTimeout:    5 * time.Second,
		HedgeAfter:       300 * time.Millisecond,
		AccessLog:        io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	probeCtx, stopProbes := context.WithCancel(context.Background())
	defer stopProbes()
	g.StartProbes(probeCtx)
	front := httptest.NewServer(g.Handler())
	defer front.Close()

	// Chaos runs until the load finishes; its context is cut when the run
	// returns, and Run always restarts the last victim before returning.
	chaosCtx, stopChaos := context.WithCancel(context.Background())
	chaos := &load.Chaos{
		Targets: targets,
		MinUp:   400 * time.Millisecond, MaxUp: 700 * time.Millisecond,
		MinDown: 150 * time.Millisecond, MaxDown: 350 * time.Millisecond,
		Log: testWriter{t},
	}
	eventsC := make(chan []load.ChaosEvent, 1)
	go func() {
		events, err := chaos.Run(chaosCtx)
		if err != nil {
			t.Error(err)
		}
		eventsC <- events
	}()

	rep, err := load.Run(context.Background(), load.Config{
		BaseURL:     front.URL,
		QPS:         50,
		Duration:    2500 * time.Millisecond,
		Grace:       3 * time.Second, // exact reconciliation needs no aborts
		MaxInflight: 8,
		Codecs:      []string{"gzip"},
		Values:      2048,
		Seed:        11,
	})
	stopChaos()
	events := <-eventsC
	if err != nil {
		t.Fatal(err)
	}

	kills, degrades := 0, 0
	for _, ev := range events {
		switch ev.Action {
		case "kill":
			kills++
		case "degrade":
			degrades++
		}
		if ev.Err != "" {
			t.Errorf("chaos action failed: %+v", ev)
		}
	}
	if kills+degrades == 0 {
		t.Fatal("the chaos controller never took a backend down; the soak proved nothing")
	}

	if rep.Failed() {
		t.Errorf("client saw failures through the gateway: 5xx=%d transport=%d mismatches=%d",
			rep.Status5xx, rep.Transport, rep.Mismatches)
	}
	if rep.Status2xx == 0 {
		t.Fatal("soak did no work")
	}

	snap := g.snapshot()
	t.Logf("soak: %d kills %d degrades, client 2xx=%d 4xx=%d 429=%d 5xx=%d; gateway retries=%d hedges=%d forced=%d",
		kills, degrades, rep.Status2xx, rep.Status4xx, rep.Status429, rep.Status5xx,
		snap.RetriesTotal, snap.HedgesLaunched, snap.ForcedTries)
	if snap.RetriesTotal == 0 && snap.HedgesLaunched == 0 {
		t.Error("kills mid-traffic produced no retries or hedges; the gateway cannot have masked anything")
	}
	// The reconciliation: every response positload received is a response
	// the gateway counted, class for class, with nothing left over. 499s
	// and aborted streams would break the balance — they must be zero.
	if snap.Responses499 != 0 || snap.AbortedMidStream != 0 {
		t.Errorf("soak aborted work: 499=%d aborted_mid_stream=%d, want 0/0",
			snap.Responses499, snap.AbortedMidStream)
	}
	type pair struct {
		name      string
		got, want int64
	}
	for _, p := range []pair{
		{"2xx", snap.Responses2xx, rep.Status2xx},
		{"4xx", snap.Responses4xx, rep.Status4xx},
		{"429", snap.Responses429, rep.Status429},
		{"5xx", snap.Responses5xx, rep.Status5xx},
	} {
		if p.got != p.want {
			t.Errorf("responses_%s: gateway counted %d, positload received %d", p.name, p.got, p.want)
		}
	}
}

// testWriter adapts t.Logf for the chaos controller's log.
type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
}
