package gateway

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"positbench/internal/resilience"
)

// The active prober ejects a backend after FailThreshold consecutive
// failing probes and recovers it after RiseThreshold consecutive passes,
// with every probe tick driven by the fake clock.
func TestProberEjectsAndRecovers(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	var probes atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			t.Errorf("probe hit %s, want /readyz", r.URL.Path)
		}
		probes.Add(1)
		if !healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		io.WriteString(w, "{}")
	}))
	defer backend.Close()

	fc := resilience.NewFakeClock(time.Time{})
	g, _ := newTestGateway(t, []string{backend.URL}, func(cfg *Config) {
		cfg.Clock = fc
		cfg.ProbeInterval = time.Second
		cfg.FailThreshold = 2
		cfg.RiseThreshold = 2
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g.StartProbes(ctx)

	// tick advances the fake clock one probe period and waits for the
	// prober to finish the probe. The backend counts the probe before the
	// prober reads the reply and updates the streak; the prober re-arms its
	// timer only after that, so the second BlockUntil waits for Ready() to
	// settle.
	tick := func() {
		t.Helper()
		before := probes.Load()
		fc.BlockUntil(1)
		fc.Advance(time.Second)
		for i := 0; probes.Load() == before; i++ {
			if i > 5000 {
				t.Fatal("probe never ran after Advance")
			}
			time.Sleep(time.Millisecond)
		}
		fc.BlockUntil(1)
	}

	b := g.backends[0]
	tick()
	if !b.Ready() {
		t.Fatal("healthy backend ejected")
	}

	healthy.Store(false)
	tick()
	if !b.Ready() {
		t.Fatal("ejected after 1 failing probe, threshold is 2")
	}
	tick()
	if b.Ready() {
		t.Fatal("still ready after 2 failing probes")
	}
	if got := b.ejections.Load(); got != 1 {
		t.Fatalf("ejections = %d, want 1", got)
	}

	healthy.Store(true)
	tick()
	if b.Ready() {
		t.Fatal("recovered after 1 passing probe, rise threshold is 2")
	}
	tick()
	if !b.Ready() {
		t.Fatal("still ejected after 2 passing probes")
	}
	if got := b.ejections.Load(); got != 1 {
		t.Fatalf("ejections = %d after recovery, want still 1", got)
	}
}

// An ejected backend is routed around immediately — and still reachable
// under fail-static when it is the only backend left.
func TestClaimSkipsEjectedBackend(t *testing.T) {
	var hits0 atomic.Int64
	b0 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits0.Add(1)
		io.WriteString(w, "b0")
	}))
	defer b0.Close()
	b1 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "b1")
	}))
	defer b1.Close()
	g, front := newTestGateway(t, []string{b0.URL, b1.URL}, nil)

	key := keyOwnedBy(t, g, 0)
	g.backends[0].ready.Store(false) // prober verdict: ejected

	resp := postShard(t, front.URL+"/v1/x", key, "payload")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "b1" {
		t.Fatalf("request served by %q, want the non-ejected b1", body)
	}
	if hits0.Load() != 0 {
		t.Fatal("ejected backend was tried while a ready one existed")
	}

	// Fail-static: with every backend ejected, traffic still flows.
	g.backends[1].ready.Store(false)
	resp = postShard(t, front.URL+"/v1/x", key, "payload")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d with all backends ejected, want fail-static 200", resp.StatusCode)
	}
	if g.snapshot().ForcedTries == 0 {
		t.Fatal("fail-static try not counted in forced_tries")
	}
}
