package gateway

import (
	"context"
	"io"
	"net/http"
)

// StartProbes launches one active health-check goroutine per backend; they
// stop when ctx ends. A backend is ejected from routing after
// FailThreshold consecutive probe failures and recovered after
// RiseThreshold consecutive successes — the rise threshold keeps a
// flapping backend from oscillating in and out of the pool on every probe.
//
// Probing is advisory, not authoritative: an ejected backend can still be
// tried under claim's fail-static passes, and the circuit breaker covers
// the window between a backend dying and the prober noticing.
func (g *Gateway) StartProbes(ctx context.Context) {
	if g.cfg.ProbeInterval < 0 {
		return
	}
	for _, b := range g.backends {
		go g.probeLoop(ctx, b)
	}
}

func (g *Gateway) probeLoop(ctx context.Context, b *backend) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-g.clock.After(g.cfg.ProbeInterval):
		}
		g.probeOnce(ctx, b)
	}
}

// probeOnce sends one readiness probe and applies the fail/rise counters.
// It is the backend's single writer for the probe state.
func (g *Gateway) probeOnce(ctx context.Context, b *backend) {
	pctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	ok := false
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, b.url.String()+probePath, nil)
	if err == nil {
		resp, derr := g.client.Do(req)
		if derr == nil {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
			resp.Body.Close()
			ok = resp.StatusCode >= 200 && resp.StatusCode < 300
		}
	}
	if ok {
		b.probeFails = 0
		b.probeRises++
		if !b.Ready() && b.probeRises >= g.cfg.RiseThreshold {
			b.ready.Store(true)
		}
		return
	}
	b.probeRises = 0
	b.probeFails++
	if b.Ready() && b.probeFails >= g.cfg.FailThreshold {
		b.ready.Store(false)
		b.ejections.Add(1)
	}
}
