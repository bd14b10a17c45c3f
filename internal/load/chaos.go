package load

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"time"
)

// ChaosTarget is one thing the chaos controller may take down and bring
// back, such as an in-process positd backend in the gateway's chaos soak.
type ChaosTarget interface {
	// Name identifies the target in events and logs.
	Name() string
	// Kill takes the target down abruptly (the moral equivalent of
	// kill -9: no drain, no goodbye).
	Kill() error
	// Restart brings the target back up, ready to serve again.
	Restart() error
}

// ChaosDegrader is an optional ChaosTarget extension: a target that can
// also misbehave in place — stall, inject 503s, drip bytes slowly — while
// its listener stays up. Degradation is nastier than a crash for a router:
// the TCP layer still looks healthy, so only response-level signals
// (breakers, probes) can catch it.
type ChaosDegrader interface {
	ChaosTarget
	// Degrade starts the misbehavior; Recover restores healthy service.
	Degrade() error
	Recover() error
}

// FuncTarget adapts a pair of closures into a ChaosTarget.
type FuncTarget struct {
	TargetName string
	KillFn     func() error
	RestartFn  func() error
}

func (f FuncTarget) Name() string   { return f.TargetName }
func (f FuncTarget) Kill() error    { return f.KillFn() }
func (f FuncTarget) Restart() error { return f.RestartFn() }

// ChaosEvent records one controller action for the post-run report.
type ChaosEvent struct {
	At     time.Duration `json:"at"`     // offset from Chaos.Run start
	Target string        `json:"target"` // ChaosTarget.Name()
	Action string        `json:"action"` // "kill" or "restart"
	Err    string        `json:"error,omitempty"`
}

// Chaos is a seeded fault scheduler: it repeatedly picks a target, kills
// it, leaves it down for a while, restarts it, and waits before striking
// again, until the context ends. Every run with the same seed and the same
// target list produces the same kill schedule, so a soak failure replays.
type Chaos struct {
	// Targets is the strike list; at most one is down at a time, so the
	// cluster never loses quorum to the controller itself.
	Targets []ChaosTarget
	// MinUp/MaxUp bound the healthy interval before each strike.
	// Unset selects 300ms..800ms.
	MinUp, MaxUp time.Duration
	// MinDown/MaxDown bound how long a killed target stays down.
	// Unset selects 200ms..600ms.
	MinDown, MaxDown time.Duration
	// Seed makes the schedule deterministic. 0 consults the
	// POSITBENCH_CHAOS_SEED environment variable, then falls back to 1.
	Seed int64
	// Log receives one line per action (nil discards).
	Log io.Writer
}

// ChaosSeed resolves a chaos seed the same way the codec fault harness
// resolves POSITBENCH_FAULT_SEED: an explicit non-zero seed wins, then the
// POSITBENCH_CHAOS_SEED environment variable, then the fixed default —
// so a failing soak can be replayed from its logged seed alone.
func ChaosSeed(explicit int64) (int64, error) {
	if explicit != 0 {
		return explicit, nil
	}
	if env := os.Getenv("POSITBENCH_CHAOS_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 0, 64)
		if err != nil {
			return 0, fmt.Errorf("load: POSITBENCH_CHAOS_SEED=%q: %v", env, err)
		}
		return v, nil
	}
	return 1, nil
}

// Run executes the kill/restart schedule until ctx ends, then makes sure
// the last victim is restarted before returning the event log. Action
// errors are recorded in the events, not fatal: a Kill racing a process
// that already exited is normal chaos.
func (c *Chaos) Run(ctx context.Context) ([]ChaosEvent, error) {
	if len(c.Targets) == 0 {
		return nil, fmt.Errorf("load: chaos needs at least one target")
	}
	minUp, maxUp := c.MinUp, c.MaxUp
	if minUp <= 0 {
		minUp = 300 * time.Millisecond
	}
	if maxUp < minUp {
		maxUp = minUp + 500*time.Millisecond
	}
	minDown, maxDown := c.MinDown, c.MaxDown
	if minDown <= 0 {
		minDown = 200 * time.Millisecond
	}
	if maxDown < minDown {
		maxDown = minDown + 400*time.Millisecond
	}
	seed, err := ChaosSeed(c.Seed)
	if err != nil {
		return nil, err
	}
	c.logf("chaos: seed %#x (override with POSITBENCH_CHAOS_SEED)", seed)
	rng := rand.New(rand.NewSource(seed))
	between := func(lo, hi time.Duration) time.Duration {
		if hi <= lo {
			return lo
		}
		return lo + time.Duration(rng.Int63n(int64(hi-lo)))
	}

	start := time.Now()
	var events []ChaosEvent
	act := func(target ChaosTarget, action string, f func() error) {
		ev := ChaosEvent{At: time.Since(start), Target: target.Name(), Action: action}
		if err := f(); err != nil {
			ev.Err = err.Error()
			c.logf("chaos: +%s %s %s: %s", ev.At.Round(time.Millisecond), action, ev.Target, ev.Err)
		} else {
			c.logf("chaos: +%s %s %s", ev.At.Round(time.Millisecond), action, ev.Target)
		}
		events = append(events, ev)
	}

	for {
		if !sleepCtx(ctx, between(minUp, maxUp)) {
			return events, nil
		}
		victim := c.Targets[rng.Intn(len(c.Targets))]
		down, up := victim.Kill, victim.Restart
		downAction, upAction := "kill", "restart"
		// A degradable victim is sometimes degraded in place instead of
		// killed, so the soak also exercises the case where TCP stays up
		// and only breakers/probes can notice.
		if d, ok := victim.(ChaosDegrader); ok && rng.Intn(2) == 0 {
			down, up = d.Degrade, d.Recover
			downAction, upAction = "degrade", "recover"
		}
		act(victim, downAction, down)
		// The victim always comes back, even if the run deadline lands
		// inside the downtime: the soak's final reconciliation needs a
		// whole cluster.
		sleepCtx(ctx, between(minDown, maxDown))
		act(victim, upAction, up)
		if ctx.Err() != nil {
			return events, nil
		}
	}
}

// sleepCtx waits for d or the context, reporting whether the full wait
// elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

func (c *Chaos) logf(format string, args ...any) {
	if c.Log == nil {
		return
	}
	fmt.Fprintf(c.Log, format+"\n", args...)
}
