package trace

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestNilSpanIsSafe(t *testing.T) {
	var sp *Span
	if sp.Enabled() {
		t.Fatal("nil span reports enabled")
	}
	// Every method must be a no-op, not a panic.
	c := sp.Child("x")
	if c != nil {
		t.Fatalf("nil span produced a live child %v", c)
	}
	sp.AddStage("y", time.Millisecond, 1, 2)
	sp.SetBytes(1, 2)
	sp.Annotate("k", "v")
	sp.End()
}

func TestNilTracer(t *testing.T) {
	var tr *Tracer
	if sp := tr.Start("req", "id"); sp != nil {
		t.Fatalf("nil tracer produced a live span %v", sp)
	}
	if snap := tr.Snapshot(); snap != nil {
		t.Fatalf("nil tracer snapshot = %v, want nil", snap)
	}
	if tr.Len() != 0 {
		t.Fatal("nil tracer has nonzero length")
	}
}

func TestSpanTreeExport(t *testing.T) {
	tr := New(4)
	root := tr.Start("compress", "req-1")
	root.Annotate("codec", "bzip2")
	chunk := root.Child("chunk")
	chunk.AddStage("queue-wait", 3*time.Millisecond, 0, 0)
	work := chunk.Child("compress")
	work.SetBytes(1000, 100)
	work.End()
	chunk.End()
	root.SetBytes(1000, 100)
	root.End()

	snap := tr.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d traces, want 1", len(snap))
	}
	got := snap[0]
	if got.ID != "req-1" || got.Root.Name != "compress" {
		t.Fatalf("trace = %+v", got)
	}
	if len(got.Root.Children) != 1 {
		t.Fatalf("root has %d children, want 1", len(got.Root.Children))
	}
	ch := got.Root.Children[0]
	if ch.Name != "chunk" || len(ch.Children) != 2 {
		t.Fatalf("chunk span = %+v", ch)
	}
	names := map[string]bool{}
	for _, c := range ch.Children {
		names[c.Name] = true
	}
	if !names["queue-wait"] || !names["compress"] {
		t.Fatalf("chunk children = %v", names)
	}
	for _, c := range ch.Children {
		if c.Name == "queue-wait" && c.DurUS < 2900 {
			t.Errorf("queue-wait duration %dus, want >= 2900", c.DurUS)
		}
		if c.Name == "compress" && (c.BytesIn != 1000 || c.BytesOut != 100) {
			t.Errorf("compress bytes = %d/%d", c.BytesIn, c.BytesOut)
		}
	}
	if len(got.Root.Attrs) != 1 || got.Root.Attrs[0].Key != "codec" {
		t.Errorf("root attrs = %v", got.Root.Attrs)
	}
	// The exported document must be JSON-serializable (the /debug/traces
	// contract).
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
}

func TestRingEviction(t *testing.T) {
	tr := New(3)
	for i := 0; i < 10; i++ {
		sp := tr.Start("r", fmt.Sprintf("id-%d", i))
		sp.End()
	}
	snap := tr.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d traces, want ring capacity 3", len(snap))
	}
	// Most recent first.
	for i, want := range []string{"id-9", "id-8", "id-7"} {
		if snap[i].ID != want {
			t.Errorf("snap[%d].ID = %s, want %s", i, snap[i].ID, want)
		}
	}
	if tr.Len() != 10 {
		t.Errorf("Len = %d, want 10", tr.Len())
	}
}

func TestConcurrentChildrenAndPublish(t *testing.T) {
	tr := New(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				root := tr.Start("req", fmt.Sprintf("g%d-%d", g, i))
				var cwg sync.WaitGroup
				for w := 0; w < 4; w++ {
					cwg.Add(1)
					go func() {
						defer cwg.Done()
						c := root.Child("chunk")
						c.SetBytes(10, 1)
						c.AddStage("stage", time.Microsecond, 0, 0)
						c.End()
					}()
				}
				cwg.Wait()
				root.End()
			}
		}(g)
	}
	// Concurrent readers must never block or crash on in-flight publishes.
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				tr.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(stop)
	rwg.Wait()
	if tr.Len() != 8*50 {
		t.Fatalf("published %d traces, want %d", tr.Len(), 8*50)
	}
	for _, trc := range tr.Snapshot() {
		if len(trc.Root.Children) != 4 {
			t.Fatalf("trace %s has %d chunk spans, want 4", trc.ID, len(trc.Root.Children))
		}
	}
}

func TestChildCapCountsDropped(t *testing.T) {
	tr := New(1)
	root := tr.Start("req", "big")
	for i := 0; i < maxChildren+10; i++ {
		root.Child("c").End()
	}
	root.End()
	got := tr.Snapshot()[0].Root
	if len(got.Children) != maxChildren {
		t.Fatalf("exported %d children, want cap %d", len(got.Children), maxChildren)
	}
	if got.Dropped != 10 {
		t.Fatalf("dropped = %d, want 10", got.Dropped)
	}
}

func TestContextRoundtrip(t *testing.T) {
	ctx := context.Background()
	if sp := FromContext(ctx); sp != nil {
		t.Fatal("empty context yielded a span")
	}
	if got := NewContext(ctx, nil); got != ctx {
		t.Fatal("nil span changed the context")
	}
	tr := New(1)
	sp := tr.Start("req", "id")
	ctx2 := NewContext(ctx, sp)
	if got := FromContext(ctx2); got != sp {
		t.Fatalf("FromContext = %v, want %v", got, sp)
	}
}

func TestDoubleEndPublishesOnce(t *testing.T) {
	tr := New(4)
	sp := tr.Start("req", "once")
	sp.End()
	sp.End()
	if tr.Len() != 1 {
		t.Fatalf("published %d traces after double End, want 1", tr.Len())
	}
}

func TestUnfinishedChildExportedWithRootEnd(t *testing.T) {
	tr := New(1)
	root := tr.Start("req", "leak")
	root.Child("never-ended") // simulate a dropped End
	time.Sleep(2 * time.Millisecond)
	root.End()
	got := tr.Snapshot()[0].Root.Children[0]
	if got.DurUS <= 0 {
		t.Fatalf("unfinished child exported with non-positive duration %dus", got.DurUS)
	}
}
