package compress_test

import (
	"bytes"
	"context"
	"io"
	"runtime"
	"testing"

	"positbench/internal/compress"
	"positbench/internal/compress/gzipc"
	"positbench/internal/trace"
)

// findChildren returns the direct children of sp named name.
func findChildren(sp *trace.SpanData, name string) []*trace.SpanData {
	var out []*trace.SpanData
	for _, c := range sp.Children {
		if c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

func TestParallelEngineSpans(t *testing.T) {
	// The span shape under test (queue-wait under each chunk) only exists
	// on the pool path; on a 1-CPU runner the engine would run every chunk
	// inline, so force the pool.
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	tr := trace.New(4)
	root := tr.Start("roundtrip", "t1")
	ctx := trace.NewContext(context.Background(), root)

	codec := gzipc.New()
	src := bytes.Repeat([]byte("floating point data "), 4096)
	var comp bytes.Buffer
	w := compress.NewWriter(ctx, codec, &comp, 16<<10, 2)
	if _, err := w.Write(src); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r := compress.NewReader(ctx, codec, bytes.NewReader(comp.Bytes()), compress.DecodeLimits{}, 2)
	back, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, src) {
		t.Fatal("roundtrip mismatch")
	}
	root.End()

	snap := tr.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("got %d traces, want 1", len(snap))
	}
	chunks := findChildren(snap[0].Root, "chunk")
	wantChunks := 2 * ((len(src) + 16<<10 - 1) / (16 << 10)) // write + read side
	if len(chunks) != wantChunks {
		t.Fatalf("got %d chunk spans, want %d", len(chunks), wantChunks)
	}
	var sawCompress, sawDecompress, sawQueueWait, sawFrameWrite, sawFrameRead bool
	for _, c := range chunks {
		if len(findChildren(c, "compress")) == 1 {
			sawCompress = true
			if c.BytesIn != 16<<10 {
				t.Errorf("compress chunk bytes_in = %d, want %d", c.BytesIn, 16<<10)
			}
		}
		if len(findChildren(c, "decompress")) == 1 {
			sawDecompress = true
			if c.BytesOut != 16<<10 {
				t.Errorf("decompress chunk bytes_out = %d, want %d", c.BytesOut, 16<<10)
			}
		}
		if len(findChildren(c, "queue-wait")) == 1 {
			sawQueueWait = true
		}
		sawFrameWrite = sawFrameWrite || len(findChildren(c, "frame-write")) == 1
		sawFrameRead = sawFrameRead || len(findChildren(c, "frame-read")) == 1
	}
	if !sawCompress || !sawDecompress || !sawQueueWait || !sawFrameWrite || !sawFrameRead {
		t.Fatalf("missing stages: compress=%v decompress=%v queue-wait=%v frame-write=%v frame-read=%v",
			sawCompress, sawDecompress, sawQueueWait, sawFrameWrite, sawFrameRead)
	}
}

func TestSerialEngineSpans(t *testing.T) {
	tr := trace.New(4)
	root := tr.Start("serial", "t2")
	ctx := trace.NewContext(context.Background(), root)
	codec := gzipc.New()
	src := bytes.Repeat([]byte("serial stream data "), 2048)

	var comp bytes.Buffer
	w := compress.NewWriter(ctx, codec, &comp, 8<<10, 1)
	if _, err := w.Write(src); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r := compress.NewReader(ctx, codec, bytes.NewReader(comp.Bytes()), compress.DecodeLimits{}, 1)
	back, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, src) {
		t.Fatal("roundtrip mismatch")
	}
	root.End()

	chunks := findChildren(tr.Snapshot()[0].Root, "chunk")
	if len(chunks) == 0 {
		t.Fatal("no chunk spans from the serial engine")
	}
	var sawCompress, sawDecompress bool
	for _, c := range chunks {
		sawCompress = sawCompress || len(findChildren(c, "compress")) == 1
		sawDecompress = sawDecompress || len(findChildren(c, "decompress")) == 1
	}
	if !sawCompress || !sawDecompress {
		t.Fatalf("missing serial stages: compress=%v decompress=%v", sawCompress, sawDecompress)
	}
}

// TestEngineCountersDrain checks the process-wide gauges return to zero
// once every engine is closed, and the cumulative counters move.
func TestEngineCountersDrain(t *testing.T) {
	before := compress.EngineSnapshot()
	codec := gzipc.New()
	src := bytes.Repeat([]byte("counter data "), 8192)
	var comp bytes.Buffer
	w := compress.NewWriter(context.Background(), codec, &comp, 16<<10, 2)
	if _, err := w.Write(src); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r := compress.NewReader(context.Background(), codec, bytes.NewReader(comp.Bytes()), compress.DecodeLimits{}, 2)
	if _, err := io.ReadAll(r); err != nil {
		t.Fatal(err)
	}
	r.Close()

	after := compress.EngineSnapshot()
	if after.QueueDepth != 0 {
		t.Errorf("queue depth after drain = %d, want 0", after.QueueDepth)
	}
	if got := after.CompressChunks - before.CompressChunks; got < 4 {
		t.Errorf("compress chunks delta = %d, want >= 4", got)
	}
	if got := after.DecompressChunks - before.DecompressChunks; got < 4 {
		t.Errorf("decompress chunks delta = %d, want >= 4", got)
	}
	if after.CompressBytesIn-before.CompressBytesIn != int64(len(src)) {
		t.Errorf("compress bytes_in delta = %d, want %d", after.CompressBytesIn-before.CompressBytesIn, len(src))
	}
	if after.DecompressBytesOut-before.DecompressBytesOut != int64(len(src)) {
		t.Errorf("decompress bytes_out delta = %d, want %d", after.DecompressBytesOut-before.DecompressBytesOut, len(src))
	}
	if after.CompressBusyNS <= before.CompressBusyNS {
		t.Error("compress busy time did not advance")
	}
	if after.QueueWaitNS < before.QueueWaitNS {
		t.Error("queue wait time went backwards")
	}
}
