package compress

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"testing"
)

// FuzzParallelReader differentially fuzzes the pool decode path (4
// workers) against the inline one (1 worker) on arbitrary stream bytes:
// both must agree on success vs failure and on the decoded prefix, and
// neither may panic, hang, or leak goroutines. Run by `make fuzz-smoke` along with every other target.
func FuzzParallelReader(f *testing.F) {
	// Valid streams of 0, 1, and several chunks.
	for _, size := range []int{0, 10, 3000} {
		var sink bytes.Buffer
		w := NewWriter(context.Background(), passthrough{}, &sink, 64, 1)
		w.Write(parallelData(size))
		w.Close()
		f.Add(sink.Bytes())
	}
	// Known-bad frames: truncation, garbage, and a chunk-length bomb.
	f.Add([]byte{})
	f.Add([]byte{5, 0xA5, 1})
	f.Add(append(binary.AppendUvarint(nil, 1<<60), 0xA5, 1, 2, 3))
	lim := DecodeLimits{MaxOutputBytes: 1 << 20}
	f.Fuzz(func(t *testing.T, stream []byte) {
		oneOut, oneErr := io.ReadAll(NewReader(context.Background(), passthrough{}, bytes.NewReader(stream), lim, 1))
		r := NewReader(context.Background(), passthrough{}, bytes.NewReader(stream), lim, 4)
		parOut, parErr := io.ReadAll(r)
		r.Close()
		if (oneErr == nil) != (parErr == nil) {
			t.Fatalf("decode disagreement: 1 worker err %v, 4 workers err %v", oneErr, parErr)
		}
		if !bytes.Equal(oneOut, parOut) {
			t.Fatalf("output disagreement: 1 worker %d bytes, 4 workers %d bytes", len(oneOut), len(parOut))
		}
	})
}
