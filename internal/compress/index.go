package compress

import "io"

// Random-access support for the chunked stream format. The writers know the
// exact frame layout as they emit it — offset of every payload, its
// compressed and raw lengths — so they can feed an IndexSink that later
// serializes a seek index (the container trailer). The sink is opt-in: the
// default stream is byte-identical to what PR-1 shipped, the hot path pays
// one nil check per chunk, and the alloc gates keep holding.

// IndexSink receives the frame layout of a chunked stream as it is written
// and serializes it after the stream terminator. Implemented by
// container.IndexBuilder; defined here so the stream writers need no
// dependency on the container's trailer format.
//
// AddChunk is called once per emitted frame, in stream order, with the
// absolute offset of the frame payload (after its uvarint length prefix),
// the compressed payload (valid only for the duration of the call), and the
// raw chunk length. WriteTrailer is called by Close exactly once, after the
// terminator byte, and returns the number of trailer bytes written.
type IndexSink interface {
	AddChunk(frameOff int64, comp []byte, rawLen int)
	WriteTrailer(dst io.Writer) (int64, error)
}

// AccountRangeRead records one random-access window resolution (one
// RangeReader stream) against the engine counters.
func AccountRangeRead() { engine.rangeReads.Add(1) }

// AccountRangeChunk records one chunk decoded on behalf of a range read:
// bytesIn is the compressed frame size actually fetched, bytesOut the raw
// chunk size produced. Cache hits do not call this — the counter is the
// ground truth for "how many chunks did random access really decode", which
// the conformance wall bounds at ceil(len/chunk)+1 per window.
func AccountRangeChunk(bytesIn, bytesOut int64) {
	engine.rangeChunks.Add(1)
	engine.rangeBytesIn.Add(bytesIn)
	engine.rangeBytesOut.Add(bytesOut)
}
