package container

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"positbench/internal/chunkcache"
	"positbench/internal/compress"
)

// buildIndexed writes data through the serial stream writer with an
// IndexBuilder attached and returns the v2 stream plus the builder's index.
func buildIndexed(t *testing.T, c compress.Codec, data []byte, chunk int) ([]byte, *Index) {
	t.Helper()
	var sink bytes.Buffer
	b := NewIndexBuilder()
	w := compress.NewWriter(context.Background(), c, &sink, chunk, 1)
	w.SetIndexSink(b)
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return sink.Bytes(), b.Index()
}

// patternData is deterministic mildly-structured test input.
func patternData(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i*7 + i>>3)
	}
	return out
}

func TestTrailerRoundtrip(t *testing.T) {
	c := Wrap(stub{})
	data := patternData(10 << 10)
	stream, built := buildIndexed(t, c, data, 1<<10)

	ix, err := ParseTrailer(bytes.NewReader(stream), int64(len(stream)))
	if err != nil {
		t.Fatalf("ParseTrailer: %v", err)
	}
	if len(ix.Chunks) != 10 || len(ix.Chunks) != len(built.Chunks) {
		t.Fatalf("parsed %d chunks, built %d, want 10", len(ix.Chunks), len(built.Chunks))
	}
	if ix.RawLen != int64(len(data)) {
		t.Fatalf("RawLen = %d, want %d", ix.RawLen, len(data))
	}
	if ix.DataLen+ix.TrailerLen != int64(len(stream)) {
		t.Fatalf("DataLen %d + TrailerLen %d != stream %d", ix.DataLen, ix.TrailerLen, len(stream))
	}
	for i := range ix.Chunks {
		if ix.Chunks[i] != built.Chunks[i] {
			t.Fatalf("chunk %d: parsed %+v, built %+v", i, ix.Chunks[i], built.Chunks[i])
		}
	}
	// The per-chunk records must point at real frame payloads: re-hash the
	// bytes they reference.
	for i, ref := range ix.Chunks {
		frame := stream[ref.Offset : ref.Offset+ref.CompLen]
		if Checksum(frame) != ref.CRC {
			t.Fatalf("chunk %d: CRC does not cover the referenced bytes", i)
		}
		if ChunkHash(frame) != ref.Hash {
			t.Fatalf("chunk %d: hash does not cover the referenced bytes", i)
		}
	}
}

func TestParseTrailerFallbackSignals(t *testing.T) {
	c := Wrap(stub{})
	data := patternData(4 << 10)
	// A v1 stream (no sink, no trailer).
	var v1 bytes.Buffer
	w := compress.NewWriter(context.Background(), c, &v1, 1<<10, 1)
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		blob []byte
	}{
		{"V1Stream", v1.Bytes()},
		{"Empty", nil},
		{"Terminator", []byte{0}},
		{"Tiny", []byte{1, 2, 3}},
	} {
		if _, err := ParseTrailer(bytes.NewReader(tc.blob), int64(len(tc.blob))); !errors.Is(err, ErrNoTrailer) {
			t.Errorf("%s: err = %v, want ErrNoTrailer", tc.name, err)
		}
	}
}

func TestParseTrailerValidation(t *testing.T) {
	c := Wrap(stub{})
	stream, _ := buildIndexed(t, c, patternData(4<<10), 1<<10)
	foot := len(stream) - trailerFooterLen

	mutate := func(f func(mut []byte) []byte) []byte {
		return f(append([]byte(nil), stream...))
	}
	cases := []struct {
		name     string
		blob     []byte
		sentinel error
	}{
		{"BadVersion", mutate(func(m []byte) []byte { m[foot+12] = 9; return m }), compress.ErrVersion},
		{"BodyCRCFlip", mutate(func(m []byte) []byte { m[foot] ^= 1; return m }), compress.ErrCorrupt},
		{"BodyLenHuge", mutate(func(m []byte) []byte {
			binary.LittleEndian.PutUint64(m[foot+4:], MaxTrailerBytes+1)
			return m
		}), compress.ErrLimitExceeded},
		{"BodyLenOverrun", mutate(func(m []byte) []byte {
			binary.LittleEndian.PutUint64(m[foot+4:], uint64(len(stream)))
			return m
		}), compress.ErrTruncated},
		{"TerminatorGone", mutate(func(m []byte) []byte {
			// Make the byte before the body non-zero by shifting the claimed
			// body start: shrink bodyLen by one and fix the CRC over the
			// shrunk body so only the terminator check can object.
			bodyLen := binary.LittleEndian.Uint64(m[foot+4:])
			body := m[foot-int(bodyLen)+1 : foot]
			binary.LittleEndian.PutUint64(m[foot+4:], bodyLen-1)
			binary.LittleEndian.PutUint32(m[foot:], Checksum(body))
			return m
		}), compress.ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseTrailer(bytes.NewReader(tc.blob), int64(len(tc.blob)))
			if !errors.Is(err, tc.sentinel) {
				t.Fatalf("err = %v, want %v", err, tc.sentinel)
			}
		})
	}
}

// TestRangeReadTouchedChunks pins the acceptance criterion on the engine
// counters: a range read of a large multi-chunk container decodes only the
// chunks overlapping the window — at most ceil(len/chunk)+1 — and fetches
// only their compressed bytes.
func TestRangeReadTouchedChunks(t *testing.T) {
	c := Wrap(stub{})
	const chunk = 4 << 10
	data := patternData(64 * chunk)
	stream, _ := buildIndexed(t, c, data, chunk)
	ra, err := NewReaderAt(bytes.NewReader(stream), int64(len(stream)), c, ReaderAtOptions{})
	if err != nil {
		t.Fatal(err)
	}

	const off, length = 10*chunk + 123, 3*chunk + 17
	before := compress.EngineSnapshot()
	rr, err := ra.Range(off, length)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(rr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[off:off+length]) {
		t.Fatal("range content mismatch")
	}
	after := compress.EngineSnapshot()

	maxChunks := int64(length/chunk) + 2 // ceil(len/chunk)+1 with len%chunk != 0
	if d := after.RangeChunks - before.RangeChunks; d > maxChunks || d < 1 {
		t.Fatalf("range read decoded %d chunks, bound is %d", d, maxChunks)
	}
	if d := after.RangeReads - before.RangeReads; d < 1 {
		t.Fatalf("range_reads delta = %d, want >= 1", d)
	}
	if d := after.RangeBytesIn - before.RangeBytesIn; d <= 0 || d >= int64(len(stream)) {
		t.Fatalf("range read fetched %d compressed bytes of a %d-byte stream; want a strict subset", d, len(stream))
	}
	if d := after.RangeBytesOut - before.RangeBytesOut; d < int64(length) {
		t.Fatalf("range_bytes_out delta = %d, want >= %d", d, length)
	}
}

// TestReaderAtConcurrent drives Range readers over one ReaderAt from many
// goroutines sharing one cache, as positd's range reads do; run under
// -race via `make race-twice`.
func TestReaderAtConcurrent(t *testing.T) {
	c := Wrap(stub{})
	const chunk = 2 << 10
	data := patternData(16 * chunk)
	stream, _ := buildIndexed(t, c, data, chunk)
	cache := chunkcache.New[chunkcache.Key](1<<20, chunkcache.Bytes)
	ra, err := NewReaderAt(bytes.NewReader(stream), int64(len(stream)), c, ReaderAtOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		go func() {
			for i := 0; i < 50; i++ {
				off := (g*977 + i*131) % len(data)
				n := (i*53)%4096 + 1
				rr, err := ra.Range(int64(off), int64(n))
				if err != nil {
					done <- err
					return
				}
				got, err := io.ReadAll(rr)
				if err != nil {
					done <- err
					return
				}
				if !bytes.Equal(got, data[off:min(off+n, len(data))]) {
					done <- errors.New("concurrent Range content mismatch")
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	st := cache.Snapshot()
	if st.Hits+st.Misses != st.Lookups {
		t.Fatalf("cache stats do not reconcile: %d + %d != %d", st.Hits, st.Misses, st.Lookups)
	}
}

// FuzzTrailerParse throws arbitrary bytes at the trailer parser: it must
// never panic, and when it does accept a trailer, every record must respect
// the file bounds and a bounded read through the ReaderAt must not panic
// either — it may only error through the taxonomy.
func FuzzTrailerParse(f *testing.F) {
	c := Wrap(stub{})
	var sink bytes.Buffer
	w := compress.NewWriter(context.Background(), c, &sink, 512, 1)
	w.SetIndexSink(NewIndexBuilder())
	if _, err := w.Write(patternData(2048)); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	valid := sink.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-9])
	f.Add([]byte{0})
	mut := append([]byte(nil), valid...)
	mut[len(mut)-20] ^= 0x40
	f.Add(mut)

	f.Fuzz(func(t *testing.T, blob []byte) {
		ix, err := ParseTrailer(bytes.NewReader(blob), int64(len(blob)))
		if err != nil {
			if !errors.Is(err, ErrNoTrailer) && !errors.Is(err, compress.ErrCorrupt) && !errors.Is(err, compress.ErrLimitExceeded) {
				t.Fatalf("error outside taxonomy: %v", err)
			}
			return
		}
		var prevEnd int64
		for i, ref := range ix.Chunks {
			if ref.Offset <= prevEnd || ref.CompLen < 0 || ref.Offset+ref.CompLen >= ix.DataLen {
				t.Fatalf("accepted out-of-bounds record %d: %+v (dataLen %d)", i, ref, ix.DataLen)
			}
			prevEnd = ref.Offset + ref.CompLen
		}
		ra := NewReaderAtIndex(bytes.NewReader(blob), ix, c, ReaderAtOptions{
			Limits: compress.DecodeLimits{MaxOutputBytes: 1 << 16},
		})
		rr, err := ra.Range(0, 1<<16)
		if err != nil {
			return
		}
		if _, err := io.Copy(io.Discard, rr); err != nil &&
			!errors.Is(err, compress.ErrCorrupt) && !errors.Is(err, compress.ErrLimitExceeded) {
			t.Fatalf("read error outside taxonomy: %v", err)
		}
	})
}
