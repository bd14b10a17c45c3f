package codectest

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"positbench/internal/chunkcache"
	"positbench/internal/compress"
	"positbench/internal/container"
)

// RangeEquivalence is the random-access conformance wall: for codec c it
// builds an indexed (v2) stream and asserts that
//
//   - the trailer is invisible to v1 readers (sequential decode unchanged)
//     and identical whether one worker or four emitted it;
//   - every `[off,len)` window — off=0, len=0, chunk-boundary straddling,
//     tail-straddling, whole-file, past-EOF, and a seeded random sample —
//     decoded through RangeReader, one window at a time and all at once on
//     one shared ReaderAt, is byte-identical to the corresponding slice of
//     the full sequential decode;
//   - a window only ever touches ceil(len/chunk)+1 chunks;
//   - with a content-addressed cache attached, replayed windows hit the
//     cache and still return exactly the same bytes;
//   - a tampered trailer never yields wrong bytes: sequential fallback or a
//     typed taxonomy error only (TrailerFaults).
func RangeEquivalence(t *testing.T, c compress.Codec) {
	t.Helper()
	const chunk = 8 << 10
	data := smoothFloatField(10 << 10) // 40 KiB -> 5 full chunks
	stream, _ := indexedStream(t, c, data, chunk)
	total := int64(len(data))
	lim := faultLimits(len(data))

	t.Run("TrailerInvisibleToV1", func(t *testing.T) {
		back, err := io.ReadAll(compress.NewReader(context.Background(), c, bytes.NewReader(stream), compress.DecodeLimits{}, 1))
		if err != nil {
			t.Fatalf("sequential decode of indexed stream: %v", err)
		}
		if !bytes.Equal(back, data) {
			t.Fatal("sequential decode of indexed stream mismatch")
		}
	})
	t.Run("ParallelWriterTrailer", func(t *testing.T) {
		var sink bytes.Buffer
		b := container.NewIndexBuilder()
		w := compress.NewWriter(context.Background(), c, &sink, chunk, 4)
		w.SetIndexSink(b)
		if _, err := w.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sink.Bytes(), stream) {
			t.Fatal("indexed stream at 4 workers differs from one worker's")
		}
	})

	ra, err := container.NewReaderAt(bytes.NewReader(stream), int64(len(stream)), c, container.ReaderAtOptions{Limits: lim})
	if err != nil {
		t.Fatalf("NewReaderAt: %v", err)
	}
	if ra.Size() != total {
		t.Fatalf("Size() = %d, want %d", ra.Size(), total)
	}

	windows := []struct{ off, len int64 }{
		{0, 0}, {0, 1}, {0, total}, {0, -1},
		{total, 0}, {total, 5}, {total + 9, 4}, // at and past EOF
		{total - 1, 1}, {total - 7, 100}, // tail-straddling
		{1, total},               // clamped whole-file
		{chunk - 3, 7},           // chunk-boundary straddling
		{chunk, chunk},           // chunk-aligned
		{chunk + 1, 3*chunk - 2}, // multi-chunk interior
	}
	rng := rand.New(rand.NewSource(faultSeed(t, 0x7a11)))
	for i := 0; i < 12; i++ {
		windows = append(windows, struct{ off, len int64 }{rng.Int63n(total + 2), rng.Int63n(total / 2)})
	}

	want := func(off, length int64) []byte {
		if off >= total {
			return nil
		}
		end := total
		if length >= 0 && off+length < end {
			end = off + length
		}
		return data[off:end]
	}

	t.Run("Windows", func(t *testing.T) {
		for _, win := range windows {
			rr, err := ra.Range(win.off, win.len)
			if err != nil {
				t.Fatalf("Range(%d,%d): %v", win.off, win.len, err)
			}
			got, err := io.ReadAll(rr)
			if err != nil {
				t.Fatalf("Range(%d,%d) read: %v", win.off, win.len, err)
			}
			w := want(win.off, win.len)
			if !bytes.Equal(got, w) {
				t.Fatalf("Range(%d,%d): got %d bytes, want %d, or content mismatch", win.off, win.len, len(got), len(w))
			}
			if maxChunks := int(int64(len(w))/chunk) + 2; rr.Chunks() > maxChunks {
				t.Fatalf("Range(%d,%d): touched %d chunks, bound is %d", win.off, win.len, rr.Chunks(), maxChunks)
			}
		}
	})
	t.Run("ReadAt", func(t *testing.T) {
		// Every window at once, one goroutine each, through Range readers
		// over one shared ReaderAt, as concurrent reads of one object
		// arrive at positd: the codec's decode must be safe for that.
		shared := container.NewReaderAtIndex(bytes.NewReader(stream), ra.Index(), c, container.ReaderAtOptions{Limits: lim})
		errs := make([]error, len(windows))
		var wg sync.WaitGroup
		for i, win := range windows {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rr, err := shared.Range(win.off, win.len)
				if err == nil {
					var got []byte
					if got, err = io.ReadAll(rr); err == nil && !bytes.Equal(got, want(win.off, win.len)) {
						err = fmt.Errorf("content mismatch (%d bytes)", len(got))
					}
				}
				errs[i] = err
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("concurrent Range(%d,%d): %v", windows[i].off, windows[i].len, err)
			}
		}
	})
	t.Run("CachedReplay", func(t *testing.T) {
		cache := chunkcache.New[chunkcache.Key](1<<20, chunkcache.Bytes)
		cra := container.NewReaderAtIndex(bytes.NewReader(stream), ra.Index(), c, container.ReaderAtOptions{Limits: lim, Cache: cache})
		for pass := 0; pass < 2; pass++ {
			for _, win := range windows {
				rr, err := cra.Range(win.off, win.len)
				if err != nil {
					t.Fatal(err)
				}
				got, err := io.ReadAll(rr)
				if err != nil {
					t.Fatalf("pass %d Range(%d,%d): %v", pass, win.off, win.len, err)
				}
				if !bytes.Equal(got, want(win.off, win.len)) {
					t.Fatalf("pass %d Range(%d,%d): cached content mismatch", pass, win.off, win.len)
				}
			}
		}
		st := cache.Snapshot()
		if st.Hits == 0 {
			t.Fatal("replayed windows produced no cache hits")
		}
		if st.Hits+st.Misses != st.Lookups {
			t.Fatalf("cache stats do not reconcile: %d hits + %d misses != %d lookups", st.Hits, st.Misses, st.Lookups)
		}
	})
	t.Run("EmptyStream", func(t *testing.T) {
		empty, _ := indexedStream(t, c, nil, chunk)
		era, err := container.NewReaderAt(bytes.NewReader(empty), int64(len(empty)), c, container.ReaderAtOptions{Limits: lim})
		if err != nil {
			t.Fatalf("empty indexed stream: %v", err)
		}
		if era.Size() != 0 {
			t.Fatalf("empty stream Size() = %d", era.Size())
		}
		rr, err := era.Range(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if out, err := io.ReadAll(rr); err != nil || len(out) != 0 {
			t.Fatalf("empty range read: %d bytes, %v", len(out), err)
		}
	})
	t.Run("TrailerFaults", func(t *testing.T) { trailerFaults(t, c, stream, data, ra.Index(), lim) })
}

// indexedStream builds a v2 (trailer-carrying) stream through a
// one-worker writer.
func indexedStream(t *testing.T, c compress.Codec, data []byte, chunk int) ([]byte, *container.Index) {
	t.Helper()
	var sink bytes.Buffer
	b := container.NewIndexBuilder()
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

// trailerFaults mutates only the trailer region of an indexed stream —
// truncation at every prefix, a bit flip at every bit, and structurally
// tampered records (offset/CRC/hash tamper, duplicates, out-of-order) with
// the body CRC recomputed so the tamper survives the checksum gate — and
// asserts the contract: ErrNoTrailer (sequential fallback still yields the
// exact original bytes), a taxonomy error, or a successful parse whose
// reads still return exactly the original bytes. Never wrong bytes.
func trailerFaults(t *testing.T, c compress.Codec, stream, data []byte, ix *container.Index, lim compress.DecodeLimits) {
	t.Helper()
	dataLen := int(ix.DataLen)

	check := func(desc string, mut []byte, verifyFallback bool) {
		t.Helper()
		ra, err := container.NewReaderAt(bytes.NewReader(mut), int64(len(mut)), c, container.ReaderAtOptions{Limits: lim})
		if err != nil {
			if errors.Is(err, container.ErrNoTrailer) {
				if !verifyFallback {
					return
				}
				// The data region is untouched, so the v1 fallback must
				// still deliver the original bytes.
				out, rerr := io.ReadAll(compress.NewReader(context.Background(), c, bytes.NewReader(mut), lim, 1))
				if rerr != nil || !bytes.Equal(out, data) {
					t.Fatalf("%s: sequential fallback broke: %d bytes, %v", desc, len(out), rerr)
				}
				return
			}
			if !errors.Is(err, compress.ErrCorrupt) && !errors.Is(err, compress.ErrLimitExceeded) {
				t.Fatalf("%s: error outside taxonomy: %v", desc, err)
			}
			return
		}
		// The tampered trailer parsed. Whatever it claims, a read must
		// produce the original bytes or fail with a typed error.
		rr, err := ra.Range(0, -1)
		if err != nil {
			t.Fatalf("%s: Range: %v", desc, err)
		}
		out, rerr := io.ReadAll(rr)
		if rerr != nil {
			if !errors.Is(rerr, compress.ErrCorrupt) && !errors.Is(rerr, compress.ErrLimitExceeded) {
				t.Fatalf("%s: read error outside taxonomy: %v", desc, rerr)
			}
			return
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("%s: tampered trailer yielded wrong bytes (%d, want %d)", desc, len(out), len(data))
		}
	}

	// Truncation at every prefix of the trailer region (the data region and
	// terminator stay intact). Decoding the fallback on every cut is
	// wasteful — the classification is checked everywhere, the fallback
	// bytes on a sample.
	for cut := dataLen; cut < len(stream); cut++ {
		check("truncation", stream[:cut], cut%7 == 0)
	}
	// A bit flip at every bit of the trailer.
	for pos := 8 * dataLen; pos < 8*len(stream); pos++ {
		mut := append([]byte(nil), stream...)
		mut[pos/8] ^= 1 << uint(pos%8)
		check("bit flip", mut, pos%97 == 0)
	}

	// Structural record tampering with a self-consistent checksum: rebuild
	// the trailer from modified records so only the record-level validation
	// can catch it.
	retrailer := func(desc string, mutate func(refs []container.ChunkRef) []container.ChunkRef) {
		refs := mutate(append([]container.ChunkRef(nil), ix.Chunks...))
		mut := append([]byte(nil), stream[:dataLen]...)
		check(desc, append(mut, encodeTrailer(refs)...), true)
	}
	retrailer("offset tamper", func(refs []container.ChunkRef) []container.ChunkRef {
		refs[1].Offset++
		return refs
	})
	retrailer("compLen tamper", func(refs []container.ChunkRef) []container.ChunkRef {
		refs[1].CompLen++
		return refs
	})
	retrailer("rawLen tamper", func(refs []container.ChunkRef) []container.ChunkRef {
		refs[1].RawLen++
		return refs
	})
	retrailer("CRC tamper", func(refs []container.ChunkRef) []container.ChunkRef {
		refs[2].CRC ^= 0xdeadbeef
		return refs
	})
	retrailer("hash tamper", func(refs []container.ChunkRef) []container.ChunkRef {
		refs[2].Hash[0] ^= 0xff
		return refs
	})
	retrailer("duplicate record", func(refs []container.ChunkRef) []container.ChunkRef {
		return append(refs[:2], append([]container.ChunkRef{refs[1]}, refs[2:]...)...)
	})
	retrailer("out-of-order records", func(refs []container.ChunkRef) []container.ChunkRef {
		refs[1], refs[2] = refs[2], refs[1]
		return refs
	})
	retrailer("zero-length record", func(refs []container.ChunkRef) []container.ChunkRef {
		refs[3].RawLen = 0
		return refs
	})
}

// encodeTrailer serializes chunk records into trailer wire format,
// recomputing the body checksum. It deliberately re-implements the layout
// (rather than calling IndexBuilder) so format drift between writer and
// tests is itself a failure, and so tests can encode records no honest
// builder would produce.
func encodeTrailer(refs []container.ChunkRef) []byte {
	var body []byte
	body = binary.AppendUvarint(body, uint64(len(refs)))
	for i := range refs {
		body = binary.AppendUvarint(body, uint64(refs[i].Offset))
		body = binary.AppendUvarint(body, uint64(refs[i].CompLen))
		body = binary.AppendUvarint(body, uint64(refs[i].RawLen))
		body = binary.LittleEndian.AppendUint32(body, refs[i].CRC)
		body = append(body, refs[i].Hash[:]...)
	}
	out := body
	out = binary.LittleEndian.AppendUint32(out, container.Checksum(body))
	out = binary.LittleEndian.AppendUint64(out, uint64(len(body)))
	out = append(out, container.TrailerVersion)
	out = append(out, container.TrailerMagic[:]...)
	return out
}
