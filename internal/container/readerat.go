package container

import (
	"fmt"
	"io"

	"positbench/internal/chunkcache"
	"positbench/internal/compress"
)

// Random access over an indexed (v2) chunked stream. ReaderAt maps a raw
// `[off,len)` window to the minimal chunk set via the trailer index,
// fetches only those frames, verifies each against its indexed CRC-32C,
// and decodes them — in parallel on the chunk engine's pool when the
// window spans several chunks, and through an optional content-addressed
// cache so repeated windows (or identical chunks across objects) decode
// once.

// ReaderAtOptions tunes a ReaderAt. The zero value is usable: default
// decode limits, GOMAXPROCS workers, no cache.
type ReaderAtOptions struct {
	// Limits bounds every per-chunk decode, exactly as the stream readers do.
	Limits compress.DecodeLimits
	// Workers bounds parallel chunk decodes inside one ReadAt call;
	// <= 0 selects GOMAXPROCS. RangeReader streams chunk-at-a-time and
	// ignores it.
	Workers int
	// Cache, when non-nil, memoizes decoded chunks content-addressed by
	// the trailer's chunk hash (pinned by CRC and raw length).
	Cache *chunkcache.Cache
}

// ReaderAt provides random access into an indexed stream. ReadAt is
// stateless and safe for concurrent use; Range returns a stateful
// sequential reader over one window.
type ReaderAt struct {
	src   io.ReaderAt
	codec compress.Codec
	ix    *Index
	opt   ReaderAtOptions
}

// NewReaderAt discovers the index trailer of the stream readable through
// src (size bytes long) and returns a ReaderAt over it. A stream without a
// trailer yields ErrNoTrailer — the caller falls back to sequential decode;
// a present-but-inconsistent trailer yields a taxonomy error.
func NewReaderAt(src io.ReaderAt, size int64, codec compress.Codec, opt ReaderAtOptions) (*ReaderAt, error) {
	ix, err := ParseTrailer(src, size)
	if err != nil {
		return nil, err
	}
	return NewReaderAtIndex(src, ix, codec, opt), nil
}

// NewReaderAtIndex is NewReaderAt for a caller that already holds the
// parsed index (a store that validated it at ingest keeps and reuses it).
func NewReaderAtIndex(src io.ReaderAt, ix *Index, codec compress.Codec, opt ReaderAtOptions) *ReaderAt {
	return &ReaderAt{src: src, codec: codec, ix: ix, opt: opt}
}

// Size returns the total decoded stream length.
func (r *ReaderAt) Size() int64 { return r.ix.RawLen }

// Index returns the parsed seek index.
func (r *ReaderAt) Index() *Index { return r.ix }

// chunk fetches, verifies, and decodes chunk i, through the cache when one
// is attached. The returned slice is shared with the cache — read-only.
func (r *ReaderAt) chunk(i int) (data []byte, cached bool, err error) {
	ref := &r.ix.Chunks[i]
	fill := func() ([]byte, error) {
		frame := make([]byte, ref.CompLen)
		if _, err := r.src.ReadAt(frame, ref.Offset); err != nil {
			return nil, compress.Errorf(compress.ErrTruncated, "container: chunk %d frame: %v", i, err)
		}
		if got := Checksum(frame); got != ref.CRC {
			return nil, compress.Errorf(compress.ErrCorrupt, "container: chunk %d checksum %08x, index declares %08x", i, got, ref.CRC)
		}
		out, err := compress.DecompressLimits(r.codec, frame, r.opt.Limits)
		if err != nil {
			return nil, err
		}
		if int64(len(out)) != ref.RawLen {
			return nil, compress.Errorf(compress.ErrCorrupt, "container: chunk %d decoded %d bytes, index declares %d", i, len(out), ref.RawLen)
		}
		compress.AccountRangeChunk(ref.CompLen, ref.RawLen)
		return out, nil
	}
	if r.opt.Cache != nil {
		return r.opt.Cache.GetOrFill(ref.CacheKey(), fill)
	}
	data, err = fill()
	return data, false, err
}

// ReadAt implements io.ReaderAt over the decoded byte space: it decodes
// only the chunks overlapping [off, off+len(p)), in parallel when the
// window spans more than one. Reads past EOF return io.EOF with the bytes
// that exist, per the io.ReaderAt contract.
func (r *ReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("container: negative read offset %d", off)
	}
	if len(p) == 0 {
		return 0, nil
	}
	if off >= r.ix.RawLen {
		return 0, io.EOF
	}
	want := int64(len(p))
	short := false
	if off+want > r.ix.RawLen {
		want = r.ix.RawLen - off
		short = true
	}
	compress.AccountRangeRead()
	first, last := r.ix.Locate(off, want)
	outs := make([][]byte, last-first)
	errs := make([]error, last-first)
	compress.RunParallel(r.opt.Workers, last-first, func(i int) {
		outs[i], _, errs[i] = r.chunk(first + i)
	})
	var n int
	for i, out := range outs {
		if errs[i] != nil {
			return n, errs[i] // first error in stream order wins
		}
		ref := &r.ix.Chunks[first+i]
		lo := off + int64(n) - ref.RawOff
		n += copy(p[n:], out[lo:])
	}
	if short {
		return n, io.EOF
	}
	return n, nil
}

// Range returns a sequential reader over the decoded window
// [off, off+length). length < 0 means "to end of stream"; windows are
// clamped at EOF. Unlike wrapping ReadAt in an io.SectionReader — which
// would re-decode a chunk for every 32 KiB copy step — the RangeReader
// decodes each touched chunk exactly once and streams it out.
func (r *ReaderAt) Range(off, length int64) (*RangeReader, error) {
	if off < 0 {
		return nil, fmt.Errorf("container: negative range offset %d", off)
	}
	end := r.ix.RawLen
	if off > end {
		off = end
	}
	if length >= 0 && length < end-off {
		end = off + length
	}
	rr := &RangeReader{r: r, off: off, end: end}
	rr.next, rr.last = r.ix.Locate(off, end-off)
	if end > off {
		compress.AccountRangeRead()
	}
	return rr, nil
}

// RangeReader streams one decoded window chunk by chunk. Not safe for
// concurrent use.
type RangeReader struct {
	r    *ReaderAt
	off  int64 // next raw byte to deliver
	end  int64 // exclusive window end
	next int   // next chunk index to decode
	last int   // exclusive chunk bound
	cur  []byte
	err  error

	chunks    int   // chunks touched (decoded or served from cache)
	cacheHits int   // of those, served from cache
	compBytes int64 // compressed bytes of touched chunks
}

// Chunks reports how many chunks the window touched so far; the
// conformance wall bounds it at ceil(len/chunkSize)+1.
func (rr *RangeReader) Chunks() int { return rr.chunks }

// CacheHits reports how many touched chunks came out of the cache.
func (rr *RangeReader) CacheHits() int { return rr.cacheHits }

// CompBytes reports the compressed bytes of the touched chunks — what the
// range read fetched instead of the whole stream.
func (rr *RangeReader) CompBytes() int64 { return rr.compBytes }

// Read implements io.Reader.
func (rr *RangeReader) Read(p []byte) (int, error) {
	if rr.err != nil {
		return 0, rr.err
	}
	for len(rr.cur) == 0 {
		if rr.off >= rr.end || rr.next >= rr.last {
			rr.err = io.EOF
			return 0, io.EOF
		}
		i := rr.next
		rr.next++
		out, cached, err := rr.r.chunk(i)
		if err != nil {
			rr.err = err
			return 0, err
		}
		ref := &rr.r.ix.Chunks[i]
		rr.chunks++
		rr.compBytes += ref.CompLen
		if cached {
			rr.cacheHits++
		}
		lo := rr.off - ref.RawOff
		hi := ref.RawLen
		if ref.RawOff+hi > rr.end {
			hi = rr.end - ref.RawOff
		}
		rr.cur = out[lo:hi]
	}
	n := copy(p, rr.cur)
	rr.cur = rr.cur[n:]
	rr.off += int64(n)
	return n, nil
}

var (
	_ io.ReaderAt = (*ReaderAt)(nil)
	_ io.Reader   = (*RangeReader)(nil)
)
