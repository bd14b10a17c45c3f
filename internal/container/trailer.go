// Seek-index trailer: container format v2. A v2 stream is a v1 chunked
// stream (uvarint-prefixed frames, 0x00 terminator) followed by an index
// trailer that maps every chunk to its byte range, so a reader can seek to
// EOF, discover the index, and decode only the chunks a `[off,len)` window
// touches. v1 readers stop at the terminator and never see the trailer; v1
// streams have no trailer and ParseTrailer reports ErrNoTrailer, the signal
// to fall back to sequential decode. Either way the bytes come out right —
// the trailer buys seeks, never correctness.
//
// Layout, appended immediately after the stream terminator (integers
// little-endian; varints unsigned LEB128):
//
//	body:
//	    uvarint chunk count
//	    per chunk, in stream order:
//	        uvarint frame offset   absolute offset of the frame payload
//	                               (after its uvarint length prefix)
//	        uvarint compLen        compressed payload length
//	        uvarint rawLen         decoded chunk length
//	        4 bytes                CRC-32C of the compressed payload
//	        16 bytes               truncated SHA-256 of the compressed payload
//	footer (fixed 17 bytes, last in the file):
//	    4 bytes   CRC-32C of the body
//	    8 bytes   uint64 body length
//	    1 byte    trailer version (1)
//	    4 bytes   magic "PBIX"
//
// Discovery reads the footer from EOF, walks back over the body, and
// verifies magic, version, CRC, and every record against the file bounds.
// The trailer carries its own magic and CRC precisely so a truncated or
// bit-flipped tail degrades to "no trailer" or a typed error — never to an
// index that points a range read at the wrong bytes.
package container

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"io"

	"positbench/internal/chunkcache"
	"positbench/internal/compress"
)

// TrailerMagic identifies a positbench index trailer at EOF.
var TrailerMagic = [4]byte{'P', 'B', 'I', 'X'}

// TrailerVersion is the current trailer format version.
const TrailerVersion = 1

// HashLen is the per-chunk content-hash width (SHA-256 truncated).
const HashLen = 16

// trailerFooterLen is the fixed footer: body CRC + body length + version +
// magic.
const trailerFooterLen = 4 + 8 + 1 + 4

// minRecordLen is the smallest encodable chunk record: three 1-byte
// varints, the CRC, and the hash. Bounds record count against body length
// before any allocation proportional to the declared count.
const minRecordLen = 3 + 4 + HashLen

// MaxTrailerBytes caps how large a declared trailer body a reader will
// buffer; a tampered footer cannot demand an unbounded allocation.
const MaxTrailerBytes = 64 << 20

// ErrNoTrailer reports a stream without an index trailer — a v1 stream, or
// a tail too mangled to even claim to be one. It is deliberately NOT part
// of the corrupt taxonomy: the stream may be perfectly valid, it just
// cannot be seeked, and callers answer it with a sequential decode.
var ErrNoTrailer = errors.New("container: stream has no index trailer")

// ChunkRef is one chunk's index record plus its position in the raw
// (decoded) byte space, reconstructed at parse time from the running sum of
// rawLen.
type ChunkRef struct {
	Offset  int64         // absolute offset of the frame payload
	CompLen int64         // compressed payload length
	RawOff  int64         // offset of this chunk's first byte in the decoded stream
	RawLen  int64         // decoded chunk length
	CRC     uint32        // CRC-32C of the compressed payload
	Hash    [HashLen]byte // truncated SHA-256 of the compressed payload
}

// CacheKey derives the content-addressed cache key for this chunk: the
// hash, with the CRC and raw length folded in so a forged hash alone cannot
// address another chunk's cached bytes.
func (ref *ChunkRef) CacheKey() chunkcache.Key {
	var k chunkcache.Key
	copy(k[:HashLen], ref.Hash[:])
	binary.LittleEndian.PutUint32(k[HashLen:], ref.CRC)
	binary.LittleEndian.PutUint32(k[HashLen+4:], uint32(ref.RawLen))
	return k
}

// Index is a parsed (or freshly built) seek index over a chunked stream.
type Index struct {
	Chunks     []ChunkRef
	RawLen     int64 // total decoded stream length
	TrailerLen int64 // encoded trailer size in bytes (body + footer)
	DataLen    int64 // stream bytes before the trailer, terminator included
}

// Locate returns the half-open chunk range [first, last) whose raw bytes
// overlap the window [off, off+length). An empty window (or one past EOF)
// yields first == last.
func (ix *Index) Locate(off, length int64) (first, last int) {
	if length <= 0 || off >= ix.RawLen || off+length <= 0 {
		return 0, 0
	}
	end := off + length
	if end > ix.RawLen {
		end = ix.RawLen
	}
	// First chunk whose exclusive end exceeds off.
	first = sortSearch(len(ix.Chunks), func(i int) bool {
		c := &ix.Chunks[i]
		return c.RawOff+c.RawLen > off
	})
	// First chunk starting at or past the window end.
	last = sortSearch(len(ix.Chunks), func(i int) bool {
		return ix.Chunks[i].RawOff >= end
	})
	return first, last
}

// CompBytes sums the compressed payload bytes of chunks [first, last) — the
// bytes a range read actually fetches, reported by compressbench -index.
func (ix *Index) CompBytes(first, last int) int64 {
	var n int64
	for i := first; i < last; i++ {
		n += ix.Chunks[i].CompLen
	}
	return n
}

// sortSearch is sort.Search without the package dependency (binary search
// for the smallest i in [0, n) with f(i) true).
func sortSearch(n int, f func(int) bool) int {
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if f(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// ChunkHash is the trailer's per-chunk content hash: SHA-256 of the
// compressed payload, truncated to HashLen bytes.
func ChunkHash(comp []byte) [HashLen]byte {
	sum := sha256.Sum256(comp)
	var h [HashLen]byte
	copy(h[:], sum[:HashLen])
	return h
}

// IndexBuilder accumulates chunk records as a stream writer emits frames
// and serializes the trailer at Close. It implements compress.IndexSink:
// attach with (*compress.Writer).SetIndexSink before the first Write.
type IndexBuilder struct {
	ix Index
}

// NewIndexBuilder returns an empty builder.
func NewIndexBuilder() *IndexBuilder { return &IndexBuilder{} }

// AddChunk records one emitted frame (compress.IndexSink).
func (b *IndexBuilder) AddChunk(frameOff int64, comp []byte, rawLen int) {
	b.ix.Chunks = append(b.ix.Chunks, ChunkRef{
		Offset:  frameOff,
		CompLen: int64(len(comp)),
		RawOff:  b.ix.RawLen,
		RawLen:  int64(rawLen),
		CRC:     Checksum(comp),
		Hash:    ChunkHash(comp),
	})
	b.ix.RawLen += int64(rawLen)
}

// Index returns the accumulated index. Valid once the stream is closed;
// TrailerLen and DataLen are set after WriteTrailer runs.
func (b *IndexBuilder) Index() *Index { return &b.ix }

// AppendTrailer serializes the trailer onto dst and returns the extended
// slice.
func (b *IndexBuilder) AppendTrailer(dst []byte) []byte {
	bodyStart := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(b.ix.Chunks)))
	for i := range b.ix.Chunks {
		c := &b.ix.Chunks[i]
		dst = binary.AppendUvarint(dst, uint64(c.Offset))
		dst = binary.AppendUvarint(dst, uint64(c.CompLen))
		dst = binary.AppendUvarint(dst, uint64(c.RawLen))
		dst = binary.LittleEndian.AppendUint32(dst, c.CRC)
		dst = append(dst, c.Hash[:]...)
	}
	body := dst[bodyStart:]
	dst = binary.LittleEndian.AppendUint32(dst, Checksum(body))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(body)))
	dst = append(dst, TrailerVersion)
	dst = append(dst, TrailerMagic[:]...)
	return dst
}

// WriteTrailer writes the encoded trailer to dst (compress.IndexSink),
// returning its length.
func (b *IndexBuilder) WriteTrailer(dst io.Writer) (int64, error) {
	blob := b.AppendTrailer(nil)
	b.ix.TrailerLen = int64(len(blob))
	if len(b.ix.Chunks) > 0 {
		last := &b.ix.Chunks[len(b.ix.Chunks)-1]
		b.ix.DataLen = last.Offset + last.CompLen + 1 // + terminator
	} else {
		b.ix.DataLen = 1
	}
	n, err := dst.Write(blob)
	return int64(n), err
}

// ParseTrailer discovers and validates the index trailer of a stream of the
// given size readable through src. It returns ErrNoTrailer when the tail
// does not carry the trailer magic (a v1 stream — fall back to sequential
// decode), and a taxonomy error (ErrCorrupt / ErrTruncated / ErrVersion /
// ErrLimitExceeded) when a trailer is present but inconsistent. On success
// every record is bounds-checked against the file: offsets strictly
// increase, frames stay inside the data region, and the terminator byte
// sits exactly where the trailer says the data ends.
func ParseTrailer(src io.ReaderAt, size int64) (*Index, error) {
	if size < trailerFooterLen+1 {
		// Too short to hold a footer after even an empty stream.
		return nil, ErrNoTrailer
	}
	var foot [trailerFooterLen]byte
	if _, err := src.ReadAt(foot[:], size-trailerFooterLen); err != nil {
		return nil, compress.Errorf(compress.ErrTruncated, "container: trailer footer: %v", err)
	}
	if [4]byte(foot[13:17]) != TrailerMagic {
		return nil, ErrNoTrailer
	}
	if foot[12] != TrailerVersion {
		return nil, compress.Errorf(compress.ErrVersion, "container: trailer version %d (supported: %d)", foot[12], TrailerVersion)
	}
	bodyLen := binary.LittleEndian.Uint64(foot[4:12])
	if bodyLen > MaxTrailerBytes {
		return nil, compress.Errorf(compress.ErrLimitExceeded, "container: trailer body declares %d bytes, limit %d", bodyLen, int64(MaxTrailerBytes))
	}
	trailerLen := int64(bodyLen) + trailerFooterLen
	if trailerLen+1 > size {
		// The terminator byte must precede the trailer.
		return nil, compress.Errorf(compress.ErrTruncated, "container: trailer (%d bytes) does not fit a %d-byte stream", trailerLen, size)
	}
	body := make([]byte, bodyLen)
	if _, err := src.ReadAt(body, size-trailerLen); err != nil {
		return nil, compress.Errorf(compress.ErrTruncated, "container: trailer body: %v", err)
	}
	if got := Checksum(body); got != binary.LittleEndian.Uint32(foot[0:4]) {
		return nil, compress.Errorf(compress.ErrCorrupt, "container: trailer checksum %08x, want %08x", got, binary.LittleEndian.Uint32(foot[0:4]))
	}
	dataEnd := size - trailerLen // end of the data region; terminator at dataEnd-1
	var term [1]byte
	if _, err := src.ReadAt(term[:], dataEnd-1); err != nil {
		return nil, compress.Errorf(compress.ErrTruncated, "container: stream terminator: %v", err)
	}
	if term[0] != 0 {
		return nil, compress.Errorf(compress.ErrCorrupt, "container: byte before trailer is %#02x, want stream terminator", term[0])
	}

	count, used := binary.Uvarint(body)
	if used <= 0 {
		return nil, uvarintErr("trailer chunk count", used)
	}
	rest := body[used:]
	if count > uint64(len(rest))/minRecordLen {
		return nil, compress.Errorf(compress.ErrCorrupt, "container: trailer declares %d chunks in %d body bytes", count, len(body))
	}
	ix := &Index{
		Chunks:     make([]ChunkRef, 0, count),
		TrailerLen: trailerLen,
		DataLen:    dataEnd,
	}
	var prevEnd int64 // exclusive end of the previous frame payload
	for i := uint64(0); i < count; i++ {
		var ref ChunkRef
		off, used := binary.Uvarint(rest)
		if used <= 0 {
			return nil, uvarintErr("trailer chunk offset", used)
		}
		rest = rest[used:]
		compLen, used := binary.Uvarint(rest)
		if used <= 0 {
			return nil, uvarintErr("trailer chunk length", used)
		}
		rest = rest[used:]
		rawLen, used := binary.Uvarint(rest)
		if used <= 0 {
			return nil, uvarintErr("trailer raw length", used)
		}
		rest = rest[used:]
		if len(rest) < 4+HashLen {
			return nil, compress.Errorf(compress.ErrTruncated, "container: trailer record %d cut short", i)
		}
		ref.CRC = binary.LittleEndian.Uint32(rest)
		copy(ref.Hash[:], rest[4:4+HashLen])
		rest = rest[4+HashLen:]

		if off > uint64(dataEnd) || compLen > uint64(dataEnd) || rawLen > uint64(1)<<62 {
			return nil, compress.Errorf(compress.ErrCorrupt, "container: trailer record %d out of bounds", i)
		}
		ref.Offset, ref.CompLen, ref.RawLen = int64(off), int64(compLen), int64(rawLen)
		if ref.RawLen < 1 {
			// The writers never emit empty chunks; a zero rawLen record is a
			// duplicate-or-padding tamper, not a real chunk.
			return nil, compress.Errorf(compress.ErrCorrupt, "container: trailer record %d declares empty chunk", i)
		}
		// Each frame payload is preceded by a >= 1-byte length prefix, so
		// consecutive payloads cannot touch; equality or overlap means
		// duplicated or out-of-order records.
		if ref.Offset <= prevEnd {
			return nil, compress.Errorf(compress.ErrCorrupt, "container: trailer record %d offset %d not after previous frame end %d", i, ref.Offset, prevEnd)
		}
		if ref.Offset+ref.CompLen > dataEnd-1 {
			return nil, compress.Errorf(compress.ErrCorrupt, "container: trailer record %d overruns data region", i)
		}
		prevEnd = ref.Offset + ref.CompLen
		ref.RawOff = ix.RawLen
		ix.RawLen += ref.RawLen
		ix.Chunks = append(ix.Chunks, ref)
	}
	if len(rest) != 0 {
		return nil, compress.Errorf(compress.ErrCorrupt, "container: %d trailing bytes after trailer records", len(rest))
	}
	return ix, nil
}

var _ compress.IndexSink = (*IndexBuilder)(nil)
