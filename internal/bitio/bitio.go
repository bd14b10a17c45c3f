// Package bitio provides MSB-first bit-level readers and writers plus
// variable-length integer helpers. It is the shared substrate for the
// entropy coders (Huffman, range coder) and the LC coding components.
package bitio

import (
	"encoding/binary"

	"positbench/internal/compress"
)

// ErrUnexpectedEOF is returned when a read runs past the end of the stream.
// It matches compress.ErrTruncated (and therefore compress.ErrCorrupt) under
// errors.Is, so decoders built on bitio inherit the error taxonomy for free.
var ErrUnexpectedEOF = compress.Errorf(compress.ErrTruncated, "bitio: unexpected end of stream")

// Writer accumulates bits MSB-first into a byte buffer.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	cur  uint64 // pending bits, right-aligned (low nbit bits are valid)
	nbit uint   // number of pending bits in cur (always 0..31 between calls)
}

// NewWriter returns a Writer whose internal buffer has the given capacity hint.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// WriteBit appends a single bit (0 or 1).
func (w *Writer) WriteBit(b uint) {
	w.cur = w.cur<<1 | uint64(b&1)
	w.nbit++
	if w.nbit == 32 {
		w.nbit = 0
		w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(w.cur))
	}
}

// WriteBits appends the low n bits of v, most significant first. n may be 0..64.
// Bits gather in a 64-bit accumulator, and every 32 of them leave it in one
// big-endian 4-byte append.
func (w *Writer) WriteBits(v uint64, n uint) {
	if n > 32 {
		// The high part first, so that each part fits the accumulator
		// beside the at most 31 pending bits.
		w.WriteBits(v>>32, n-32)
		n = 32
	}
	w.cur = w.cur<<n | v&(1<<n-1)
	w.nbit += n
	if w.nbit >= 32 {
		w.nbit -= 32
		w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(w.cur>>w.nbit))
	}
}

// flushBytes appends the whole bytes among the pending bits, leaving 0..7.
func (w *Writer) flushBytes() {
	for w.nbit >= 8 {
		w.nbit -= 8
		w.buf = append(w.buf, byte(w.cur>>w.nbit))
	}
}

// WriteBytes appends a byte slice.
func (w *Writer) WriteBytes(p []byte) {
	w.flushBytes()
	if w.nbit == 0 {
		w.buf = append(w.buf, p...)
		return
	}
	for _, b := range p {
		w.WriteBits(uint64(b), 8)
	}
}

// Align pads the stream with zero bits up to the next byte boundary.
func (w *Writer) Align() {
	w.flushBytes()
	if w.nbit > 0 {
		w.buf = append(w.buf, byte(w.cur<<(8-w.nbit)))
		w.cur, w.nbit = 0, 0
	}
}

// Bytes flushes (aligning to a byte boundary) and returns the written bytes.
// The returned slice aliases the writer's buffer.
func (w *Writer) Bytes() []byte {
	w.Align()
	return w.buf
}

// Reset clears the writer for reuse.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.cur, w.nbit = 0, 0
}

// Reader consumes bits MSB-first from a byte slice.
//
// It keeps a 64-bit lookahead word: refill loads 8 source bytes with one
// big-endian load whenever at least 8 remain, so steady-state ReadBits is a
// shift-and-mask with no per-byte loop. Invariants:
//
//   - cur holds the next nbit unconsumed stream bits, MSB-aligned (bit 63
//     is the very next bit).
//   - bits of cur at positions below the top nbit are either zero or equal
//     to the true upcoming stream bits (partial prefix of the next source
//     byte deposited by a wide refill). Zero-padded peeks are therefore
//     safe at end of stream, where those bits are always zero.
//   - after refill, nbit >= 57 unless fewer bits remain in the source, in
//     which case every remaining bit is in cur.
type Reader struct {
	buf  []byte
	pos  int    // next unconsumed byte index; bits before pos*8 are consumed or in cur
	cur  uint64 // upcoming bits, MSB-aligned
	nbit uint   // number of valid bits in cur
}

// NewReader returns a Reader over p. The reader does not copy p.
func NewReader(p []byte) *Reader {
	return &Reader{buf: p}
}

// Reset rewinds the reader to the start of p, reusing the struct.
func (r *Reader) Reset(p []byte) {
	r.buf, r.pos, r.cur, r.nbit = p, 0, 0, 0
}

// refill tops the lookahead word up to >= 57 bits (or to end of stream).
func (r *Reader) refill() {
	if r.pos+8 <= len(r.buf) {
		if r.nbit > 56 {
			return
		}
		w := binary.BigEndian.Uint64(r.buf[r.pos:])
		r.cur |= w >> r.nbit
		take := (64 - r.nbit) >> 3 // whole bytes that fit
		r.pos += int(take)
		r.nbit += take * 8
		return
	}
	// Tail: fewer than 8 source bytes left, load one at a time.
	for r.pos < len(r.buf) && r.nbit <= 56 {
		r.cur |= uint64(r.buf[r.pos]) << (56 - r.nbit)
		r.pos++
		r.nbit += 8
	}
}

// ReadBit reads a single bit.
func (r *Reader) ReadBit() (uint, error) {
	if r.nbit > 0 {
		b := uint(r.cur >> 63)
		r.cur <<= 1
		r.nbit--
		return b, nil
	}
	v, err := r.readBitsSlow(1)
	return uint(v), err
}

// ReadBits reads n bits (0..64), most significant first.
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n <= r.nbit {
		v := r.cur >> (64 - n) // n == 0 yields 0: shift >= width is defined as 0
		r.cur <<= n
		r.nbit -= n
		return v, nil
	}
	return r.readBitsSlow(n)
}

// readBitsSlow is the refilling path of ReadBits; it also serves ReadBit and
// Consume when the lookahead runs dry.
func (r *Reader) readBitsSlow(n uint) (uint64, error) {
	var v uint64
	for n > 0 {
		if r.nbit == 0 {
			r.refill()
			if r.nbit == 0 {
				return 0, ErrUnexpectedEOF
			}
		}
		take := n
		if take > r.nbit {
			take = r.nbit
		}
		v = v<<take | r.cur>>(64-take)
		r.cur <<= take
		r.nbit -= take
		n -= take
	}
	return v, nil
}

// PeekBits returns the next n bits (n <= 56) MSB-first without consuming
// them. When fewer than n bits remain in the stream the result is padded
// with zero bits on the right; combine with Remaining (or a failing Consume)
// to detect end of stream.
func (r *Reader) PeekBits(n uint) uint64 {
	if r.nbit < n {
		r.refill()
	}
	return r.cur >> (64 - n)
}

// Consume discards n bits, typically after a PeekBits-based table lookup.
// Consuming past the end of the stream returns ErrUnexpectedEOF.
func (r *Reader) Consume(n uint) error {
	if n <= r.nbit {
		r.cur <<= n
		r.nbit -= n
		return nil
	}
	_, err := r.readBitsSlow(n)
	return err
}

// Lookahead tops up the lookahead word and returns it with its valid bit
// count (>= 57 unless the stream is nearly exhausted). It consumes nothing:
// callers decode from the returned word in registers and settle with Drop.
func (r *Reader) Lookahead() (uint64, uint) {
	if r.nbit <= 56 {
		r.refill()
	}
	return r.cur, r.nbit
}

// Drop discards n bits with no end-of-stream check. The caller must ensure
// n does not exceed the bit count returned by Lookahead; use Consume when
// that is not known.
func (r *Reader) Drop(n uint) {
	r.cur <<= n
	r.nbit -= n
}

// ReadByte reads 8 bits.
func (r *Reader) ReadByte() (byte, error) {
	v, err := r.ReadBits(8)
	return byte(v), err
}

// Remaining reports the number of unread whole bits.
func (r *Reader) Remaining() int {
	return (len(r.buf)-r.pos)*8 + int(r.nbit)
}

// PutUvarint appends v to buf in unsigned LEB128 form and returns the result.
func PutUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

// Uvarint decodes an unsigned LEB128 value from buf, returning the value and
// the number of bytes consumed. A varint that runs off the end of buf is
// ErrTruncated; one whose continuation bytes overflow 64 bits is ErrCorrupt.
func Uvarint(buf []byte) (uint64, int, error) {
	v, n := binary.Uvarint(buf)
	if n == 0 {
		return 0, 0, compress.Errorf(compress.ErrTruncated, "bitio: truncated uvarint")
	}
	if n < 0 {
		return 0, 0, compress.Errorf(compress.ErrCorrupt, "bitio: uvarint overflows 64 bits")
	}
	return v, n, nil
}
