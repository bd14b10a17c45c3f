package lc

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"positbench/internal/bitio"
	"positbench/internal/compress"
	"positbench/internal/huffman"
	"positbench/internal/mtf"
)

// checkDeclaredWords validates output sizes declared in a stage header
// (nWords words of four bytes plus tailLen ragged bytes) against the stage's
// output cap. Counts beyond 2^56 are rejected outright so the size math
// cannot overflow.
func checkDeclaredWords(stage string, nWords, tailLen uint64, maxOut int) error {
	const absurd = uint64(1) << 56
	if nWords > absurd || tailLen > absurd {
		return compress.Errorf(compress.ErrCorrupt, "lc/%s: absurd declared size (%d words, %d tail)", stage, nWords, tailLen)
	}
	if maxOut > 0 && nWords*4+tailLen > uint64(maxOut) {
		return compress.Errorf(compress.ErrLimitExceeded, "lc/%s: declared output %d exceeds cap %d", stage, nWords*4+tailLen, maxOut)
	}
	return nil
}

// Coder components: size-reducing stages. RZE/RARE/RAZE implement the
// zero/repeat suppression schemes the paper describes, including the
// recursively self-compressed bitmaps.

// --- recursive bitmap codec -------------------------------------------------

// encodeBitmapBody compresses b by zero-byte suppression, recursing on its
// own occupancy bitmap as long as that pays off ("compressed ... repeatedly
// with the same algorithm"). Layout: flag byte (0 = stored, 1 = recursive),
// then either the raw bytes or the encoded occupancy bitmap followed by the
// nonzero bytes.
func encodeBitmapBody(b []byte) []byte {
	if len(b) < 16 {
		return append([]byte{0}, b...)
	}
	sub := make([]byte, (len(b)+7)/8)
	var nz []byte
	for i, v := range b {
		if v != 0 {
			sub[i/8] |= 1 << (7 - i%8)
			nz = append(nz, v)
		}
	}
	inner := encodeBitmapBody(sub)
	if 1+len(inner)+len(nz) < 1+len(b) {
		out := make([]byte, 0, 1+len(inner)+len(nz))
		out = append(out, 1)
		out = append(out, inner...)
		return append(out, nz...)
	}
	return append([]byte{0}, b...)
}

// decodeBitmapBody reconstructs n bytes, returning them and the number of
// encoded bytes consumed.
func decodeBitmapBody(src []byte, n int) ([]byte, int, error) {
	if len(src) < 1 {
		return nil, 0, compress.Errorf(compress.ErrTruncated, "lc: truncated bitmap")
	}
	flag := src[0]
	switch flag {
	case 0:
		if len(src) < 1+n {
			return nil, 0, compress.Errorf(compress.ErrTruncated, "lc: truncated stored bitmap")
		}
		return src[1 : 1+n], 1 + n, nil
	case 1:
		subLen := (n + 7) / 8
		sub, used, err := decodeBitmapBody(src[1:], subLen)
		if err != nil {
			return nil, 0, err
		}
		pos := 1 + used
		out := make([]byte, n)
		for i := 0; i < n; i++ {
			if sub[i/8]>>(7-i%8)&1 == 1 {
				if pos >= len(src) {
					return nil, 0, compress.Errorf(compress.ErrTruncated, "lc: truncated bitmap payload")
				}
				out[i] = src[pos]
				pos++
			}
		}
		return out, pos, nil
	default:
		return nil, 0, compress.Errorf(compress.ErrCorrupt, "lc: bad bitmap flag %d", flag)
	}
}

// --- RLE ---------------------------------------------------------------------

// rle is byte-level run-length coding (the RLE1 scheme shared with the
// bzip2-class codec).
type rle struct{}

func (rle) Name() string { return "RLE" }

func (rle) Forward(src []byte) ([]byte, error) { return mtf.RLE1(src), nil }
func (rle) size(src []byte) (int, error)       { return mtf.RLE1Len(src), nil }
func (rle) Inverse(src []byte, maxOut int) ([]byte, error) {
	return mtf.UnRLE1Limit(src, maxOut)
}

// --- RZE ---------------------------------------------------------------------

// rze suppresses all-zero words: a recursively compressed occupancy bitmap
// plus the nonzero words. "Similar to RAZE, except it operates on all bits
// of each word."
type rze struct{}

func (rze) Name() string { return "RZE" }

// occupancy is RZE's bitmap of the nonzero words of src, MSB first, and
// their count.
func occupancy(src []byte) ([]byte, int) {
	n := len(src) / 4
	occupied := make([]byte, (n+7)/8)
	nonzero := 0
	for i := 0; i < n; i++ {
		if binary.LittleEndian.Uint32(src[4*i:]) != 0 {
			occupied[i/8] |= 1 << (7 - i%8)
			nonzero++
		}
	}
	return occupied, nonzero
}

func (rze) size(src []byte) (int, error) {
	occupied, nonzero := occupancy(src)
	return wordHeaderLen(src) + len(encodeBitmapBody(occupied)) + 4*nonzero + len(src)%4, nil
}

func (rze) Forward(src []byte) ([]byte, error) {
	n := len(src) / 4
	occupied, _ := occupancy(src)
	out := bitio.PutUvarint(nil, uint64(n))
	out = bitio.PutUvarint(out, uint64(len(src)-4*n))
	out = append(out, encodeBitmapBody(occupied)...)
	for i := 0; i < n; i++ {
		if occupied[i/8]>>(7-i%8)&1 == 1 {
			out = append(out, src[4*i:4*i+4]...)
		}
	}
	return append(out, src[4*n:]...), nil
}

func (rze) Inverse(src []byte, maxOut int) ([]byte, error) {
	n64, k, err := bitio.Uvarint(src)
	if err != nil {
		return nil, fmt.Errorf("lc/RZE: %w", err)
	}
	src = src[k:]
	tailLen, k, err := bitio.Uvarint(src)
	if err != nil {
		return nil, fmt.Errorf("lc/RZE: %w", err)
	}
	src = src[k:]
	// An all-zero occupancy bitmap compresses recursively to a few bytes, so
	// a tiny input can declare an enormous word count; bound it before the
	// bitmap (and the word slice) are allocated.
	if err := checkDeclaredWords("RZE", n64, tailLen, maxOut); err != nil {
		return nil, err
	}
	n := int(n64)
	bm, used, err := decodeBitmapBody(src, (n+7)/8)
	if err != nil {
		return nil, fmt.Errorf("lc/RZE: %w", err)
	}
	src = src[used:]
	if tailLen > uint64(len(src)) {
		return nil, compress.Errorf(compress.ErrTruncated, "lc/RZE: truncated tail")
	}
	out := make([]byte, 4*n, 4*n+int(tailLen))
	pos := 0
	for i := 0; i < n; i++ {
		if bm[i/8]>>(7-i%8)&1 == 1 {
			if pos+4 > len(src) {
				return nil, compress.Errorf(compress.ErrTruncated, "lc/RZE: truncated words")
			}
			copy(out[4*i:], src[pos:pos+4])
			pos += 4
		}
	}
	if len(src)-pos != int(tailLen) {
		return nil, compress.Errorf(compress.ErrCorrupt, "lc/RZE: tail mismatch")
	}
	return append(out, src[pos:]...), nil
}

// --- RARE / RAZE ---------------------------------------------------------------

// topCoder implements RARE and RAZE: a per-word flag (top k bits repeat
// the previous word's for RARE, are zero for RAZE), the k-bit tops of
// unflagged words, and the (32-k)-bit bottoms of all words. k is chosen per
// block to minimize the pre-bitmap-compression size.
type topCoder struct {
	name   string
	repeat bool // RARE; RAZE otherwise
}

func (t topCoder) Name() string { return t.name }

// leadBits is the leading-bit count that makes w flaggable at a given k:
// the bits equal to prev's for RARE, the zero bits for RAZE.
func (t topCoder) leadBits(w, prev uint32) int {
	if t.repeat {
		w ^= prev
	}
	return bits.LeadingZeros32(w)
}

// flaggedTop reconstructs the implied top k bits of a flagged word.
func (t topCoder) flaggedTop(prev uint32, k int) uint32 {
	if t.repeat {
		return prev >> (32 - uint(k))
	}
	return 0
}

// chooseK picks the k that minimizes the pre-bitmap-compression size of
// src's n words, and returns it with the number of words it flags.
func (t topCoder) chooseK(src []byte) (k, flagged int) {
	n := len(src) / 4
	// Histogram of lead-bit counts -> flagged(k) via suffix sums.
	var hist [33]int
	prev := uint32(0)
	for i := 0; i < n; i++ {
		w := binary.LittleEndian.Uint32(src[4*i:])
		hist[t.leadBits(w, prev)]++
		prev = w
	}
	bestK, bestFlagged, bestCost := 1, 0, int64(1)<<62
	flaggedAtLeast := 0
	for k := 32; k >= 1; k-- {
		flaggedAtLeast += hist[k]
		if k > 31 {
			continue
		}
		// bits: bitmap n + tops (n-flagged)*k + bottoms n*(32-k)
		cost := int64(n) + int64(n-flaggedAtLeast)*int64(k) + int64(n)*int64(32-k)
		if cost < bestCost {
			bestCost, bestK, bestFlagged = cost, k, flaggedAtLeast
		}
	}
	return bestK, bestFlagged
}

// flagBitmap marks, MSB first, the words of src whose top k bits are
// implied (flagged).
func (t topCoder) flagBitmap(src []byte, k int) []byte {
	n := len(src) / 4
	flags := make([]byte, (n+7)/8)
	prev := uint32(0)
	for i := 0; i < n; i++ {
		w := binary.LittleEndian.Uint32(src[4*i:])
		if t.leadBits(w, prev) >= k {
			flags[i/8] |= 1 << (7 - i%8)
		}
		prev = w
	}
	return flags
}

// size: the headers, k, the encoded flag bitmap, the tops' length and
// bytes, the bottoms' bytes, and the tail.
func (t topCoder) size(src []byte) (int, error) {
	n := len(src) / 4
	k, flagged := t.chooseK(src)
	topBytes := ((n-flagged)*k + 7) / 8
	bottomBytes := (n*(32-k) + 7) / 8
	return wordHeaderLen(src) + 1 + len(encodeBitmapBody(t.flagBitmap(src, k))) + uvarintLen(topBytes) + topBytes + bottomBytes + len(src)%4, nil
}

func (t topCoder) Forward(src []byte) ([]byte, error) {
	n := len(src) / 4
	k, _ := t.chooseK(src)
	flags := t.flagBitmap(src, k)
	tops := bitio.NewWriter(n/2 + 8)
	bottoms := bitio.NewWriter(n*4 + 8)
	for i := 0; i < n; i++ {
		w := binary.LittleEndian.Uint32(src[4*i:])
		if flags[i/8]>>(7-i%8)&1 == 0 {
			tops.WriteBits(uint64(w>>(32-uint(k))), uint(k))
		}
		bottoms.WriteBits(uint64(w)&(1<<(32-uint(k))-1), 32-uint(k))
	}
	out := bitio.PutUvarint(nil, uint64(n))
	out = bitio.PutUvarint(out, uint64(len(src)-4*n))
	out = append(out, byte(k))
	out = append(out, encodeBitmapBody(flags)...)
	tb := tops.Bytes()
	out = bitio.PutUvarint(out, uint64(len(tb)))
	out = append(out, tb...)
	out = append(out, bottoms.Bytes()...)
	return append(out, src[4*n:]...), nil
}

func (t topCoder) Inverse(src []byte, maxOut int) ([]byte, error) {
	n64, used, err := bitio.Uvarint(src)
	if err != nil {
		return nil, fmt.Errorf("lc/%s: %w", t.name, err)
	}
	src = src[used:]
	tailLen64, used, err := bitio.Uvarint(src)
	if err != nil {
		return nil, fmt.Errorf("lc/%s: %w", t.name, err)
	}
	src = src[used:]
	if len(src) < 1 {
		return nil, compress.Errorf(compress.ErrTruncated, "lc/%s: missing k", t.name)
	}
	k := int(src[0])
	src = src[1:]
	if k < 1 || k > 31 {
		return nil, compress.Errorf(compress.ErrCorrupt, "lc/%s: bad k=%d", t.name, k)
	}
	if err := checkDeclaredWords(t.name, n64, tailLen64, maxOut); err != nil {
		return nil, err
	}
	n := int(n64)
	bm, used, err := decodeBitmapBody(src, (n+7)/8)
	if err != nil {
		return nil, fmt.Errorf("lc/%s: %w", t.name, err)
	}
	src = src[used:]
	topsLen64, used, err := bitio.Uvarint(src)
	if err != nil {
		return nil, fmt.Errorf("lc/%s: %w", t.name, err)
	}
	src = src[used:]
	topsLen := int(topsLen64)
	if topsLen64 > uint64(len(src)) {
		return nil, compress.Errorf(compress.ErrTruncated, "lc/%s: truncated tops", t.name)
	}
	tops := bitio.NewReader(src[:topsLen])
	src = src[topsLen:]
	bottomBytes := (n*(32-k) + 7) / 8
	if len(src) != bottomBytes+int(tailLen64) {
		return nil, compress.Errorf(compress.ErrCorrupt, "lc/%s: have %d bytes, need %d", t.name, len(src), bottomBytes+int(tailLen64))
	}
	bottoms := bitio.NewReader(src[:bottomBytes])
	out := make([]byte, 4*n, 4*n+int(tailLen64))
	prev := uint32(0)
	for i := 0; i < n; i++ {
		var top uint32
		if bm[i/8]>>(7-i%8)&1 == 1 {
			top = t.flaggedTop(prev, k)
		} else {
			v, err := tops.ReadBits(uint(k))
			if err != nil {
				return nil, fmt.Errorf("lc/%s: tops: %w", t.name, err)
			}
			top = uint32(v)
		}
		bot, err := bottoms.ReadBits(32 - uint(k))
		if err != nil {
			return nil, fmt.Errorf("lc/%s: bottoms: %w", t.name, err)
		}
		w := top<<(32-uint(k)) | uint32(bot)
		binary.LittleEndian.PutUint32(out[4*i:], w)
		prev = w
	}
	return append(out, src[bottomBytes:]...), nil
}

// --- HUF ----------------------------------------------------------------------

// huf is a canonical byte-Huffman terminal coder with a stored-mode escape
// for incompressible input.
type huf struct{}

func (huf) Name() string { return "HUF" }

func (huf) Forward(src []byte) ([]byte, error) {
	freqs := make([]int, 256)
	for _, b := range src {
		freqs[b]++
	}
	lengths, err := huffman.BuildLengths(freqs, huffman.MaxBits)
	if err != nil {
		return nil, err
	}
	enc, err := huffman.NewEncoder(lengths)
	if err != nil {
		return nil, err
	}
	w := bitio.NewWriter(len(src)/2 + 160)
	if err := huffman.WriteLengths(w, lengths); err != nil {
		return nil, err
	}
	for _, b := range src {
		enc.Encode(w, int(b))
	}
	body := w.Bytes()
	if len(body) >= len(src) {
		out := append(bitio.PutUvarint([]byte{0}, uint64(len(src))), src...)
		return out, nil
	}
	return append(bitio.PutUvarint([]byte{1}, uint64(len(src))), body...), nil
}

// size: the histogram and the code lengths give the coded body's bit
// count, and the stored-mode escape applies on the same test as Forward's.
func (huf) size(src []byte) (int, error) {
	freqs := make([]int, 256)
	for _, b := range src {
		freqs[b]++
	}
	lengths, err := huffman.BuildLengths(freqs, huffman.MaxBits)
	if err != nil {
		return 0, err
	}
	bits, err := huffman.LengthsBits(lengths)
	if err != nil {
		return 0, err
	}
	for sym, f := range freqs {
		bits += f * int(lengths[sym])
	}
	body := (bits + 7) / 8
	if body >= len(src) {
		body = len(src)
	}
	return 1 + uvarintLen(len(src)) + body, nil
}

func (huf) Inverse(src []byte, maxOut int) ([]byte, error) {
	if len(src) < 1 {
		return nil, compress.Errorf(compress.ErrTruncated, "lc/HUF: empty input")
	}
	mode := src[0]
	n64, used, err := bitio.Uvarint(src[1:])
	if err != nil {
		return nil, fmt.Errorf("lc/HUF: %w", err)
	}
	src = src[1+used:]
	// Every coded symbol costs at least one bit, so an honest n never
	// exceeds 8x the remaining input; checking it (and the cap) before the
	// output allocation keeps a tampered count from forcing a huge make.
	if n64 > uint64(len(src))*8 {
		return nil, compress.Errorf(compress.ErrCorrupt, "lc/HUF: declared length %d exceeds 8x input", n64)
	}
	if maxOut > 0 && n64 > uint64(maxOut) {
		return nil, compress.Errorf(compress.ErrLimitExceeded, "lc/HUF: declared length %d exceeds cap %d", n64, maxOut)
	}
	n := int(n64)
	switch mode {
	case 0:
		if len(src) != n {
			return nil, compress.Errorf(compress.ErrCorrupt, "lc/HUF: stored length mismatch")
		}
		return append([]byte(nil), src...), nil
	case 1:
		r := bitio.NewReader(src)
		lengths, err := huffman.ReadLengths(r, 256)
		if err != nil {
			return nil, fmt.Errorf("lc/HUF: %w", err)
		}
		dec, err := huffman.NewDecoder(lengths)
		if err != nil {
			return nil, fmt.Errorf("lc/HUF: %w", err)
		}
		out := make([]byte, n)
		for i := range out {
			s, err := dec.Decode(r)
			if err != nil {
				return nil, fmt.Errorf("lc/HUF: %w", err)
			}
			out[i] = byte(s)
		}
		return out, nil
	default:
		return nil, compress.Errorf(compress.ErrCorrupt, "lc/HUF: bad mode %d", mode)
	}
}
