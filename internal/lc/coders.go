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
	nonzero := packNonzero(sub, b)
	inner := encodeBitmapBody(sub)
	if len(inner)+nonzero < len(b) {
		out := make([]byte, 0, 1+len(inner)+nonzero)
		out = append(out, 1)
		out = append(out, inner...)
		for _, v := range b {
			if v != 0 {
				out = append(out, v)
			}
		}
		return out
	}
	return append([]byte{0}, b...)
}

// bitmapBodyLen is len(encodeBitmapBody(b)), counted without building it.
// It overwrites b with scratch.
func bitmapBodyLen(b []byte) int {
	if len(b) < 16 {
		return 1 + len(b)
	}
	sub := b[:(len(b)+7)/8]
	nonzero := packNonzero(sub, b)
	return 1 + min(bitmapBodyLen(sub)+nonzero, len(b))
}

// packNonzero writes the occupancy bitmap of b, one bit per byte set when
// the byte is nonzero, MSB first, to dst[:(len(b)+7)/8], and returns the
// number of nonzero bytes. dst may be b itself: it writes dst[j] only after
// reading b[8j:8j+8].
func packNonzero(dst, b []byte) int {
	nonzero := 0
	for j := range (len(b) + 7) / 8 {
		var g [8]byte // zero-padded past the end of b
		copy(g[:], b[8*j:])
		var bits8 byte
		for _, v := range g {
			bits8 = bits8<<1 | b2u8(v != 0)
		}
		dst[j] = bits8
		nonzero += bits.OnesCount8(bits8)
	}
	return nonzero
}

// b2u8 is 1 for true and 0 for false.
func b2u8(b bool) byte {
	if b {
		return 1
	}
	return 0
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

// sizeWords is the largest word count whose per-word scratch RZE's, RARE's
// and RAZE's size keep on the stack; longer inputs take it from the heap.
const sizeWords = 4096

// occupancy is RZE's bitmap of the nonzero words of src, MSB first, and
// their count. The bitmap reuses buf when it is long enough. Full groups of
// eight words are read in place; only the ragged last one is copied.
func occupancy(src, buf []byte) ([]byte, int) {
	n := len(src) / 4
	occupied := buf
	if len(occupied) < (n+7)/8 {
		occupied = make([]byte, (n+7)/8)
	}
	occupied = occupied[:(n+7)/8]
	full := n / 8
	nonzero := 0
	for j := range full {
		occupied[j] = nonzeroWords((*[32]byte)(src[32*j:]))
		nonzero += bits.OnesCount8(occupied[j])
	}
	if full < len(occupied) {
		var g [32]byte // zero words past the last
		copy(g[:], src[32*full:4*n])
		occupied[full] = nonzeroWords(&g)
		nonzero += bits.OnesCount8(occupied[full])
	}
	return occupied, nonzero
}

// nonzeroWords has bit 7-i set when little-endian word i of g is nonzero.
func nonzeroWords(g *[32]byte) byte {
	var bits8 byte
	for i := range 8 {
		bits8 = bits8<<1 | b2u8(binary.LittleEndian.Uint32(g[4*i:]) != 0)
	}
	return bits8
}

func (rze) size(src []byte) (int, error) {
	var buf [sizeWords / 8]byte
	occupied, nonzero := occupancy(src, buf[:])
	return wordHeaderLen(src) + bitmapBodyLen(occupied) + 4*nonzero + len(src)%4, nil
}

func (rze) Forward(src []byte) ([]byte, error) {
	n := len(src) / 4
	occupied, _ := occupancy(src, nil)
	out := appendWordHeader(nil, src)
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

// flaggedTop reconstructs the implied top k bits of a flagged word.
func (t topCoder) flaggedTop(prev uint32, k int) uint32 {
	if t.repeat {
		return prev >> (32 - uint(k))
	}
	return 0
}

// scan reads src's n words once. Each word's lead-bit count, the leading
// bits of the word that equal the previous word's for RARE or are zero for
// RAZE, feeds a histogram that chooses k; the words with at least k lead
// bits are flagged. It returns k, the number of flagged words and their
// bitmap, MSB first, which reuses buf when it has a byte per word.
// Forward and size share it.
func (t topCoder) scan(src, buf []byte) (k, flagged int, flags []byte) {
	n := len(src) / 4
	var same uint32 // the bits of the previous word a word is compared with
	if t.repeat {
		same = ^uint32(0)
	}
	lead := buf
	if len(lead) < n {
		lead = make([]byte, n)
	}
	lead = lead[:n]
	// Four interleaved histograms keep a run of one count from serializing
	// on a single counter, as in byteCounts.
	var hists [4][33]int
	prev := uint32(0)
	i := 0
	for ; i+4 <= n; i += 4 {
		g := src[4*i : 4*i+16]
		w0 := binary.LittleEndian.Uint32(g)
		w1 := binary.LittleEndian.Uint32(g[4:])
		w2 := binary.LittleEndian.Uint32(g[8:])
		w3 := binary.LittleEndian.Uint32(g[12:])
		l0 := bits.LeadingZeros32(w0 ^ prev&same)
		l1 := bits.LeadingZeros32(w1 ^ w0&same)
		l2 := bits.LeadingZeros32(w2 ^ w1&same)
		l3 := bits.LeadingZeros32(w3 ^ w2&same)
		l := lead[i : i+4]
		l[0], l[1], l[2], l[3] = byte(l0), byte(l1), byte(l2), byte(l3)
		hists[0][l0]++
		hists[1][l1]++
		hists[2][l2]++
		hists[3][l3]++
		prev = w3
	}
	for ; i < n; i++ {
		w := binary.LittleEndian.Uint32(src[4*i:])
		l := bits.LeadingZeros32(w ^ prev&same)
		lead[i] = byte(l)
		hists[0][l]++
		prev = w
	}
	var hist [33]int
	for l := range hist {
		hist[l] = hists[0][l] + hists[1][l] + hists[2][l] + hists[3][l]
	}
	k, flagged = chooseK(&hist, n)
	// The flags overwrite lead: byte j is written after lead[8j:8j+8] is
	// read.
	flags = lead[:(n+7)/8]
	full := n / 8
	for j := range full {
		flags[j] = atLeast(binary.LittleEndian.Uint64(lead[8*j:]), k)
	}
	if full < len(flags) {
		var g [8]byte // zero counts, so unflagged, past the last word
		copy(g[:], lead[8*full:])
		flags[full] = atLeast(binary.LittleEndian.Uint64(g[:]), k)
	}
	return k, flagged, flags
}

// atLeast is the flag byte of the eight lead counts in x's byte lanes: bit
// 7-i is set when lane i is at least k. A lane holds at most 32 and k is at
// most 31, so 0x80|count - k borrows from no other lane, and its top bit is
// set exactly when count >= k; the multiply gathers lane i's top bit into
// bit 63-i, where no other product bit lands.
func atLeast(x uint64, k int) byte {
	const ones, tops = 0x0101010101010101, 0x8080808080808080
	ge := ((x | tops) - uint64(k)*ones) & tops
	return byte((ge >> 7) * 0x8040201008040201 >> 56)
}

// chooseK picks the k that minimizes the pre-bitmap-compression size of n
// words whose lead-bit counts hist holds, and returns it with the number of
// words it flags.
func chooseK(hist *[33]int, n int) (k, flagged int) {
	// flagged(k) is a suffix sum of the histogram.
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

// outLens returns the byte counts of the tops and of the whole output for
// src, when scan chose k and flagged words and the flag bitmap encodes to
// bitmapLen bytes: the headers, k, the bitmap, the tops' length and bytes,
// the bottoms' bytes, and the tail.
func outLens(src []byte, k, flagged, bitmapLen int) (topBytes, total int) {
	n := len(src) / 4
	topBytes = ((n-flagged)*k + 7) / 8
	bottomBytes := (n*(32-k) + 7) / 8
	return topBytes, wordHeaderLen(src) + 1 + bitmapLen + uvarintLen(topBytes) + topBytes + bottomBytes + len(src)%4
}

func (t topCoder) size(src []byte) (int, error) {
	var buf [sizeWords]byte
	k, flagged, flags := t.scan(src, buf[:])
	_, total := outLens(src, k, flagged, bitmapBodyLen(flags))
	return total, nil
}

// Forward writes everything through one writer of the exact size: scan
// gives the tops' length before any top is written.
func (t topCoder) Forward(src []byte) ([]byte, error) {
	n := len(src) / 4
	k, flagged, flags := t.scan(src, nil)
	bitmap := encodeBitmapBody(flags)
	topBytes, total := outLens(src, k, flagged, len(bitmap))
	w := bitio.NewWriter(total)
	var head [3 * binary.MaxVarintLen64]byte
	w.WriteBytes(append(appendWordHeader(head[:0], src), byte(k)))
	w.WriteBytes(bitmap)
	w.WriteBytes(bitio.PutUvarint(head[:0], uint64(topBytes)))
	kb := uint(k)
	for i := range n {
		if flags[i/8]>>(7-i%8)&1 == 0 {
			w.WriteBits(uint64(binary.LittleEndian.Uint32(src[4*i:])>>(32-kb)), kb)
		}
	}
	w.Align()
	for i := range n {
		w.WriteBits(uint64(binary.LittleEndian.Uint32(src[4*i:])), 32-kb)
	}
	w.Align()
	w.WriteBytes(src[4*n:])
	return w.Bytes(), nil
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

// byteCounts is src's byte histogram. Four interleaved tables keep a run
// of one byte value from serializing on a single counter.
func byteCounts(src []byte) [256]int {
	var counts [4][256]int
	i := 0
	for ; i+4 <= len(src); i += 4 {
		counts[0][src[i]]++
		counts[1][src[i+1]]++
		counts[2][src[i+2]]++
		counts[3][src[i+3]]++
	}
	for ; i < len(src); i++ {
		counts[0][src[i]]++
	}
	var freqs [256]int
	for b := range freqs {
		freqs[b] = counts[0][b] + counts[1][b] + counts[2][b] + counts[3][b]
	}
	return freqs
}

// plan returns src's code lengths and the byte count of the coded body
// (the serialized lengths, then every symbol's code). size and Forward
// share it.
func (huf) plan(src []byte) (lengths []uint8, body int, err error) {
	freqs := byteCounts(src)
	lengths, err = huffman.BuildLengths(freqs[:], huffman.MaxBits)
	if err != nil {
		return nil, 0, err
	}
	bits, err := huffman.LengthsBits(lengths)
	if err != nil {
		return nil, 0, err
	}
	for sym, f := range freqs {
		bits += f * int(lengths[sym])
	}
	return lengths, (bits + 7) / 8, nil
}

// Forward stores src when the coded body would not be shorter, and
// otherwise codes it into a writer of the exact size.
func (h huf) Forward(src []byte) ([]byte, error) {
	lengths, body, err := h.plan(src)
	if err != nil {
		return nil, err
	}
	if body >= len(src) {
		return append(bitio.PutUvarint([]byte{0}, uint64(len(src))), src...), nil
	}
	enc, err := huffman.NewEncoder(lengths)
	if err != nil {
		return nil, err
	}
	w := bitio.NewWriter(1 + uvarintLen(len(src)) + body)
	var head [1 + binary.MaxVarintLen64]byte
	w.WriteBytes(bitio.PutUvarint(append(head[:0], 1), uint64(len(src))))
	if err := huffman.WriteLengths(w, lengths); err != nil {
		return nil, err
	}
	for _, b := range src {
		enc.Encode(w, int(b))
	}
	return w.Bytes(), nil
}

// size: the stored-mode escape applies on the same test as Forward's.
func (h huf) size(src []byte) (int, error) {
	_, body, err := h.plan(src)
	if err != nil {
		return 0, err
	}
	return 1 + uvarintLen(len(src)) + min(body, len(src)), nil
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
