// Package rangecoder implements an LZMA-style binary range coder with
// adaptive probability models and bit-tree helpers. It is the entropy
// engine of the XZ-class codec: context-modelled arithmetic coding is what
// lets a large-window LZ beat Huffman-based compressors.
package rangecoder

import "positbench/internal/compress"

// ErrTruncated is returned when the decoder runs out of input. It matches
// compress.ErrTruncated (and compress.ErrCorrupt) under errors.Is.
var ErrTruncated = compress.Errorf(compress.ErrTruncated, "rangecoder: truncated stream")

const (
	probBits  = 11
	probInit  = 1 << (probBits - 1) // 1024: p=0.5
	moveBits  = 5
	topValue  = 1 << 24
	probTotal = 1 << probBits
)

// Prob is an adaptive probability state for one binary context.
type Prob uint16

// NewProbs allocates n contexts initialized to p=0.5.
func NewProbs(n int) []Prob {
	p := make([]Prob, n)
	for i := range p {
		p[i] = probInit
	}
	return p
}

// Encoder writes a binary range-coded stream.
type Encoder struct {
	low       uint64
	rng       uint32
	cache     byte
	cacheSize int64
	out       []byte
}

// NewEncoder returns an encoder with the given output capacity hint.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{rng: 0xFFFFFFFF, cacheSize: 1, out: make([]byte, 0, capacity)}
}

func (e *Encoder) shiftLow() {
	if uint32(e.low) < 0xFF000000 || e.low>>32 != 0 {
		carry := byte(e.low >> 32)
		for ; e.cacheSize > 0; e.cacheSize-- {
			e.out = append(e.out, e.cache+carry)
			e.cache = 0xFF
		}
		e.cache = byte(e.low >> 24)
	}
	e.cacheSize++
	e.low = e.low << 8 & 0xFFFFFFFF
}

// EncodeBit codes one bit under the adaptive context *p. A nonzero bit is
// coded as 1. Like DecodeBit it selects with masks instead of a branch on
// the bit; only normalization, about once per output byte, branches.
func (e *Encoder) EncodeBit(p *Prob, bit int) {
	low, rng, pv := encodeMasked(uint32(*p), uint32(uint64(bit|-bit)>>63), e.low, e.rng)
	*p = pv
	if rng < topValue {
		low, rng = e.normalize(low, rng)
	}
	e.low, e.rng = low, rng
}

// EncodeTree codes the nbits-bit sym MSB-first through the implicit tree
// rooted at probs[1], with the same result as one EncodeBit per node. The
// range registers stay in locals across the walk, and each bit is coded
// with masks instead of a branch on the bit: the literal bits of float data
// are near-random, so a branch mispredicts on about half of them.
// Normalization stays a branch, taken about once per output byte. It is the
// encode side of Decoder.DecodeTree; BitTree.Encode and the XZ-class
// encoder's literals use it.
func (e *Encoder) EncodeTree(probs []Prob, nbits uint, sym uint32) {
	// Indexed nodes satisfy node&mask == node, so after the reslice the
	// loop runs without bounds checks.
	mask := uint32(1)<<nbits - 1
	probs = probs[:mask+1]
	low, rng := e.low, e.rng
	node := uint32(1)
	for i := nbits; i > 0; {
		i--
		bit := sym >> i & 1
		low, rng, probs[node&mask] = encodeMasked(uint32(probs[node&mask]), bit, low, rng)
		if rng < topValue {
			low, rng = e.normalize(low, rng)
		}
		node = node<<1 | bit
	}
	e.low, e.rng = low, rng
}

// EncodeTreeMatched is the LZMA matched-literal walk, the encode side of
// Decoder.DecodeTreeMatched: while the coded bits of sym agree with
// matchByte, bit i is coded under probs[(1+matchBit)<<8+node]; from the
// first divergence on, under the plain tree probs[node]. probs needs 0x300
// entries. The result equals one EncodeBit per bit.
//
// The mode switch is branch-free too (LZMA's LitEnc_EncodeMatched): offs
// stays 0x100 while the bits agree and drops to 0 at the first divergence,
// so the context index is offs + matchBit<<8 while matching and node
// afterwards.
func (e *Encoder) EncodeTreeMatched(probs []Prob, sym, matchByte byte) {
	probs = probs[:0x300]
	low, rng := e.low, e.rng
	offs := uint32(0x100)
	s := uint32(sym) | 0x100 // s>>8 is the node; bit 7 is the next bit
	match := uint32(matchByte)
	for s < 0x10000 {
		match <<= 1 // bit 8 is the matched byte's next bit
		idx := offs + match&offs + s>>8
		low, rng, probs[idx] = encodeMasked(uint32(probs[idx]), s>>7&1, low, rng)
		if rng < topValue {
			low, rng = e.normalize(low, rng)
		}
		s <<= 1
		offs &^= match ^ s
	}
	e.low, e.rng = low, rng
}

// encodeMasked is the encoder's one coding step, on locals, with the bit
// (0 or 1) selected by a mask instead of a branch: one is all ones for bit
// 1, so low gains bound and rng becomes rng-bound only then, and the
// probability moves down instead of up. It returns the new registers and
// probability; the caller normalizes.
func encodeMasked(pv, bit uint32, low uint64, rng uint32) (uint64, uint32, Prob) {
	bound := rng >> probBits * pv
	one := -bit
	return low + uint64(bound&one), bound + (rng-2*bound)&one,
		Prob(pv - pv>>moveBits + ((probTotal-pv)>>moveBits+pv>>moveBits)&^one)
}

// normalize shifts bytes out of low until rng holds at least 24 bits.
func (e *Encoder) normalize(low uint64, rng uint32) (uint64, uint32) {
	e.low = low
	for rng < topValue {
		rng <<= 8
		e.shiftLow()
	}
	return e.low, rng
}

// EncodeDirect codes n bits of v (MSB first) at fixed probability 0.5.
func (e *Encoder) EncodeDirect(v uint32, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		e.rng >>= 1
		bit := v >> uint(i) & 1
		if bit == 1 {
			e.low += uint64(e.rng)
		}
		for e.rng < topValue {
			e.rng <<= 8
			e.shiftLow()
		}
	}
}

// Finish flushes the coder and returns the complete byte stream.
func (e *Encoder) Finish() []byte {
	for i := 0; i < 5; i++ {
		e.shiftLow()
	}
	return e.out
}

// Decoder reads a stream produced by Encoder.
type Decoder struct {
	code uint32
	rng  uint32
	in   []byte
	pos  int
	err  error
}

// NewDecoder initializes a decoder over the encoded bytes.
func NewDecoder(in []byte) *Decoder {
	d := &Decoder{rng: 0xFFFFFFFF, in: in}
	d.nextByte() // the first output byte of the encoder is always 0
	for i := 0; i < 4; i++ {
		d.code = d.code<<8 | uint32(d.nextByte())
	}
	return d
}

func (d *Decoder) nextByte() byte {
	if d.pos >= len(d.in) {
		d.err = ErrTruncated
		return 0
	}
	b := d.in[d.pos]
	d.pos++
	return b
}

// Err reports a truncation encountered at any earlier decode step.
func (d *Decoder) Err() error { return d.err }

// DecodeBit decodes one bit under the adaptive context *p. Like DecodeTree
// it selects with borrow masks instead of a data-dependent branch.
func (d *Decoder) DecodeBit(p *Prob) int {
	code, rng, pv, bit := decodeMasked(uint32(*p), d.code, d.rng)
	*p = pv
	d.code, d.rng, d.pos = d.refill(code, rng, d.pos)
	return int(bit)
}

// decodeMasked is the decoder's one coding step, on locals, with the bit
// selected by a borrow mask instead of a branch: sel is all ones when
// code < bound (bit 0), so code keeps its value and rng becomes bound only
// then, and the probability moves up instead of down. The decoded bits of
// noisy float mantissas are near-random, so a branch would mispredict on
// about half of them. It returns the new registers, the new probability
// and the bit; the caller refills.
func decodeMasked(pv, code, rng uint32) (uint32, uint32, Prob, uint32) {
	bound := rng >> probBits * pv
	t := uint64(code) - uint64(bound)
	sel := uint32(t >> 32)
	return uint32(t) + bound&sel, bound&sel | (rng-bound)&^sel,
		Prob(pv - pv>>moveBits + ((probTotal-pv)>>moveBits+pv>>moveBits)&sel), sel + 1
}

// refill restores rng >= topValue after one decode step by shifting one
// input byte into code; past the end of the input it shifts in a zero and
// flags truncation, which Err reports. One shift always suffices:
// adaptive probabilities stay in [31, 2017]/2048, so an adaptive step
// shrinks rng at most ~66x, and a DecodeDirect step halves it. The test
// is inside, so every call site is one line; the shift runs about once
// per input byte.
func (d *Decoder) refill(code, rng uint32, pos int) (uint32, uint32, int) {
	if rng >= topValue {
		return code, rng, pos
	}
	var b byte
	if pos < len(d.in) {
		b = d.in[pos]
		pos++
	} else {
		d.err = ErrTruncated
	}
	return code<<8 | uint32(b), rng << 8, pos
}

// DecodeTree walks nbits adaptive contexts MSB-first through the implicit
// tree rooted at probs[1] and returns the node index past the leaves
// (callers subtract 1<<nbits for the symbol). The range registers stay in
// locals across all nbits steps instead of round-tripping through the
// struct on every bit — this is the hottest loop of the XZ-class decoder.
func (d *Decoder) DecodeTree(probs []Prob, nbits uint) uint32 {
	// Reslice to the tree size: indexed nodes satisfy node&mask == node and
	// stay below len(probs), so the loop body runs without bounds checks.
	mask := uint32(1)<<nbits - 1
	probs = probs[:mask+1]
	code, rng, pos := d.code, d.rng, d.pos
	node := uint32(1)
	for i := uint(0); i < nbits; i++ {
		var bit uint32
		code, rng, probs[node&mask], bit = decodeMasked(uint32(probs[node&mask]), code, rng)
		node = node<<1 | bit
		code, rng, pos = d.refill(code, rng, pos)
	}
	d.code, d.rng, d.pos = code, rng, pos
	return node
}

// DecodeLiteralRun decodes a run of LZMA (isMatch=0, literal) symbol pairs
// with the range state held in registers across the entire run — the
// steady-state loop of the XZ-class decoder, where per-symbol function
// calls and struct round-trips would otherwise dominate. isMatch must hold
// the four literal-follows-literal position contexts (indexed by output
// position & 3); literals holds the 8 LZMA literal contexts (0x300 probs
// each) indexed by the top 3 bits of the previous byte. The run ends when
// an isMatch bit decodes to 1 (returns hitMatch=true with that bit
// consumed) or when out reaches max bytes.
func (d *Decoder) DecodeLiteralRun(isMatch []Prob, literals [][]Prob, out []byte, max int) (res []byte, hitMatch bool) {
	code, rng, pos := d.code, d.rng, d.pos
	im := isMatch[:4]
	n := len(out)
	prev := byte(0) // previous decoded byte, kept in a register for the ctx
	if n > 0 {
		prev = out[n-1]
	}
	for n < max {
		// Make room for the next stretch so the inner loop writes by index;
		// the grow-and-back-off keeps append's amortized doubling.
		if n == cap(out) {
			out = append(out[:n], 0)
		}
		buf := out[:cap(out)]
		limit := max
		if len(buf) < max {
			limit = len(buf)
		}
		for n < limit {
			var bit uint32
			code, rng, im[n&3], bit = decodeMasked(uint32(im[n&3]), code, rng)
			code, rng, pos = d.refill(code, rng, pos)
			if bit == 1 { // isMatch = 1: a match follows
				d.code, d.rng, d.pos = code, rng, pos
				return out[:n], true
			}
			// The literal is an 8-level tree walk, fully unrolled: per-level
			// constant index masks prove every access below len 512 (so no
			// bounds checks), and both children are loaded before the bit
			// resolves, keeping the probability load off the loop-carried
			// dependency chain; bit-1 is all ones for bit 0, the same
			// borrow mask decodeMasked selects with, so the select costs
			// two operations. The matched-mode contexts sharing the slice
			// above index 255 make the speculative reads harmless.
			probs := literals[prev>>5][:512]
			node, lpv := uint32(1), uint32(probs[1])
			var pv0, pv1 uint32
			code, rng, probs[node&0x1], bit = decodeMasked(lpv, code, rng)
			pv0, pv1 = uint32(probs[node<<1&0x3]), uint32(probs[(node<<1|1)&0x3])
			node, lpv = node<<1|bit, pv1^(pv1^pv0)&(bit-1)
			code, rng, pos = d.refill(code, rng, pos)
			code, rng, probs[node&0x3], bit = decodeMasked(lpv, code, rng)
			pv0, pv1 = uint32(probs[node<<1&0x7]), uint32(probs[(node<<1|1)&0x7])
			node, lpv = node<<1|bit, pv1^(pv1^pv0)&(bit-1)
			code, rng, pos = d.refill(code, rng, pos)
			code, rng, probs[node&0x7], bit = decodeMasked(lpv, code, rng)
			pv0, pv1 = uint32(probs[node<<1&0xf]), uint32(probs[(node<<1|1)&0xf])
			node, lpv = node<<1|bit, pv1^(pv1^pv0)&(bit-1)
			code, rng, pos = d.refill(code, rng, pos)
			code, rng, probs[node&0xf], bit = decodeMasked(lpv, code, rng)
			pv0, pv1 = uint32(probs[node<<1&0x1f]), uint32(probs[(node<<1|1)&0x1f])
			node, lpv = node<<1|bit, pv1^(pv1^pv0)&(bit-1)
			code, rng, pos = d.refill(code, rng, pos)
			code, rng, probs[node&0x1f], bit = decodeMasked(lpv, code, rng)
			pv0, pv1 = uint32(probs[node<<1&0x3f]), uint32(probs[(node<<1|1)&0x3f])
			node, lpv = node<<1|bit, pv1^(pv1^pv0)&(bit-1)
			code, rng, pos = d.refill(code, rng, pos)
			code, rng, probs[node&0x3f], bit = decodeMasked(lpv, code, rng)
			pv0, pv1 = uint32(probs[node<<1&0x7f]), uint32(probs[(node<<1|1)&0x7f])
			node, lpv = node<<1|bit, pv1^(pv1^pv0)&(bit-1)
			code, rng, pos = d.refill(code, rng, pos)
			code, rng, probs[node&0x7f], bit = decodeMasked(lpv, code, rng)
			pv0, pv1 = uint32(probs[node<<1&0xff]), uint32(probs[(node<<1|1)&0xff])
			node, lpv = node<<1|bit, pv1^(pv1^pv0)&(bit-1)
			code, rng, pos = d.refill(code, rng, pos)
			code, rng, probs[node&0xff], bit = decodeMasked(lpv, code, rng)
			code, rng, pos = d.refill(code, rng, pos)
			prev = byte(node<<1 | bit)
			buf[n] = prev
			n++
		}
		out = buf[:n]
	}
	d.code, d.rng, d.pos = code, rng, pos
	return out[:n], false
}

// DecodeTreeMatched is the LZMA matched-literal walk, the decode side of
// Encoder.EncodeTreeMatched: while the decoded bits agree with matchByte,
// the next bit is decoded under probs[(1+matchBit)<<8+node]; from the first
// divergence on, under the plain tree probs[node]. probs needs 0x300
// entries. Register-local like DecodeTree, and the mode switch is
// branch-free the same way as the encoder's: offs stays 0x100 while the
// bits agree and drops to 0 at the first divergence.
func (d *Decoder) DecodeTreeMatched(probs []Prob, matchByte byte) uint32 {
	probs = probs[:0x300]
	code, rng, pos := d.code, d.rng, d.pos
	offs := uint32(0x100)
	node := uint32(1)
	match := uint32(matchByte)
	for node < 0x100 {
		match <<= 1 // bit 8 is the matched byte's next bit
		idx := offs + match&offs + node
		var bit uint32
		code, rng, probs[idx], bit = decodeMasked(uint32(probs[idx]), code, rng)
		node = node<<1 | bit
		offs &^= match ^ node<<8
		code, rng, pos = d.refill(code, rng, pos)
	}
	d.code, d.rng, d.pos = code, rng, pos
	return node
}

// DecodeTreeReverse is DecodeTree with LSB-first bit order, returning the
// decoded symbol directly.
func (d *Decoder) DecodeTreeReverse(probs []Prob, nbits uint) uint32 {
	mask := uint32(1)<<nbits - 1
	probs = probs[:mask+1]
	code, rng, pos := d.code, d.rng, d.pos
	node := uint32(1)
	var sym uint32
	for i := uint(0); i < nbits; i++ {
		var bit uint32
		code, rng, probs[node&mask], bit = decodeMasked(uint32(probs[node&mask]), code, rng)
		node = node<<1 | bit
		sym |= bit << i
		code, rng, pos = d.refill(code, rng, pos)
	}
	d.code, d.rng, d.pos = code, rng, pos
	return sym
}

// DecodeDirect decodes n fixed-probability bits (MSB first).
func (d *Decoder) DecodeDirect(n uint) uint32 {
	var v uint32
	for i := 0; i < int(n); i++ {
		d.rng >>= 1
		d.code -= d.rng
		t := 0 - (d.code >> 31) // 0xFFFFFFFF if code went negative
		d.code += d.rng & t
		v = v<<1 | (t + 1)
		d.code, d.rng, d.pos = d.refill(d.code, d.rng, d.pos)
	}
	return v
}

// BitTree codes an n-bit symbol MSB-first through a tree of adaptive
// contexts (the LZMA literal/length/slot scheme).
type BitTree struct {
	probs []Prob
	nbits uint
}

// NewBitTree allocates a tree for n-bit symbols.
func NewBitTree(n uint) *BitTree {
	return &BitTree{probs: NewProbs(1 << n), nbits: n}
}

// Encode codes sym (n bits).
func (t *BitTree) Encode(e *Encoder, sym uint32) {
	e.EncodeTree(t.probs, t.nbits, sym)
}

// Decode reads an n-bit symbol.
func (t *BitTree) Decode(d *Decoder) uint32 {
	return d.DecodeTree(t.probs, t.nbits) - 1<<t.nbits
}

// EncodeReverse codes sym LSB-first (used for LZMA alignment bits).
func (t *BitTree) EncodeReverse(e *Encoder, sym uint32) {
	node := uint32(1)
	for i := 0; i < int(t.nbits); i++ {
		bit := int(sym & 1)
		sym >>= 1
		e.EncodeBit(&t.probs[node], bit)
		node = node<<1 | uint32(bit)
	}
}

// DecodeReverse reads an LSB-first symbol.
func (t *BitTree) DecodeReverse(d *Decoder) uint32 {
	return d.DecodeTreeReverse(t.probs, t.nbits)
}
