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
	pv := uint32(*p)
	bound := d.rng >> probBits * pv
	t := uint64(d.code) - uint64(bound)
	sel := uint32(t >> 32) // all-ones when code < bound (bit 0)
	d.code = uint32(t) + bound&sel
	d.rng = bound&sel | (d.rng-bound)&^sel
	down := pv - pv>>moveBits
	*p = Prob(down + ((probTotal-pv)>>moveBits+pv>>moveBits)&sel)
	if d.rng < topValue {
		d.normalize()
	}
	return int(sel + 1)
}

// normalize refills the range register. Outlined from the decode fast paths:
// adaptive probabilities are clamped far from 0 and 1, so one decode step
// shrinks rng by at most ~66x and a single byte shift restores the invariant
// — the loop runs exactly once whenever it is entered.
func (d *Decoder) normalize() {
	for d.rng < topValue {
		var b byte
		if d.pos < len(d.in) {
			b = d.in[d.pos]
			d.pos++
		} else {
			d.err = ErrTruncated
		}
		d.rng <<= 8
		d.code = d.code<<8 | uint32(b)
	}
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
	code, rng := d.code, d.rng
	in, pos := d.in, d.pos
	node := uint32(1)
	for i := uint(0); i < nbits; i++ {
		pv := uint32(probs[node&mask])
		bound := rng >> probBits * pv
		// Branch-free select via borrow masks: sel is all-ones when
		// code < bound (bit 0). The decoded bits of noisy float mantissas
		// are near-random, so a branchy walk would mispredict on most of
		// them; mask arithmetic keeps the pipeline full.
		t := uint64(code) - uint64(bound)
		sel := uint32(t >> 32)
		code = uint32(t) + bound&sel
		rng = bound&sel | (rng-bound)&^sel
		down := pv - pv>>moveBits
		probs[node&mask] = Prob(down + ((probTotal-pv)>>moveBits+pv>>moveBits)&sel)
		node = node<<1 | (sel + 1)
		// Single-shift normalize: probabilities are clamped to
		// [31, 2017]/2048, so one step shrinks rng at most ~66x and one
		// byte refill always restores rng >= topValue (see normalize).
		if rng < topValue {
			var b byte
			if pos < len(in) {
				b = in[pos]
				pos++
			} else {
				d.err = ErrTruncated
			}
			rng <<= 8
			code = code<<8 | uint32(b)
		}
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
	code, rng := d.code, d.rng
	in, pos := d.in, d.pos
	im := isMatch[:4]
	n := len(out)
	prev := byte(0) // previous decoded byte, kept in a register for the ctx
	if n > 0 {
		prev = out[n-1]
	}
	impv := uint32(im[n&3])
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
			pv := impv
			bound := rng >> probBits * pv
			t := uint64(code) - uint64(bound)
			sel := uint32(t >> 32)
			code = uint32(t) + bound&sel
			rng = bound&sel | (rng-bound)&^sel
			down := pv - pv>>moveBits
			im[n&3] = Prob(down + ((probTotal-pv)>>moveBits+pv>>moveBits)&sel)
			if rng < topValue {
				var b byte
				if pos < len(in) {
					b = in[pos]
					pos++
				} else {
					d.err = ErrTruncated
				}
				rng <<= 8
				code = code<<8 | uint32(b)
			}
			if sel == 0 { // isMatch = 1: a match follows
				d.code, d.rng, d.pos = code, rng, pos
				return out[:n], true
			}
			// Preload the next position's isMatch probability (a different
			// slot than the one updated above, since the context rotates with
			// n) so the load resolves during the tree walk below.
			impv = uint32(im[(n+1)&3])
			// The literal is an 8-level tree walk, fully unrolled: per-level
			// constant index masks prove every access below len 512 (so no
			// bounds checks), and both children are loaded before sel
			// resolves, keeping the probability load off the loop-carried
			// dependency chain. The matched-mode contexts sharing the slice
			// above index 255 make the speculative reads harmless.
			probs := literals[prev>>5][:512]
			node := uint32(1)
			lpv := uint32(probs[1])
			var child, pv0, pv1 uint32
			// level 0
			bound = rng >> probBits * lpv
			t = uint64(code) - uint64(bound)
			sel = uint32(t >> 32)
			code = uint32(t) + bound&sel
			rng = bound&sel | (rng-bound)&^sel
			probs[node&0x1] = Prob(lpv - lpv>>moveBits + ((probTotal-lpv)>>moveBits+lpv>>moveBits)&sel)
			child = node << 1
			pv0 = uint32(probs[child&0x3])
			pv1 = uint32(probs[(child|1)&0x3])
			node = child | (sel + 1)
			lpv = pv1 ^ (pv1^pv0)&sel
			if rng < topValue {
				var b byte
				if pos < len(in) {
					b = in[pos]
					pos++
				} else {
					d.err = ErrTruncated
				}
				rng <<= 8
				code = code<<8 | uint32(b)
			}
			// level 1
			bound = rng >> probBits * lpv
			t = uint64(code) - uint64(bound)
			sel = uint32(t >> 32)
			code = uint32(t) + bound&sel
			rng = bound&sel | (rng-bound)&^sel
			probs[node&0x3] = Prob(lpv - lpv>>moveBits + ((probTotal-lpv)>>moveBits+lpv>>moveBits)&sel)
			child = node << 1
			pv0 = uint32(probs[child&0x7])
			pv1 = uint32(probs[(child|1)&0x7])
			node = child | (sel + 1)
			lpv = pv1 ^ (pv1^pv0)&sel
			if rng < topValue {
				var b byte
				if pos < len(in) {
					b = in[pos]
					pos++
				} else {
					d.err = ErrTruncated
				}
				rng <<= 8
				code = code<<8 | uint32(b)
			}
			// level 2
			bound = rng >> probBits * lpv
			t = uint64(code) - uint64(bound)
			sel = uint32(t >> 32)
			code = uint32(t) + bound&sel
			rng = bound&sel | (rng-bound)&^sel
			probs[node&0x7] = Prob(lpv - lpv>>moveBits + ((probTotal-lpv)>>moveBits+lpv>>moveBits)&sel)
			child = node << 1
			pv0 = uint32(probs[child&0xf])
			pv1 = uint32(probs[(child|1)&0xf])
			node = child | (sel + 1)
			lpv = pv1 ^ (pv1^pv0)&sel
			if rng < topValue {
				var b byte
				if pos < len(in) {
					b = in[pos]
					pos++
				} else {
					d.err = ErrTruncated
				}
				rng <<= 8
				code = code<<8 | uint32(b)
			}
			// level 3
			bound = rng >> probBits * lpv
			t = uint64(code) - uint64(bound)
			sel = uint32(t >> 32)
			code = uint32(t) + bound&sel
			rng = bound&sel | (rng-bound)&^sel
			probs[node&0xf] = Prob(lpv - lpv>>moveBits + ((probTotal-lpv)>>moveBits+lpv>>moveBits)&sel)
			child = node << 1
			pv0 = uint32(probs[child&0x1f])
			pv1 = uint32(probs[(child|1)&0x1f])
			node = child | (sel + 1)
			lpv = pv1 ^ (pv1^pv0)&sel
			if rng < topValue {
				var b byte
				if pos < len(in) {
					b = in[pos]
					pos++
				} else {
					d.err = ErrTruncated
				}
				rng <<= 8
				code = code<<8 | uint32(b)
			}
			// level 4
			bound = rng >> probBits * lpv
			t = uint64(code) - uint64(bound)
			sel = uint32(t >> 32)
			code = uint32(t) + bound&sel
			rng = bound&sel | (rng-bound)&^sel
			probs[node&0x1f] = Prob(lpv - lpv>>moveBits + ((probTotal-lpv)>>moveBits+lpv>>moveBits)&sel)
			child = node << 1
			pv0 = uint32(probs[child&0x3f])
			pv1 = uint32(probs[(child|1)&0x3f])
			node = child | (sel + 1)
			lpv = pv1 ^ (pv1^pv0)&sel
			if rng < topValue {
				var b byte
				if pos < len(in) {
					b = in[pos]
					pos++
				} else {
					d.err = ErrTruncated
				}
				rng <<= 8
				code = code<<8 | uint32(b)
			}
			// level 5
			bound = rng >> probBits * lpv
			t = uint64(code) - uint64(bound)
			sel = uint32(t >> 32)
			code = uint32(t) + bound&sel
			rng = bound&sel | (rng-bound)&^sel
			probs[node&0x3f] = Prob(lpv - lpv>>moveBits + ((probTotal-lpv)>>moveBits+lpv>>moveBits)&sel)
			child = node << 1
			pv0 = uint32(probs[child&0x7f])
			pv1 = uint32(probs[(child|1)&0x7f])
			node = child | (sel + 1)
			lpv = pv1 ^ (pv1^pv0)&sel
			if rng < topValue {
				var b byte
				if pos < len(in) {
					b = in[pos]
					pos++
				} else {
					d.err = ErrTruncated
				}
				rng <<= 8
				code = code<<8 | uint32(b)
			}
			// level 6
			bound = rng >> probBits * lpv
			t = uint64(code) - uint64(bound)
			sel = uint32(t >> 32)
			code = uint32(t) + bound&sel
			rng = bound&sel | (rng-bound)&^sel
			probs[node&0x7f] = Prob(lpv - lpv>>moveBits + ((probTotal-lpv)>>moveBits+lpv>>moveBits)&sel)
			child = node << 1
			pv0 = uint32(probs[child&0xff])
			pv1 = uint32(probs[(child|1)&0xff])
			node = child | (sel + 1)
			lpv = pv1 ^ (pv1^pv0)&sel
			if rng < topValue {
				var b byte
				if pos < len(in) {
					b = in[pos]
					pos++
				} else {
					d.err = ErrTruncated
				}
				rng <<= 8
				code = code<<8 | uint32(b)
			}
			// level 7
			bound = rng >> probBits * lpv
			t = uint64(code) - uint64(bound)
			sel = uint32(t >> 32)
			code = uint32(t) + bound&sel
			rng = bound&sel | (rng-bound)&^sel
			probs[node&0xff] = Prob(lpv - lpv>>moveBits + ((probTotal-lpv)>>moveBits+lpv>>moveBits)&sel)
			node = node<<1 | (sel + 1)
			if rng < topValue {
				var b byte
				if pos < len(in) {
					b = in[pos]
					pos++
				} else {
					d.err = ErrTruncated
				}
				rng <<= 8
				code = code<<8 | uint32(b)
			}
			prev = byte(node)
			buf[n] = prev
			n++
		}
		out = buf[:n]
	}
	d.code, d.rng, d.pos = code, rng, pos
	return out[:n], false
}

// DecodeTreeMatched is the LZMA matched-literal walk: while decoded bits
// agree with matchByte the context set (1+matchBit)<<8 applies; on the first
// divergence it falls back to the plain tree. Register-local like DecodeTree.
func (d *Decoder) DecodeTreeMatched(probs []Prob, matchByte byte) uint32 {
	code, rng := d.code, d.rng
	in, pos := d.in, d.pos
	node := uint32(1)
	match := uint32(matchByte)
	for node < 0x100 {
		match <<= 1
		matchBit := match >> 8 & 1
		idx := (1+matchBit)<<8 + node
		pv := uint32(probs[idx])
		bound := rng >> probBits * pv
		t := uint64(code) - uint64(bound)
		sel := uint32(t >> 32)
		code = uint32(t) + bound&sel
		rng = bound&sel | (rng-bound)&^sel
		down := pv - pv>>moveBits
		probs[idx] = Prob(down + ((probTotal-pv)>>moveBits+pv>>moveBits)&sel)
		bit := sel + 1
		node = node<<1 | bit
		if rng < topValue {
			var b byte
			if pos < len(in) {
				b = in[pos]
				pos++
			} else {
				d.err = ErrTruncated
			}
			rng <<= 8
			code = code<<8 | uint32(b)
		}
		if matchBit != bit {
			// Diverged: finish with the plain tree contexts.
			for node < 0x100 {
				pv := uint32(probs[node])
				bound := rng >> probBits * pv
				t := uint64(code) - uint64(bound)
				sel := uint32(t >> 32)
				code = uint32(t) + bound&sel
				rng = bound&sel | (rng-bound)&^sel
				down := pv - pv>>moveBits
				probs[node] = Prob(down + ((probTotal-pv)>>moveBits+pv>>moveBits)&sel)
				node = node<<1 | (sel + 1)
				if rng < topValue {
					var b byte
					if pos < len(in) {
						b = in[pos]
						pos++
					} else {
						d.err = ErrTruncated
					}
					rng <<= 8
					code = code<<8 | uint32(b)
				}
			}
			break
		}
	}
	d.code, d.rng, d.pos = code, rng, pos
	return node
}

// DecodeTreeReverse is DecodeTree with LSB-first bit order, returning the
// decoded symbol directly.
func (d *Decoder) DecodeTreeReverse(probs []Prob, nbits uint) uint32 {
	code, rng := d.code, d.rng
	in, pos := d.in, d.pos
	node := uint32(1)
	var sym uint32
	for i := uint(0); i < nbits; i++ {
		p := &probs[node]
		bound := rng >> probBits * uint32(*p)
		if code < bound {
			rng = bound
			*p += (probTotal - *p) >> moveBits
			node = node << 1
		} else {
			code -= bound
			rng -= bound
			*p -= *p >> moveBits
			node = node<<1 | 1
			sym |= 1 << i
		}
		for rng < topValue {
			var b byte
			if pos < len(in) {
				b = in[pos]
				pos++
			} else {
				d.err = ErrTruncated
			}
			rng <<= 8
			code = code<<8 | uint32(b)
		}
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
		if d.rng < topValue {
			d.normalize()
		}
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
