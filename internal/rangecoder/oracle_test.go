package rangecoder

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// The branch-free kernels keep the code they replaced here as oracles:
// each must give exactly the oracle's result.

// priceBranchy is Prob.Price with a branch on the bit.
func priceBranchy(p Prob, bit int) uint32 {
	if bit == 0 {
		return probPrices[p>>PriceShift]
	}
	return probPrices[(probTotal-p)>>PriceShift]
}

// TestPriceMatchesBranchy checks every valid probability with both bits
// (4,094 cases), and bits other than 0 and 1, which price as 1.
func TestPriceMatchesBranchy(t *testing.T) {
	for p := Prob(1); p < probTotal; p++ {
		for _, bit := range []int{0, 1, 2, -1, 1 << 40} {
			if got, want := p.Price(bit), priceBranchy(p, bit); got != want {
				t.Fatalf("Prob(%d).Price(%d) = %d, branchy form %d", p, bit, got, want)
			}
		}
	}
}

// randomTree is an nbits tree whose probabilities are drawn from the
// range adaptation keeps them in, [31, 2017].
func randomTree(rng *rand.Rand, nbits uint) *BitTree {
	t := NewBitTree(nbits)
	for i := range t.probs {
		t.probs[i] = Prob(31 + rng.Intn(2017-31+1))
	}
	return t
}

// TestFillPricesMatchesPrice: every entry of the one-walk fill equals base
// plus the per-symbol walk, for 3- and 8-bit trees (the length coder's)
// and the other widths the XZ-class coder builds.
func TestFillPricesMatchesPrice(t *testing.T) {
	const seed = 20261018
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	for _, nbits := range []uint{1, 3, 4, 6, 8} {
		for trial := 0; trial < 50; trial++ {
			tree := randomTree(rng, nbits)
			base := uint32(rng.Intn(4096))
			tab := make([]uint32, 1<<nbits)
			tree.FillPrices(tab, base)
			for sym := range tab {
				if want := base + tree.Price(uint32(sym)); tab[sym] != want {
					t.Fatalf("%d-bit tree, trial %d: FillPrices[%d] = %d, base+Price = %d", nbits, trial, sym, tab[sym], want)
				}
			}
		}
	}
}

// encodeBitBranchy is EncodeBit with a branch on the bit, the form the
// masked step replaced.
func encodeBitBranchy(e *Encoder, p *Prob, bit int) {
	bound := e.rng >> probBits * uint32(*p)
	if bit == 0 {
		e.rng = bound
		*p += (probTotal - *p) >> moveBits
	} else {
		e.low += uint64(bound)
		e.rng -= bound
		*p -= *p >> moveBits
	}
	for e.rng < topValue {
		e.rng <<= 8
		e.shiftLow()
	}
}

// encodeTreeBits is the per-bit walk EncodeTree replaces: the loop
// BitTree.Encode ran, on a bare slice.
func encodeTreeBits(e *Encoder, probs []Prob, nbits uint, sym uint32) {
	node := uint32(1)
	for i := int(nbits) - 1; i >= 0; i-- {
		bit := int(sym >> uint(i) & 1)
		encodeBitBranchy(e, &probs[node], bit)
		node = node<<1 | uint32(bit)
	}
}

// encodeMatchedBits is the per-bit matched-literal walk EncodeTreeMatched
// replaces.
func encodeMatchedBits(e *Encoder, probs []Prob, b, matchByte byte) {
	node := uint32(1)
	for i := 7; i >= 0; i-- {
		matchBit := uint32(matchByte>>uint(i)) & 1
		bit := int(b>>uint(i)) & 1
		encodeBitBranchy(e, &probs[(1+matchBit)<<8+node], bit)
		node = node<<1 | uint32(bit)
		if matchBit != uint32(bit) {
			for i--; i >= 0; i-- {
				bit := int(b>>uint(i)) & 1
				encodeBitBranchy(e, &probs[node], bit)
				node = node<<1 | uint32(bit)
			}
			return
		}
	}
}

// checkEncoders codes one op stream with the masked coders (EncodeBit
// and the register-local walks) and with the branchy per-bit oracle, and
// fails unless the byte streams and every probability agree. Each op is
// three bytes: a mode (plain literal, matched literal, a lone adaptive bit,
// or a 6- or 3-bit BitTree symbol, the xz slot and length trees' widths),
// a symbol and a match byte. A lone bit is 0 for an even symbol and
// 1<<(match byte%64) otherwise, so every nonzero bit must code as 1. The
// ops share one literal table of 0x300 contexts, so the walks see the
// probabilities their earlier steps left behind.
func checkEncoders(t *testing.T, ops []byte) {
	t.Helper()
	got, want := NewEncoder(64), NewEncoder(64)
	gotProbs, wantProbs := NewProbs(0x300+64+8+1), NewProbs(0x300+64+8+1)
	slot := &BitTree{probs: gotProbs[0x300 : 0x300+64], nbits: 6}
	length := &BitTree{probs: gotProbs[0x340 : 0x340+8], nbits: 3}
	for i := 0; i+2 < len(ops); i += 3 {
		sym, mb := ops[i+1], ops[i+2]
		switch ops[i] % 5 {
		case 0:
			got.EncodeTree(gotProbs[:0x300], 8, uint32(sym))
			encodeTreeBits(want, wantProbs[:0x300], 8, uint32(sym))
		case 1:
			got.EncodeTreeMatched(gotProbs[:0x300], sym, mb)
			encodeMatchedBits(want, wantProbs[:0x300], sym, mb)
		case 2:
			bit := int(sym&1) << (mb % 64)
			got.EncodeBit(&gotProbs[0x348], bit)
			encodeBitBranchy(want, &wantProbs[0x348], bit)
		case 3:
			slot.Encode(got, uint32(sym))
			encodeTreeBits(want, wantProbs[0x300:0x300+64], 6, uint32(sym&63))
		case 4:
			length.Encode(got, uint32(sym))
			encodeTreeBits(want, wantProbs[0x340:0x340+8], 3, uint32(sym&7))
		}
	}
	if !slices.Equal(gotProbs, wantProbs) {
		t.Fatalf("%d ops: probabilities differ from the per-bit walk", len(ops)/3)
	}
	if g, w := got.Finish(), want.Finish(); !bytes.Equal(g, w) {
		t.Fatalf("%d ops: stream of %d bytes differs from the per-bit walk's %d bytes", len(ops)/3, len(g), len(w))
	}
}

// TestEncodersMatchBranchy runs checkEncoders on random op streams,
// on skewed ones (a few symbols, matched bytes equal to the literal), which
// drive probabilities to their clamps and rng through long normalization
// runs, and on every (symbol, match byte) pair in matched mode.
func TestEncodersMatchBranchy(t *testing.T) {
	const seed = 20261019
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 200; trial++ {
		ops := make([]byte, 3*(1+rng.Intn(2000)))
		rng.Read(ops)
		if trial%2 == 1 {
			for i := 0; i < len(ops); i += 3 {
				ops[i+1] = byte(rng.Intn(3))
				ops[i+2] = ops[i+1] ^ byte(rng.Intn(2))
			}
		}
		checkEncoders(t, ops)
	}
	var all []byte
	for sym := 0; sym < 256; sym++ {
		for mb := 0; mb < 256; mb++ {
			all = append(all, 1, byte(sym), byte(mb))
		}
	}
	checkEncoders(t, all)
}

func FuzzEncodersMatchBranchy(f *testing.F) {
	f.Add([]byte{0, 0x41, 0, 1, 0x41, 0x41, 1, 0x41, 0xC1, 2, 1, 0, 3, 0x3F, 0, 4, 5, 0})
	f.Add(bytes.Repeat([]byte{1, 0xFF, 0xFF}, 300))
	f.Fuzz(func(t *testing.T, ops []byte) {
		checkEncoders(t, ops)
	})
}

// decodeBitBranchy is LZMA's reference bit decode, with a branch on the
// bit and its normalize loop: the form decodeMasked and refill replaced.
func decodeBitBranchy(d *Decoder, p *Prob) uint32 {
	bound := d.rng >> probBits * uint32(*p)
	var bit uint32
	if d.code < bound {
		d.rng = bound
		*p += (probTotal - *p) >> moveBits
	} else {
		d.code -= bound
		d.rng -= bound
		*p -= *p >> moveBits
		bit = 1
	}
	for d.rng < topValue {
		d.rng <<= 8
		d.code = d.code<<8 | uint32(d.nextByte())
	}
	return bit
}

// decodeDirectLoop is DecodeDirect with the normalize loop refill
// replaced. Its bit step is LZMA's, unchanged: on a corrupt stream, where
// code can exceed rng, it differs from a branch on code >= rng.
func decodeDirectLoop(d *Decoder, n uint) uint32 {
	var v uint32
	for ; n > 0; n-- {
		d.rng >>= 1
		d.code -= d.rng
		t := 0 - (d.code >> 31)
		d.code += d.rng & t
		v = v<<1 | (t + 1)
		for d.rng < topValue {
			d.rng <<= 8
			d.code = d.code<<8 | uint32(d.nextByte())
		}
	}
	return v
}

// decodeTreeBits is the per-bit walk DecodeTree replaces.
func decodeTreeBits(d *Decoder, probs []Prob, nbits uint) uint32 {
	node := uint32(1)
	for i := uint(0); i < nbits; i++ {
		node = node<<1 | decodeBitBranchy(d, &probs[node])
	}
	return node
}

// decodeMatchedBits is the per-bit matched-literal walk DecodeTreeMatched
// replaces: matched contexts until the first divergence, then the plain
// tree.
func decodeMatchedBits(d *Decoder, probs []Prob, matchByte byte) uint32 {
	node := uint32(1)
	for i := 7; i >= 0; i-- {
		matchBit := uint32(matchByte>>uint(i)) & 1
		bit := decodeBitBranchy(d, &probs[(1+matchBit)<<8+node])
		node = node<<1 | bit
		if matchBit != bit {
			for node < 0x100 {
				node = node<<1 | decodeBitBranchy(d, &probs[node])
			}
			break
		}
	}
	return node
}

// decodeReverseBits is the per-bit LSB-first walk DecodeTreeReverse
// replaces.
func decodeReverseBits(d *Decoder, probs []Prob, nbits uint) uint32 {
	node, sym := uint32(1), uint32(0)
	for i := uint(0); i < nbits; i++ {
		bit := decodeBitBranchy(d, &probs[node])
		node = node<<1 | bit
		sym |= bit << i
	}
	return sym
}

// decodeLiteralRunBits is DecodeLiteralRun as one isMatch bit and one
// 8-bit tree walk per literal.
func decodeLiteralRunBits(d *Decoder, isMatch []Prob, literals [][]Prob, out []byte, max int) ([]byte, bool) {
	for len(out) < max {
		if decodeBitBranchy(d, &isMatch[len(out)&3]) == 1 {
			return out, true
		}
		prev := byte(0)
		if len(out) > 0 {
			prev = out[len(out)-1]
		}
		out = append(out, byte(decodeTreeBits(d, literals[prev>>5], 8)))
	}
	return out, false
}

// decoderModels is one decoder's adaptive state for checkDecoders: eight
// literal tables of 0x300 contexts, the four isMatch contexts, a 6-bit
// slot tree, a 3-bit length tree, a 5-bit reverse tree and a lone bit, all
// in one slice so the final comparison covers every probability.
type decoderModels struct {
	all                                 []Prob
	literals                            [][]Prob
	isMatch, slot, length, reverse, bit []Prob
	out                                 []byte
}

func newDecoderModels() *decoderModels {
	m := &decoderModels{all: NewProbs(8*0x300 + 4 + 64 + 8 + 32 + 1)}
	rest := m.all
	take := func(n int) []Prob {
		s := rest[:n:n]
		rest = rest[n:]
		return s
	}
	for i := 0; i < 8; i++ {
		m.literals = append(m.literals, take(0x300))
	}
	m.isMatch, m.slot, m.length, m.reverse, m.bit = take(4), take(64), take(8), take(32), take(1)
	return m
}

// checkDecoders decodes stream through one op sequence with the masked
// decoders and with the per-bit branchy oracle, and fails unless every op
// returns the same symbol and leaves code, rng, pos and err equal, and
// the probabilities agree at the end. Each op is three bytes: a mode
// (plain literal, matched literal, a lone adaptive bit, a 6- or 3-bit
// BitTree symbol, a reverse symbol, a literal run or direct bits) and two
// arguments. Any byte stream is input: random bytes decode to random
// symbols, and a short one runs off its end, so the truncation flag is
// compared too.
func checkDecoders(t *testing.T, stream, ops []byte) {
	t.Helper()
	got, want := NewDecoder(stream), NewDecoder(stream)
	gm, wm := newDecoderModels(), newDecoderModels()
	slot := &BitTree{probs: gm.slot, nbits: 6}
	length := &BitTree{probs: gm.length, nbits: 3}
	for i := 0; i+2 < len(ops); i += 3 {
		a, b := ops[i+1], ops[i+2]
		var g, w uint32
		mode := ops[i] % 8
		switch mode {
		case 0:
			g = got.DecodeTree(gm.literals[a>>5], 8)
			w = decodeTreeBits(want, wm.literals[a>>5], 8)
		case 1:
			g = got.DecodeTreeMatched(gm.literals[a>>5], b)
			w = decodeMatchedBits(want, wm.literals[a>>5], b)
		case 2:
			g = uint32(got.DecodeBit(&gm.bit[0]))
			w = decodeBitBranchy(want, &wm.bit[0])
		case 3:
			g = slot.Decode(got)
			w = decodeTreeBits(want, wm.slot, 6) - 64
		case 4:
			g = length.Decode(got)
			w = decodeTreeBits(want, wm.length, 3) - 8
		case 5:
			nbits := uint(1 + a%5)
			g = got.DecodeTreeReverse(gm.reverse, nbits)
			w = decodeReverseBits(want, wm.reverse, nbits)
		case 6:
			// The outputs so far are equal, so only this run's bytes are
			// compared, which keeps a long op sequence linear.
			n := len(gm.out)
			max := n + int(a%64)
			var gh, wh bool
			gm.out, gh = got.DecodeLiteralRun(gm.isMatch, gm.literals, gm.out, max)
			wm.out, wh = decodeLiteralRunBits(want, wm.isMatch, wm.literals, wm.out, max)
			if !bytes.Equal(gm.out[n:], wm.out[n:]) || len(gm.out) != len(wm.out) {
				t.Fatalf("op %d: DecodeLiteralRun output %x, per-bit walk %x", i/3, gm.out[n:], wm.out[n:])
			}
			if gh {
				g = 1
			}
			if wh {
				w = 1
			}
		case 7:
			n := uint(1 + a%26)
			g = got.DecodeDirect(n)
			w = decodeDirectLoop(want, n)
		}
		if g != w || got.code != want.code || got.rng != want.rng || got.pos != want.pos || got.err != want.err {
			t.Fatalf("op %d (mode %d, args %d %d): symbol %d code %#x rng %#x pos %d err %v; per-bit walk %d %#x %#x %d %v",
				i/3, mode, a, b, g, got.code, got.rng, got.pos, got.err, w, want.code, want.rng, want.pos, want.err)
		}
	}
	if !slices.Equal(gm.all, wm.all) {
		t.Fatalf("%d ops: probabilities differ from the per-bit walk", len(ops)/3)
	}
}

// TestDecodersMatchBranchy runs checkDecoders on random streams, on
// all-zero and all-0xFF streams (which drive every context toward bit 0
// or bit 1 and so to the probability clamps), on real encoder output cut
// at a random length, and on streams shorter than the decoder's 5-byte
// start.
func TestDecodersMatchBranchy(t *testing.T) {
	const seed = 20261020
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 400; trial++ {
		ops := make([]byte, 3*(1+rng.Intn(1000)))
		rng.Read(ops)
		stream := make([]byte, rng.Intn(4000))
		switch trial % 5 {
		case 0, 1:
			rng.Read(stream)
		case 2:
			// all zeros
		case 3:
			for i := range stream {
				stream[i] = 0xFF
			}
		case 4:
			e := NewEncoder(1024)
			p := NewProbs(2)
			for i := 0; i < 8*len(stream); i++ {
				e.EncodeBit(&p[i&1], int(rng.Intn(8)/7))
			}
			stream = e.Finish()
			stream = stream[:rng.Intn(len(stream)+1)]
		}
		checkDecoders(t, stream, ops)
	}
	for n := 0; n < 6; n++ {
		checkDecoders(t, bytes.Repeat([]byte{0x5A}, n), []byte{0, 1, 2, 1, 3, 4, 5, 6, 7, 6, 9, 0, 7, 25, 0})
	}
}

func FuzzDecodersMatchBranchy(f *testing.F) {
	f.Add([]byte{0, 0x12, 0x34, 0x56, 0x78, 0x9A}, []byte{0, 0x41, 0, 1, 0x41, 0x41, 2, 0, 0, 3, 0, 0, 4, 0, 0, 5, 4, 0, 6, 63, 0, 7, 25, 0})
	f.Add(bytes.Repeat([]byte{0xFF}, 64), bytes.Repeat([]byte{6, 63, 0}, 20))
	f.Add([]byte{0}, []byte{1, 0xFF, 0x00})
	f.Fuzz(func(t *testing.T, stream, ops []byte) {
		checkDecoders(t, stream, ops)
	})
}
