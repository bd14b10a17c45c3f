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
