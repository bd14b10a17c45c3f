package rangecoder

// Price estimation: the cost, in 1/16-bit units, of coding a bit under an
// adaptive context at its current probability. Optimal parsers use these
// prices to compare encodings without touching coder state (LZMA's
// GetPrice machinery).

const (
	// PriceShift is the fixed-point shift of all price values: a price of
	// 16 is one bit.
	PriceShift = 4
	priceScale = 1 << PriceShift
)

var probPrices [probTotal >> 4]uint32

func init() {
	// LZMA's ProbPrices construction (LzmaEnc.c): for each quantized
	// probability p = (16*k + 8)/2048, square w four times, counting
	// normalization shifts; the result approximates -log2(p) in 1/16 bits.
	for k := range probPrices {
		w := uint32(16*k + 8)
		bitCount := uint32(0)
		for j := 0; j < PriceShift; j++ {
			w *= w
			bitCount <<= 1
			for w >= 1<<16 {
				w >>= 1
				bitCount++
			}
		}
		probPrices[k] = probBits<<PriceShift - 15 - bitCount
	}
}

// Price returns the cost of coding bit under context p. A nonzero bit is
// priced as 1.
//
// The probability of the coded bit is selected with a mask instead of a
// branch: the bits an optimal parser prices (literal bits of float
// mantissas above all) are near-random, so a branch on them mispredicts
// about half the time. The select is exact. LZMA's shortcut of indexing
// with p ^ 0x7FF (that is, 2047-p) instead of probTotal-p reads the bucket
// below whenever p is a multiple of 16, and that changes parse decisions.
func (p Prob) Price(bit int) uint32 {
	one := uint32(int64(bit|-bit) >> 63) // all ones for a nonzero bit
	v := uint32(p)
	v ^= (v ^ (probTotal - v)) & one
	return probPrices[v>>PriceShift]
}

// Price returns the cost of coding sym through the tree.
func (t *BitTree) Price(sym uint32) uint32 {
	price := uint32(0)
	node := uint32(1)
	for i := int(t.nbits) - 1; i >= 0; i-- {
		bit := int(sym >> uint(i) & 1)
		price += t.probs[node].Price(bit)
		node = node<<1 | uint32(bit)
	}
	return price
}

// FillPrices writes base+Price(sym) to tab[sym] for every symbol of the
// tree, in 2^(n+1)-2 additions instead of one n-step walk per symbol. It
// walks the tree top down; at level k, the partial sum of node j (its
// path's prices so far) is kept at tab[j<<(n-k)], the slot of the first
// symbol below it, so no scratch is needed. The prices on each path are
// the ones Price adds, and uint32 addition is associative and commutative,
// so every entry equals base+Price(sym) exactly. tab needs 2^n entries.
func (t *BitTree) FillPrices(tab []uint32, base uint32) {
	n := t.nbits
	tab = tab[:1<<n]
	tab[0] = base
	for k := uint(0); k < n; k++ {
		s := n - k
		nodes := t.probs[1<<k : 2<<k]
		for j, p := range nodes {
			at := j << s
			sum := tab[at]
			tab[at] = sum + p.Price(0)
			tab[at+1<<(s-1)] = sum + p.Price(1)
		}
	}
}

// PriceReverse returns the cost of coding sym LSB-first through the tree.
func (t *BitTree) PriceReverse(sym uint32) uint32 {
	price := uint32(0)
	node := uint32(1)
	for i := 0; i < int(t.nbits); i++ {
		bit := int(sym & 1)
		sym >>= 1
		price += t.probs[node].Price(bit)
		node = node<<1 | uint32(bit)
	}
	return price
}

// DirectPrice returns the cost of n fixed-probability bits.
func DirectPrice(n uint) uint32 { return uint32(n) << PriceShift }
