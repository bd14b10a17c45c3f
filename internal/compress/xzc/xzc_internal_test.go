package xzc

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"positbench/internal/rangecoder"
)

func TestDistSlot(t *testing.T) {
	cases := []struct {
		d1   uint32
		slot int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 3},
		{4, 4}, {5, 4}, {6, 5}, {7, 5},
		{8, 6}, {11, 6}, {12, 7}, {15, 7},
		{16, 8}, {1 << 20, 40},
	}
	for _, tc := range cases {
		if got := distSlot(tc.d1); got != tc.slot {
			t.Errorf("distSlot(%d) = %d, want %d", tc.d1, got, tc.slot)
		}
	}
}

func TestDistanceRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dists := []int{1, 2, 3, 4, 5, 64, 127, 128, 1000, 65536, 1 << 20, 8<<20 - 1}
	for i := 0; i < 200; i++ {
		dists = append(dists, rng.Intn(8<<20)+1)
	}
	e := rangecoder.NewEncoder(4096)
	em := newModels()
	for i, d := range dists {
		encodeDistance(e, em, i%4, d)
	}
	buf := e.Finish()
	dec := rangecoder.NewDecoder(buf)
	dm := newModels()
	for i, want := range dists {
		if got := decodeDistance(dec, dm, i%4); got != want {
			t.Fatalf("dist %d: got %d want %d", i, got, want)
		}
	}
}

func TestLenCoderRoundtrip(t *testing.T) {
	e := rangecoder.NewEncoder(4096)
	elc := newLenCoder()
	var vals []uint32
	for v := uint32(0); v <= maxLenCode; v += 3 {
		vals = append(vals, v)
	}
	vals = append(vals, 0, 7, 8, 15, 16, maxLenCode)
	for _, v := range vals {
		elc.encode(e, v)
	}
	buf := e.Finish()
	d := rangecoder.NewDecoder(buf)
	dlc := newLenCoder()
	for i, want := range vals {
		if got := dlc.decode(d); got != want {
			t.Fatalf("len %d: got %d want %d", i, got, want)
		}
	}
}

func TestRepIndexRoundtrip(t *testing.T) {
	e := rangecoder.NewEncoder(256)
	em := newModels()
	idxs := []int{0, 1, 2, 3, 3, 2, 1, 0, 0, 0, 1}
	for _, idx := range idxs {
		encodeRepIndex(e, em, idx)
	}
	buf := e.Finish()
	d := rangecoder.NewDecoder(buf)
	dm := newModels()
	for i, want := range idxs {
		if got := decodeRepIndex(d, dm); got != want {
			t.Fatalf("idx %d: got %d want %d", i, got, want)
		}
	}
}

func TestLiteralCoderModes(t *testing.T) {
	e := rangecoder.NewEncoder(4096)
	probs := rangecoder.NewProbs(0x300)
	type lit struct {
		b       byte
		matched bool
		mb      byte
	}
	rng := rand.New(rand.NewSource(2))
	var lits []lit
	for i := 0; i < 500; i++ {
		lits = append(lits, lit{byte(rng.Intn(256)), rng.Intn(2) == 1, byte(rng.Intn(256))})
	}
	for _, l := range lits {
		encodeLiteral(e, probs, l.b, l.matched, l.mb)
	}
	buf := e.Finish()
	d := rangecoder.NewDecoder(buf)
	dprobs := rangecoder.NewProbs(0x300)
	for i, l := range lits {
		if got := decodeLiteral(d, dprobs, l.matched, l.mb); got != l.b {
			t.Fatalf("lit %d: got %d want %d", i, got, l.b)
		}
	}
}

func TestMatchedLiteralsCheapWhenPredicted(t *testing.T) {
	// When matchByte == b throughout, matched-mode literals must cost far
	// less than unmatched ones.
	enc := func(matched bool) int {
		e := rangecoder.NewEncoder(4096)
		probs := rangecoder.NewProbs(0x300)
		for i := 0; i < 2000; i++ {
			b := byte(i * 37)
			encodeLiteral(e, probs, b, matched, b)
		}
		return len(e.Finish())
	}
	if m, u := enc(true), enc(false); m >= u/2 {
		t.Fatalf("matched-mode %d bytes vs unmatched %d: no prediction gain", m, u)
	}
}

func TestOptimalBeatsNaiveOnStrided(t *testing.T) {
	// 4-byte-strided data with small per-record deltas: the optimal parser
	// must exploit rep distances and produce strong compression.
	n := 1 << 16
	data := make([]byte, n)
	v := uint32(0x42000000)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < n; i += 4 {
		v += uint32(rng.Intn(16))
		data[i] = byte(v)
		data[i+1] = byte(v >> 8)
		data[i+2] = byte(v >> 16)
		data[i+3] = byte(v >> 24)
	}
	c := New()
	comp, err := c.Compress(data)
	if err != nil {
		t.Fatal(err)
	}
	back, err := c.Decompress(comp)
	if err != nil || !bytes.Equal(back, data) {
		t.Fatal("roundtrip")
	}
	if ratio := float64(len(data)) / float64(len(comp)); ratio < 3 {
		t.Fatalf("strided data ratio %.2f, expected > 3", ratio)
	}
}

func TestNiceMatchShortcut(t *testing.T) {
	// Long uniform runs exercise takeNiceMatch; output must stay tiny.
	data := bytes.Repeat([]byte{0xAB}, 1<<20)
	c := New()
	comp, err := c.Compress(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) > 4096 {
		t.Fatalf("uniform megabyte compressed to %d bytes", len(comp))
	}
	back, err := c.Decompress(comp)
	if err != nil || !bytes.Equal(back, data) {
		t.Fatal("roundtrip")
	}
}

func TestDecompressRejectsGarbage(t *testing.T) {
	c := New()
	if _, err := c.Decompress(nil); err == nil {
		t.Fatal("empty accepted")
	}
	// Declared size with random payload must fail or at least not panic.
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 50; i++ {
		garbage := make([]byte, rng.Intn(100)+10)
		rng.Read(garbage)
		garbage[0] = 200 // plausible size varint
		c.Decompress(garbage)
	}
}

// randomizeProbs sets every probability to a value adaptation can reach,
// [31, 2017].
func randomizeProbs(rng *rand.Rand, probs []rangecoder.Prob) {
	for i := range probs {
		probs[i] = rangecoder.Prob(31 + rng.Intn(2017-31+1))
	}
}

// litPriceBits is the per-bit literal price walk litPriceAt replaces.
func litPriceBits(probs []rangecoder.Prob, b byte, matched bool, matchByte byte) uint32 {
	price := uint32(0)
	node := uint32(1)
	if matched {
		for i := 7; i >= 0; i-- {
			matchBit := uint32(matchByte>>uint(i)) & 1
			bit := int(b>>uint(i)) & 1
			price += probs[(1+matchBit)<<8+node].Price(bit)
			node = node<<1 | uint32(bit)
			if matchBit != uint32(bit) {
				for i--; i >= 0; i-- {
					bit := int(b>>uint(i)) & 1
					price += probs[node].Price(bit)
					node = node<<1 | uint32(bit)
				}
				return price
			}
		}
		return price
	}
	for i := 7; i >= 0; i-- {
		bit := int(b>>uint(i)) & 1
		price += probs[node].Price(bit)
		node = node<<1 | uint32(bit)
	}
	return price
}

// TestLitPriceMatchesPerBit: the branch-free literal price equals the
// per-bit walk in both modes, for every byte against every match byte.
func TestLitPriceMatchesPerBit(t *testing.T) {
	const seed = 20261020
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	// Every byte value after a byte of each of the 8 literal contexts.
	var src []byte
	for ctx := 0; ctx < 8; ctx++ {
		for b := 0; b < 256; b++ {
			src = append(src, byte(ctx<<5), byte(b))
		}
	}
	o := newOptEncoder(New(), src)
	for _, probs := range o.m.literals {
		randomizeProbs(rng, probs)
	}
	for p := 1; p < len(src); p += 2 {
		for mb := 0; mb < 256; mb++ {
			for _, matched := range []bool{false, true} {
				probs := o.m.literals[litCtx(src, p)]
				if got, want := o.litPriceAt(p, matched, byte(mb)), litPriceBits(probs, src[p], matched, byte(mb)); got != want {
					t.Fatalf("pos %d byte %#x matched %v matchByte %#x: litPriceAt %d, per-bit %d", p, src[p], matched, mb, got, want)
				}
			}
		}
	}
}

// fillPricesPerSymbol is the per-symbol length price fill lenCoder's
// fillPrices replaces.
func fillPricesPerSymbol(lc *lenCoder, tab []uint32) {
	c0, c1 := lc.choice[0], lc.choice[1]
	for v := 0; v <= maxLenCode; v++ {
		switch {
		case v < 8:
			tab[v] = c0.Price(0) + lc.low.Price(uint32(v))
		case v < 16:
			tab[v] = c0.Price(1) + c1.Price(0) + lc.mid.Price(uint32(v-8))
		default:
			tab[v] = c0.Price(1) + c1.Price(1) + lc.high.Price(uint32(v-16))
		}
	}
}

// TestLenPricesMatchPerSymbol: the length coder's table from one walk per
// tree equals the per-symbol table on adapted models. The models adapt by
// coding random lengths, so every tree leaves its initial state.
func TestLenPricesMatchPerSymbol(t *testing.T) {
	const seed = 20261021
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	lc := newLenCoder()
	e := rangecoder.NewEncoder(1 << 12)
	got, want := make([]uint32, maxLenCode+1), make([]uint32, maxLenCode+1)
	for round := 0; round < 100; round++ {
		for i := 0; i < 50; i++ {
			lc.encode(e, uint32(rng.Intn(maxLenCode+1)>>rng.Intn(9)))
		}
		lc.fillPrices(got)
		fillPricesPerSymbol(lc, want)
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: fillPrices %v, per-symbol %v", round, got, want)
		}
	}
}
