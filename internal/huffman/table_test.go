package huffman

import (
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"positbench/internal/bitio"
)

// deepLengths builds a table whose longest codes exceed rootBits, so Decode
// must exercise the canonical-walk fallback. Fibonacci frequencies give a
// maximally skewed tree.
func deepLengths(t *testing.T) []uint8 {
	t.Helper()
	freqs := make([]int, 24)
	a, b := 1, 1
	for i := range freqs {
		freqs[i] = a
		a, b = b, a+b
	}
	lengths, err := BuildLengths(freqs, MaxBits)
	if err != nil {
		t.Fatal(err)
	}
	maxLen := uint8(0)
	for _, l := range lengths {
		if l > maxLen {
			maxLen = l
		}
	}
	if int(maxLen) <= rootBits {
		t.Fatalf("test premise broken: maxLen %d does not exceed rootBits %d", maxLen, rootBits)
	}
	return lengths
}

// TestDecodeFastSlowAgree decodes the same stream with the table fast path
// and with the canonical walk alone, symbol by symbol.
func TestDecodeFastSlowAgree(t *testing.T) {
	lengths := deepLengths(t)
	enc, err := NewEncoder(lengths)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	data := make([]int, 4096)
	for i := range data {
		// Skew toward low symbols (short codes) but hit every symbol so both
		// the root table and the fallback fire.
		data[i] = rng.Intn(rng.Intn(len(lengths)) + 1)
	}
	w := bitio.NewWriter(4096)
	for _, s := range data {
		enc.Encode(w, s)
	}
	dec, err := NewDecoder(lengths)
	if err != nil {
		t.Fatal(err)
	}
	fast := bitio.NewReader(w.Bytes())
	slow := bitio.NewReader(w.Bytes())
	for i, want := range data {
		gf, err := dec.Decode(fast)
		if err != nil {
			t.Fatalf("fast symbol %d: %v", i, err)
		}
		gs, err := dec.decodeSlow(slow)
		if err != nil {
			t.Fatalf("slow symbol %d: %v", i, err)
		}
		if gf != want || gs != want {
			t.Fatalf("symbol %d: fast=%d slow=%d want %d", i, gf, gs, want)
		}
	}
}

// TestDecodeTruncatedLongCode feeds the decoder a prefix of a long code so
// the zero-padded peek matches nothing valid and the walk must report EOF
// or corruption, never a bogus symbol.
func TestDecodeTruncatedLongCode(t *testing.T) {
	lengths := deepLengths(t)
	enc, err := NewEncoder(lengths)
	if err != nil {
		t.Fatal(err)
	}
	deepest := 0
	for i, l := range lengths {
		if l > lengths[deepest] {
			deepest = i
		}
	}
	w := bitio.NewWriter(8)
	enc.Encode(w, deepest)
	full := w.Bytes()
	dec, err := NewDecoder(lengths)
	if err != nil {
		t.Fatal(err)
	}
	// Whole code decodes; any strict byte-prefix must fail cleanly. (The
	// deepest code spans >8 bits, so every proper byte prefix truncates it.)
	if got, err := dec.Decode(bitio.NewReader(full)); err != nil || got != deepest {
		t.Fatalf("full: got %d,%v want %d", got, err, deepest)
	}
	for cut := 0; cut < len(full); cut++ {
		if _, err := dec.Decode(bitio.NewReader(full[:cut])); err == nil {
			t.Fatalf("prefix of %d bytes decoded without error", cut)
		}
	}
}

// TestDecodeNoAllocs locks in the zero-allocation steady state of table
// decode (satellite allocation-regression gate).
func TestDecodeNoAllocs(t *testing.T) {
	freqs := make([]int, 256)
	rng := rand.New(rand.NewSource(22))
	data := make([]int, 8192)
	for i := range data {
		s := rng.Intn(64)
		data[i] = s
		freqs[s]++
	}
	lengths, err := BuildLengths(freqs, MaxBits)
	if err != nil {
		t.Fatal(err)
	}
	enc, _ := NewEncoder(lengths)
	w := bitio.NewWriter(len(data))
	for _, s := range data {
		enc.Encode(w, s)
	}
	buf := w.Bytes()
	dec, _ := NewDecoder(lengths)
	r := bitio.NewReader(buf)
	n := testing.AllocsPerRun(50, func() {
		r.Reset(buf)
		for range data {
			if _, err := dec.Decode(r); err != nil {
				t.Fatal(err)
			}
		}
	})
	if n != 0 {
		t.Fatalf("Decode allocates %v per run, want 0", n)
	}
}

// newDecoderSorted is the NewDecoder that one walk over the canonical codes
// replaced, kept as its oracle: it sorts the symbols by (length, symbol)
// with a comparator, derives the first code and first rank of each length
// in a second walk, and fills the root table in a third.
func newDecoderSorted(lengths []uint8) (*Decoder, error) {
	if _, _, _, err := canonicalCodes(lengths); err != nil {
		return nil, err
	}
	maxLen := uint8(0)
	for _, l := range lengths {
		maxLen = max(maxLen, l)
	}
	d := &Decoder{
		maxLen:    maxLen,
		firstCode: make([]uint32, maxLen+1),
		firstSym:  make([]int, maxLen+1),
		counts:    make([]int, maxLen+1),
	}
	type symLen struct {
		sym int
		l   uint8
	}
	var sl []symLen
	for sym, l := range lengths {
		if l > 0 {
			sl = append(sl, symLen{sym, l})
			d.counts[l]++
		}
	}
	sort.Slice(sl, func(i, j int) bool {
		if sl[i].l != sl[j].l {
			return sl[i].l < sl[j].l
		}
		return sl[i].sym < sl[j].sym
	})
	for _, s := range sl {
		d.syms = append(d.syms, s.sym)
	}
	code := uint32(0)
	symIdx := 0
	for l := uint8(1); l <= maxLen; l++ {
		if l > 1 {
			code = (code + uint32(d.counts[l-1])) << 1
		}
		d.firstCode[l] = code
		d.firstSym[l] = symIdx
		symIdx += d.counts[l]
	}
	if d.maxLen == 0 || len(lengths) > 1<<28 {
		return d, nil
	}
	rb := min(uint(d.maxLen), rootBits)
	d.rootBits = rb
	d.root = make([]uint32, 1<<rb)
	code, symIdx = 0, 0
	for l := uint8(1); l <= d.maxLen; l++ {
		if l > 1 {
			code = (code + uint32(d.counts[l-1])) << 1
		}
		if uint(l) <= rb {
			span := uint(1) << (rb - uint(l))
			for i := 0; i < d.counts[l]; i++ {
				entry := uint32(d.syms[symIdx+i])<<4 | uint32(l)
				base := uint(code+uint32(i)) << (rb - uint(l))
				for j := range d.root[base : base+span] {
					d.root[base+uint(j)] = entry
				}
			}
		}
		symIdx += d.counts[l]
	}
	return d, nil
}

// TestNewDecoderMatchesSorted: the one-walk NewDecoder builds the same
// root table, first codes, first ranks, symbol order and counts as the
// sorting oracle, and rejects the same tables. The tables are BuildLengths
// output at limits from 9 to 20 bits (so codes longer than rootBits, and
// maxLen 15, the default limit), one-symbol and empty tables, and random
// length tables, incomplete or over-subscribed.
func TestNewDecoderMatchesSorted(t *testing.T) {
	const seed = 20261021
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	var tables [][]uint8
	for trial := 0; trial < 300; trial++ {
		freqs := oracleHistogram(rng)
		maxBits := []int{9, 11, 12, MaxBits, 17, 20}[trial%6]
		lengths, err := BuildLengths(freqs, maxBits)
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, lengths)
	}
	for n := 1; n < 300; n += 37 {
		one := make([]uint8, n)
		one[rng.Intn(n)] = 1
		tables = append(tables, one, make([]uint8, n))
	}
	for trial := 0; trial < 300; trial++ {
		lengths := make([]uint8, 1+rng.Intn(300))
		// From bits.Len(n) up, no table can be over-subscribed; from 1 up,
		// most are.
		lo := 1
		if trial%2 == 0 {
			lo = bits.Len(uint(len(lengths)))
		}
		for i := range lengths {
			if rng.Intn(3) > 0 {
				lengths[i] = uint8(lo + rng.Intn(17-lo))
			}
		}
		tables = append(tables, lengths)
	}
	sawLong, sawFifteen, rejected := false, false, 0
	for i, lengths := range tables {
		got, gerr := NewDecoder(lengths)
		want, werr := newDecoderSorted(lengths)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("table %d: error %v, oracle %v", i, gerr, werr)
		}
		if gerr != nil {
			rejected++
			continue
		}
		if got.maxLen != want.maxLen || got.rootBits != want.rootBits ||
			!slices.Equal(got.root, want.root) || !slices.Equal(got.firstCode, want.firstCode) ||
			!slices.Equal(got.firstSym, want.firstSym) || !slices.Equal(got.syms, want.syms) ||
			!slices.Equal(got.counts, want.counts) {
			t.Fatalf("table %d (%d symbols, maxLen %d): decoder tables differ from the sorting oracle", i, len(lengths), want.maxLen)
		}
		sawLong = sawLong || got.maxLen > rootBits
		sawFifteen = sawFifteen || got.maxLen == MaxBits
	}
	t.Logf("%d tables, %d rejected by both", len(tables), rejected)
	if !sawLong || !sawFifteen {
		t.Fatalf("no table with codes past rootBits (%v) or maxLen %d (%v)", sawLong, MaxBits, sawFifteen)
	}
}
