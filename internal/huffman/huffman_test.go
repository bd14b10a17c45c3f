package huffman

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"positbench/internal/bitio"
)

func roundtrip(t *testing.T, freqs []int, data []int, maxBits int) {
	t.Helper()
	lengths, err := BuildLengths(freqs, maxBits)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range lengths {
		if int(l) > maxBits {
			t.Fatalf("length %d exceeds limit %d", l, maxBits)
		}
	}
	enc, err := NewEncoder(lengths)
	if err != nil {
		t.Fatal(err)
	}
	w := bitio.NewWriter(1024)
	if err := WriteLengths(w, lengths); err != nil {
		t.Fatal(err)
	}
	for _, s := range data {
		enc.Encode(w, s)
	}
	r := bitio.NewReader(w.Bytes())
	gotLengths, err := ReadLengths(r, len(freqs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range lengths {
		if gotLengths[i] != lengths[i] {
			t.Fatalf("length table mismatch at %d", i)
		}
	}
	dec, err := NewDecoder(gotLengths)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range data {
		got, err := dec.Decode(r)
		if err != nil {
			t.Fatalf("symbol %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("symbol %d: got %d want %d", i, got, want)
		}
	}
}

func TestBasicRoundtrip(t *testing.T) {
	freqs := []int{10, 1, 5, 0, 3}
	data := []int{0, 1, 2, 4, 0, 0, 2, 1, 4, 0}
	roundtrip(t, freqs, data, MaxBits)
}

func TestSingleSymbol(t *testing.T) {
	freqs := []int{0, 7, 0}
	data := []int{1, 1, 1, 1}
	roundtrip(t, freqs, data, MaxBits)
}

func TestTwoSymbols(t *testing.T) {
	roundtrip(t, []int{1000000, 1}, []int{0, 1, 0, 0, 1}, MaxBits)
}

func TestSkewedLengthLimit(t *testing.T) {
	// Fibonacci-like frequencies force deep trees; the limiter must clamp.
	freqs := make([]int, 30)
	a, b := 1, 1
	for i := range freqs {
		freqs[i] = a
		a, b = b, a+b
	}
	lengths, err := BuildLengths(freqs, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range lengths {
		if l > 8 {
			t.Fatalf("limit violated: %d", l)
		}
		if l == 0 {
			t.Fatal("nonzero freq got no code")
		}
	}
	data := make([]int, 500)
	rng := rand.New(rand.NewSource(1))
	for i := range data {
		data[i] = rng.Intn(30)
	}
	roundtrip(t, freqs, data, 8)
}

func TestLargeAlphabet(t *testing.T) {
	n := 1024
	freqs := make([]int, n)
	rng := rand.New(rand.NewSource(2))
	for i := range freqs {
		freqs[i] = rng.Intn(1000)
	}
	data := make([]int, 2000)
	for i := range data {
		for {
			s := rng.Intn(n)
			if freqs[s] > 0 {
				data[i] = s
				break
			}
		}
	}
	roundtrip(t, freqs, data, MaxBits)
}

func TestRandomRoundtripQuick(t *testing.T) {
	f := func(raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		freqs := make([]int, 256)
		for _, b := range raw {
			freqs[b]++
		}
		data := make([]int, len(raw))
		for i, b := range raw {
			data[i] = int(b)
		}
		lengths, err := BuildLengths(freqs, MaxBits)
		if err != nil {
			return false
		}
		enc, err := NewEncoder(lengths)
		if err != nil {
			return false
		}
		w := bitio.NewWriter(len(raw))
		for _, s := range data {
			enc.Encode(w, s)
		}
		dec, err := NewDecoder(lengths)
		if err != nil {
			return false
		}
		r := bitio.NewReader(w.Bytes())
		for _, want := range data {
			got, err := dec.Decode(r)
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestErrors(t *testing.T) {
	if _, err := BuildLengths(nil, MaxBits); err == nil {
		t.Fatal("empty alphabet")
	}
	if _, err := BuildLengths([]int{1}, 0); err == nil {
		t.Fatal("bad maxBits")
	}
	if _, err := BuildLengths(make([]int, 1<<16+1), 15); err == nil {
		t.Fatal("alphabet too large for limit")
	}
	// Over-subscribed table must be rejected.
	if _, err := NewDecoder([]uint8{1, 1, 1}); err == nil {
		t.Fatal("over-subscribed table accepted")
	}
	if err := WriteLengths(bitio.NewWriter(8), []uint8{16}); err == nil {
		t.Fatal("length 16 must be rejected by serializer")
	}
	// Truncated input to Decode.
	dec, err := NewDecoder([]uint8{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(bitio.NewReader(nil)); err == nil {
		t.Fatal("want EOF error")
	}
	// Zero-run overflow in ReadLengths.
	w := bitio.NewWriter(8)
	w.WriteBits(0, 4)
	w.WriteBits(255, 8)
	if _, err := ReadLengths(bitio.NewReader(w.Bytes()), 3); err == nil {
		t.Fatal("zero-run overflow accepted")
	}
	// A frequency too large to pack beside its symbol index is refused,
	// not mis-sorted; the largest one that fits is built.
	if _, err := BuildLengths([]int{1, maxFreq(2) + 1}, MaxBits); err == nil {
		t.Fatal("frequency above the packed-key limit accepted")
	}
	wide := make([]int, 256)
	wide[0], wide[255] = 1, maxFreq(256)+1
	if _, err := BuildLengths(wide, MaxBits); err == nil {
		t.Fatal("frequency above the 256-symbol packed-key limit accepted")
	}
	wide[255] = maxFreq(256)
	if lengths, err := BuildLengths(wide, MaxBits); err != nil || lengths[0] != 1 || lengths[255] != 1 {
		t.Fatalf("frequency at the packed-key limit: lengths %v, error %v", lengths, err)
	}
}

// TestBuildLengthsMatchesHeap: BuildLengths, which flattens its packed
// keys in place between passes, returns the heap's lengths after the same
// flattening of the frequencies.
func TestBuildLengthsMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(20261018))
	for i := 0; i < 2000; i++ {
		freqs := oracleHistogram(rng)
		got, err := BuildLengths(freqs, MaxBits)
		if err != nil {
			t.Fatal(err)
		}
		work := slices.Clone(freqs)
		want, wantMax := buildOnceHeap(work)
		for wantMax > MaxBits {
			for j, f := range work {
				if f > 0 {
					work[j] = (f + 1) / 2
				}
			}
			want, wantMax = buildOnceHeap(work)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("table %d %v: BuildLengths %v, heap %v", i, freqs, got, want)
		}
	}
}

// TestBuildLengthsAllocs: on a 256-symbol table deep enough to take
// flattening retries, BuildLengths allocates only the lengths it returns.
func TestBuildLengthsAllocs(t *testing.T) {
	freqs := make([]int, 256)
	for i := range freqs {
		freqs[i] = 1 << min(i, 40)
	}
	n := testing.AllocsPerRun(100, func() {
		if _, err := BuildLengths(freqs, MaxBits); err != nil {
			t.Fatal(err)
		}
	})
	if n != 1 {
		t.Fatalf("BuildLengths on 256 symbols allocates %v times per call, want 1", n)
	}
}

func TestOptimality(t *testing.T) {
	// For a dyadic distribution, Huffman must achieve exactly the entropy.
	freqs := []int{8, 4, 2, 1, 1}
	lengths, err := BuildLengths(freqs, MaxBits)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint8{1, 2, 3, 4, 4}
	for i := range want {
		if lengths[i] != want[i] {
			t.Fatalf("lengths = %v, want %v", lengths, want)
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	data := make([]int, 1<<16)
	freqs := make([]int, 256)
	for i := range data {
		s := rng.Intn(64) // skewed
		data[i] = s
		freqs[s]++
	}
	lengths, _ := BuildLengths(freqs, MaxBits)
	enc, _ := NewEncoder(lengths)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := bitio.NewWriter(len(data))
		for _, s := range data {
			enc.Encode(w, s)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	data := make([]int, 1<<16)
	freqs := make([]int, 256)
	for i := range data {
		s := rng.Intn(64)
		data[i] = s
		freqs[s]++
	}
	lengths, _ := BuildLengths(freqs, MaxBits)
	enc, _ := NewEncoder(lengths)
	w := bitio.NewWriter(len(data))
	for _, s := range data {
		enc.Encode(w, s)
	}
	buf := w.Bytes()
	dec, _ := NewDecoder(lengths)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := bitio.NewReader(buf)
		for range data {
			if _, err := dec.Decode(r); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// buildOnce is one pass of BuildLengths with no length limit: the lengths
// of the unlimited Huffman tree over freqs, and its depth.
func buildOnce(freqs []int) ([]uint8, int) {
	n := len(freqs)
	keys, shift, err := packKeys(freqs, make([]uint64, n))
	if err != nil {
		panic(err)
	}
	lengths := make([]uint8, n)
	return lengths, buildTree(keys, shift, lengths, make([]uint64, n), make([]int32, 2*n))
}

// buildOnceHeap is the min-heap construction buildOnce replaced, kept as
// its oracle: nodes pop in (freq, order) order, where a leaf's order is its
// symbol and a merged node's continues from len(freqs).
func buildOnceHeap(freqs []int) ([]uint8, int) {
	n := len(freqs)
	lengths := make([]uint8, n)
	h := &nodeHeap{}
	for i, f := range freqs {
		if f > 0 {
			h.nodes = append(h.nodes, node{freq: f, sym: i, left: -1, right: -1, order: i})
			h.idx = append(h.idx, len(h.nodes)-1)
		}
	}
	switch len(h.idx) {
	case 0:
		return lengths, 0
	case 1:
		lengths[h.nodes[h.idx[0]].sym] = 1
		return lengths, 1
	}
	heap.Init(h)
	order := n
	for h.Len() > 1 {
		a := heap.Pop(h).(int)
		b := heap.Pop(h).(int)
		h.nodes = append(h.nodes, node{
			freq: h.nodes[a].freq + h.nodes[b].freq,
			sym:  -1, left: a, right: b, order: order,
		})
		order++
		heap.Push(h, len(h.nodes)-1)
	}
	root := h.idx[0]
	// Iterative depth assignment.
	type frame struct {
		node, depth int
	}
	stack := []frame{{root, 0}}
	maxLen := 0
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := h.nodes[fr.node]
		if nd.sym >= 0 {
			lengths[nd.sym] = uint8(fr.depth)
			if fr.depth > maxLen {
				maxLen = fr.depth
			}
			continue
		}
		stack = append(stack, frame{nd.left, fr.depth + 1}, frame{nd.right, fr.depth + 1})
	}
	return lengths, maxLen
}

type node struct {
	freq        int
	sym         int // >= 0 for leaves, -1 for internal
	left, right int // node indices
	order       int // tie-break for determinism
}

type nodeHeap struct {
	nodes []node
	idx   []int
}

func (h *nodeHeap) Len() int { return len(h.idx) }
func (h *nodeHeap) Less(i, j int) bool {
	a, b := h.nodes[h.idx[i]], h.nodes[h.idx[j]]
	if a.freq != b.freq {
		return a.freq < b.freq
	}
	return a.order < b.order
}
func (h *nodeHeap) Swap(i, j int)      { h.idx[i], h.idx[j] = h.idx[j], h.idx[i] }
func (h *nodeHeap) Push(x interface{}) { h.idx = append(h.idx, x.(int)) }
func (h *nodeHeap) Pop() interface{} {
	old := h.idx
	n := len(old)
	x := old[n-1]
	h.idx = old[:n-1]
	return x
}

// oracleHistogram draws one frequency table of 2-300 symbols from one of
// the shapes that stress tie-breaking and depth: few distinct values (many
// ties), a single dominant symbol, geometric and Fibonacci weights (trees
// deeper than MaxBits), plain uniform counts, and 256 symbols within a
// factor of two of the packed-key limit, where the frequency fills every
// key bit above the symbol's. Some entries are zero.
func oracleHistogram(rng *rand.Rand) []int {
	n := 2 + rng.Intn(299)
	freqs := make([]int, n)
	deep := 16 + rng.Intn(9) // levels past MaxBits, so BuildLengths retries
	switch rng.Intn(6) {
	case 0: // many ties
		vals := 1 + rng.Intn(4)
		for i := range freqs {
			freqs[i] = rng.Intn(vals + 1)
		}
	case 1: // one dominant symbol over a sparse tail
		for i := range freqs {
			freqs[i] = rng.Intn(3)
		}
		freqs[rng.Intn(n)] = 1 << (10 + rng.Intn(20))
	case 2: // geometric, ratio 2 or 3: a tree up to 23 deep
		w := 1
		for i := 0; i < min(n, deep); i++ {
			freqs[i] = w
			w *= 2 + rng.Intn(2)
		}
	case 3: // Fibonacci: as deep, with sums tying leaves
		a, b := 1, 1
		for i := 0; i < min(n, deep); i++ {
			freqs[i] = a
			a, b = b, a+b
		}
	case 4:
		n, freqs = 256, make([]int, 256)
		limit := maxFreq(n)
		for i := range freqs {
			switch rng.Intn(4) {
			case 0: // zero
			case 1: // ties at the very top, broken by the symbol bits
				freqs[i] = limit - rng.Intn(3)
			default:
				freqs[i] = limit - int(rng.Int63n(int64(limit/2)))
			}
		}
	default:
		for i := range freqs {
			freqs[i] = rng.Intn(1000)
		}
	}
	rng.Shuffle(n, func(i, j int) { freqs[i], freqs[j] = freqs[j], freqs[i] })
	return freqs
}

// TestBuildOnceMatchesHeap: the two-queue merge yields the heap's lengths
// and depth on every table BuildLengths would build, including each
// flattened retry of a table deeper than MaxBits.
func TestBuildOnceMatchesHeap(t *testing.T) {
	const seed = 20261017
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	tables, retries := 0, 0
	for i := 0; i < 20000; i++ {
		work := oracleHistogram(rng)
		for {
			got, gotMax := buildOnce(work)
			want, wantMax := buildOnceHeap(work)
			tables++
			if gotMax != wantMax || !slices.Equal(got, want) {
				t.Fatalf("table %d %v: two-queue lengths %v (max %d), heap %v (max %d)", i, work, got, gotMax, want, wantMax)
			}
			if gotMax <= MaxBits {
				break
			}
			retries++
			for j, f := range work {
				if f > 0 {
					work[j] = (f + 1) / 2
				}
			}
		}
	}
	if retries == 0 {
		t.Fatal("no table was deeper than MaxBits; the retry path went unchecked")
	}
	t.Logf("%d tables agree, %d of them flattened retries", tables, retries)
}
