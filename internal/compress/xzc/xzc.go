// Package xzc implements the xz-class codec: a large-window (8 MiB) LZ77
// parse entropy-coded with an adaptive binary range coder using LZMA's
// context models (literal coders keyed on the previous byte, length coders
// with low/mid/high trees, distance slots with aligned footer bits, and a
// repeated-distance register). The combination of a big dictionary and
// context-modelled arithmetic coding is why XZ wins in the paper.
package xzc

import (
	"fmt"
	"math/bits"
	"time"

	"positbench/internal/bitio"
	"positbench/internal/compress"
	"positbench/internal/lz77"
	"positbench/internal/rangecoder"
	"positbench/internal/trace"
)

const (
	defaultWindow = 8 << 20
	minMatch      = lz77.MinMatch // regular matches
	minRepMatch   = 2             // rep0 matches may be shorter
	lenBase       = 2             // lengths are coded as len-lenBase, 0..271
	maxLenCode    = 271
	numSlots      = 64
	alignBits     = 4
	posStates     = 4 // pb=2: contexts keyed on pos&3, matching xz defaults
)

// Codec is the xz-class compressor.
type Codec struct {
	window int
	depth  int
}

// New returns a codec at maximum-effort settings (`xz -9`-like).
func New() *Codec { return &Codec{window: defaultWindow, depth: 128} }

// NewParams returns a codec with explicit window and search depth.
func NewParams(window, depth int) *Codec { return &Codec{window: window, depth: depth} }

// Name implements compress.Codec.
func (c *Codec) Name() string { return "xz" }

// Info implements compress.Describer.
func (c *Codec) Info() compress.Info {
	return compress.Info{Name: "xz", Version: "lzma-rc", Source: "models XZ 5.4.1 -9 (LZMA: 8 MiB dictionary + range coder)"}
}

// models holds every adaptive context; encoder and decoder must construct
// and update them identically.
type models struct {
	isMatch  []rangecoder.Prob   // [2*4]: context = (previous op was a match, pos&3)
	isRep    []rangecoder.Prob   // [4]: [0] rep vs new distance, [1..3] the rep-index tree
	literals [][]rangecoder.Prob // 0x300 probs per context (LZMA literal coder)
	lenCoder *lenCoder
	repLen   *lenCoder
	slots    []*rangecoder.BitTree // [4] by length context
	specPos  []*rangecoder.BitTree // per slot 4..13: reverse footer trees
	align    *rangecoder.BitTree
}

func newModels() *models {
	m := &models{
		isMatch:  rangecoder.NewProbs(2 * posStates),
		isRep:    rangecoder.NewProbs(4),
		lenCoder: newLenCoder(),
		repLen:   newLenCoder(),
		align:    rangecoder.NewBitTree(alignBits),
	}
	m.literals = make([][]rangecoder.Prob, 8)
	for i := range m.literals {
		m.literals[i] = rangecoder.NewProbs(0x300)
	}
	m.slots = make([]*rangecoder.BitTree, 4)
	for i := range m.slots {
		m.slots[i] = rangecoder.NewBitTree(6)
	}
	m.specPos = make([]*rangecoder.BitTree, 14)
	for slot := 4; slot < 14; slot++ {
		m.specPos[slot] = rangecoder.NewBitTree(uint(slot/2 - 1))
	}
	return m
}

// lenCoder is LZMA's three-range length model: 0-7 (low tree), 8-15 (mid
// tree), 16-271 (high tree).
type lenCoder struct {
	choice []rangecoder.Prob // [2]
	low    *rangecoder.BitTree
	mid    *rangecoder.BitTree
	high   *rangecoder.BitTree
}

func newLenCoder() *lenCoder {
	return &lenCoder{
		choice: rangecoder.NewProbs(2),
		low:    rangecoder.NewBitTree(3),
		mid:    rangecoder.NewBitTree(3),
		high:   rangecoder.NewBitTree(8),
	}
}

func (lc *lenCoder) encode(e *rangecoder.Encoder, v uint32) {
	switch {
	case v < 8:
		e.EncodeBit(&lc.choice[0], 0)
		lc.low.Encode(e, v)
	case v < 16:
		e.EncodeBit(&lc.choice[0], 1)
		e.EncodeBit(&lc.choice[1], 0)
		lc.mid.Encode(e, v-8)
	default:
		e.EncodeBit(&lc.choice[0], 1)
		e.EncodeBit(&lc.choice[1], 1)
		lc.high.Encode(e, v-16)
	}
}

func (lc *lenCoder) decode(d *rangecoder.Decoder) uint32 {
	if d.DecodeBit(&lc.choice[0]) == 0 {
		return lc.low.Decode(d)
	}
	if d.DecodeBit(&lc.choice[1]) == 0 {
		return lc.mid.Decode(d) + 8
	}
	return lc.high.Decode(d) + 16
}

// lenToCtx selects the distance-slot tree from the match length.
func lenToCtx(mlen int) int {
	c := mlen - lenBase
	if c > 3 {
		c = 3
	}
	return c
}

// distSlot computes the LZMA position slot of d1 = dist-1.
func distSlot(d1 uint32) int {
	if d1 < 4 {
		return int(d1)
	}
	n := bits.Len32(d1) - 1
	return n<<1 | int(d1>>(n-1)&1)
}

func encodeDistance(e *rangecoder.Encoder, m *models, lenCtx int, dist int) {
	d1 := uint32(dist - 1)
	slot := distSlot(d1)
	m.slots[lenCtx].Encode(e, uint32(slot))
	if slot < 4 {
		return
	}
	nb := uint(slot/2 - 1)
	base := uint32(2|slot&1) << nb
	rest := d1 - base
	if slot < 14 {
		m.specPos[slot].EncodeReverse(e, rest)
		return
	}
	e.EncodeDirect(rest>>alignBits, nb-alignBits)
	m.align.EncodeReverse(e, rest&(1<<alignBits-1))
}

func decodeDistance(d *rangecoder.Decoder, m *models, lenCtx int) int {
	slot := int(m.slots[lenCtx].Decode(d))
	if slot < 4 {
		return slot + 1
	}
	nb := uint(slot/2 - 1)
	base := uint32(2|slot&1) << nb
	var rest uint32
	if slot < 14 {
		rest = m.specPos[slot].DecodeReverse(d)
	} else {
		rest = d.DecodeDirect(nb-alignBits) << alignBits
		rest |= m.align.DecodeReverse(d)
	}
	return int(base+rest) + 1
}

// encodeRepIndex codes which of the four cached distances is reused,
// using LZMA's unary tree (index 0 is cheapest).
func encodeRepIndex(e *rangecoder.Encoder, m *models, idx int) {
	if idx == 0 {
		e.EncodeBit(&m.isRep[1], 0)
		return
	}
	e.EncodeBit(&m.isRep[1], 1)
	if idx == 1 {
		e.EncodeBit(&m.isRep[2], 0)
		return
	}
	e.EncodeBit(&m.isRep[2], 1)
	e.EncodeBit(&m.isRep[3], idx-2)
}

func decodeRepIndex(d *rangecoder.Decoder, m *models) int {
	if d.DecodeBit(&m.isRep[1]) == 0 {
		return 0
	}
	if d.DecodeBit(&m.isRep[2]) == 0 {
		return 1
	}
	return 2 + d.DecodeBit(&m.isRep[3])
}

func litCtx(src []byte, pos int) int {
	if pos == 0 {
		return 0
	}
	return int(src[pos-1] >> 5)
}

// encodeLiteral codes b under the LZMA literal model. When the previous
// operation was a match, the byte at the last match distance (matchByte)
// steers the probability tree bitwise until the first mismatch — the
// "matched literal" mode that exploits strided similarity in binary data.
// Both modes keep the range state in registers across the eight bits.
func encodeLiteral(e *rangecoder.Encoder, probs []rangecoder.Prob, b byte, matched bool, matchByte byte) {
	if matched {
		e.EncodeTreeMatched(probs, b, matchByte)
		return
	}
	e.EncodeTree(probs, 8, uint32(b))
}

// decodeLiteral mirrors encodeLiteral.
func decodeLiteral(d *rangecoder.Decoder, probs []rangecoder.Prob, matched bool, matchByte byte) byte {
	// Both modes use the register-local batch walks so the range state stays
	// out of memory across all eight bits.
	if matched {
		return byte(d.DecodeTreeMatched(probs, matchByte))
	}
	return byte(d.DecodeTree(probs, 8))
}

// Compress implements compress.Codec using a chunked price-based optimal
// parse (LZMA's GetOptimum approach): within each horizon, dynamic
// programming over literal / rep-match / fresh-match transitions priced
// from the live adaptive probabilities chooses the cheapest encoding; only
// a prefix of each horizon is emitted so boundary truncation never affects
// the output.
func (c *Codec) Compress(src []byte) ([]byte, error) {
	return c.compress(src, nil)
}

// CompressAppendTrace implements compress.TracedCompressor: same output as
// Compress, plus model-init / opt-parse / rc-finish stage spans on sp.
func (c *Codec) CompressAppendTrace(dst, src []byte, sp *trace.Span) ([]byte, error) {
	out, err := c.compress(src, sp)
	if err != nil {
		return nil, err
	}
	return append(dst, out...), nil
}

func (c *Codec) compress(src []byte, sp *trace.Span) ([]byte, error) {
	out := bitio.PutUvarint(nil, uint64(len(src)))
	if len(src) == 0 {
		return out, nil
	}
	var t0 time.Time
	if sp != nil {
		t0 = time.Now()
	}
	enc := newOptEncoder(c, src)
	if sp != nil {
		sp.AddStage("model-init", time.Since(t0), int64(len(src)), 0)
		t0 = time.Now()
	}
	if err := enc.run(); err != nil {
		return nil, err
	}
	if sp != nil {
		sp.AddStage("opt-parse", time.Since(t0), int64(len(src)), 0)
		t0 = time.Now()
	}
	out = append(out, enc.e.Finish()...)
	if sp != nil {
		sp.AddStage("rc-finish", time.Since(t0), 0, int64(len(out)))
	}
	return out, nil
}

const (
	optHorizon = 512 // DP window per chunk
	optEmit    = 384 // emitted prefix per chunk (rest re-parsed)
	niceLen    = 128 // matches this long are taken greedily
	costInf    = ^uint32(0)
)

type optEncoder struct {
	c         *Codec
	src       []byte
	e         *rangecoder.Encoder
	m         *models
	matcher   *lz77.Matcher
	reps      [4]int
	prevMatch int
	pos       int
	inserted  int // matcher watermark

	// per-chunk DP state
	cost      []uint32
	from      []int32
	dist      []int32 // 0 = literal
	rep0s     []int32 // most recent match distance along the best path
	matchBuf  []lz77.Match
	ops       []op     // the backtracked path, reused across horizons
	lenTab    []uint32 // fresh-match length prices (index len-lenBase)
	repLenTab []uint32
}

// op is one step of a horizon's cheapest path: a literal (dist 0) or a
// match at horizon offset at.
type op struct {
	at, len int
	dist    int
}

func newOptEncoder(c *Codec, src []byte) *optEncoder {
	return &optEncoder{
		c:         c,
		src:       src,
		e:         rangecoder.NewEncoder(len(src)/2 + 64),
		m:         newModels(),
		matcher:   lz77.NewMatcher(src, c.window, c.depth),
		reps:      [4]int{1, 2, 3, 4},
		cost:      make([]uint32, optHorizon+1),
		from:      make([]int32, optHorizon+1),
		dist:      make([]int32, optHorizon+1),
		rep0s:     make([]int32, optHorizon+1),
		lenTab:    make([]uint32, maxLenCode+1),
		repLenTab: make([]uint32, maxLenCode+1),
	}
}

func (o *optEncoder) ensureInserted(through int) {
	if through > len(o.src) {
		through = len(o.src)
	}
	if through > o.inserted {
		o.matcher.InsertRange(o.inserted, through)
		o.inserted = through
	}
}

// emitLiteral encodes the literal at o.pos and advances.
func (o *optEncoder) emitLiteral() {
	e, m, src, pos := o.e, o.m, o.src, o.pos
	e.EncodeBit(&m.isMatch[o.prevMatch*posStates+pos&3], 0)
	var matchByte byte
	matched := o.prevMatch == 1 && o.reps[0] <= pos
	if matched {
		matchByte = src[pos-o.reps[0]]
	}
	encodeLiteral(e, m.literals[litCtx(src, pos)], src[pos], matched, matchByte)
	o.prevMatch = 0
	o.pos++
}

// emitMatch encodes a match, choosing the rep form when dist is cached.
func (o *optEncoder) emitMatch(dist, length int) {
	e, m := o.e, o.m
	e.EncodeBit(&m.isMatch[o.prevMatch*posStates+o.pos&3], 1)
	repIdx := -1
	for i, r := range o.reps {
		if r == dist {
			repIdx = i
			break
		}
	}
	if repIdx >= 0 {
		e.EncodeBit(&m.isRep[0], 1)
		encodeRepIndex(e, m, repIdx)
		m.repLen.encode(e, uint32(length-lenBase))
		copy(o.reps[1:repIdx+1], o.reps[:repIdx])
		o.reps[0] = dist
	} else {
		e.EncodeBit(&m.isRep[0], 0)
		m.lenCoder.encode(e, uint32(length-lenBase))
		encodeDistance(e, m, lenToCtx(length), dist)
		o.reps[3], o.reps[2], o.reps[1], o.reps[0] = o.reps[2], o.reps[1], o.reps[0], dist
	}
	o.prevMatch = 1
	o.pos += length
}

// litPriceAt prices the literal at absolute position p. When the previous
// op on the path was a match, the literal is coded in matched mode and its
// price depends on the byte at the path's rep0 distance. Both modes walk
// the contexts EncodeTree and EncodeTreeMatched code: in matched mode,
// offs is 0x100 until the first bit that differs from matchByte and 0 from
// there on, so no branch depends on the bits.
func (o *optEncoder) litPriceAt(p int, matched bool, matchByte byte) uint32 {
	probs := o.m.literals[litCtx(o.src, p)][:0x300]
	s := uint32(o.src[p]) | 0x100 // s>>8 is the node; bit 7 is the next bit
	price := uint32(0)
	if matched {
		offs := uint32(0x100)
		match := uint32(matchByte)
		for s < 0x10000 {
			match <<= 1
			price += probs[offs+match&offs+s>>8].Price(int(s >> 7 & 1))
			s <<= 1
			offs &^= match ^ s
		}
		return price
	}
	// The plain walk's nodes are prefixes of the byte, known up front, so
	// the eight lookups are independent of each other.
	return probs[s>>8].Price(int(s>>7&1)) +
		probs[s>>7].Price(int(s>>6&1)) +
		probs[s>>6].Price(int(s>>5&1)) +
		probs[s>>5].Price(int(s>>4&1)) +
		probs[s>>4].Price(int(s>>3&1)) +
		probs[s>>3].Price(int(s>>2&1)) +
		probs[s>>2].Price(int(s>>1&1)) +
		probs[s>>1].Price(int(s&1))
}

// fillPrices writes the price of every length code v (0..maxLenCode) to
// tab[v]: the choice bits plus one walk of each tree.
func (lc *lenCoder) fillPrices(tab []uint32) {
	c0, c1 := lc.choice[0], lc.choice[1]
	lc.low.FillPrices(tab[:8], c0.Price(0))
	lc.mid.FillPrices(tab[8:16], c0.Price(1)+c1.Price(0))
	lc.high.FillPrices(tab[16:maxLenCode+1], c0.Price(1)+c1.Price(1))
}

func (o *optEncoder) repIndexPrice(idx int) uint32 {
	m := o.m
	switch idx {
	case 0:
		return m.isRep[1].Price(0)
	case 1:
		return m.isRep[1].Price(1) + m.isRep[2].Price(0)
	case 2:
		return m.isRep[1].Price(1) + m.isRep[2].Price(1) + m.isRep[3].Price(0)
	default:
		return m.isRep[1].Price(1) + m.isRep[2].Price(1) + m.isRep[3].Price(1)
	}
}

func (o *optEncoder) distPrice(lenCtx, dist int) uint32 {
	m := o.m
	d1 := uint32(dist - 1)
	slot := distSlot(d1)
	price := m.slots[lenCtx].Price(uint32(slot))
	if slot < 4 {
		return price
	}
	nb := uint(slot/2 - 1)
	rest := d1 - uint32(2|slot&1)<<nb
	if slot < 14 {
		return price + m.specPos[slot].PriceReverse(rest)
	}
	return price + rangecoder.DirectPrice(nb-alignBits) + m.align.PriceReverse(rest&(1<<alignBits-1))
}

// run drives the chunked optimal parse over the whole input.
func (o *optEncoder) run() error {
	src := o.src
	for o.pos < len(src) {
		// Greedy shortcut: take very long matches immediately.
		if o.takeNiceMatch() {
			continue
		}
		o.parseChunk()
	}
	return nil
}

// takeNiceMatch emits a match greedily if one of at least niceLen bytes is
// available at the current position, returning whether it did.
func (o *optEncoder) takeNiceMatch() bool {
	pos, src := o.pos, o.src
	maxL := len(src) - pos
	if maxL > maxLenCode+lenBase {
		maxL = maxLenCode + lenBase
	}
	if maxL < niceLen {
		return false
	}
	o.ensureInserted(pos + 1)
	bestDist, bestLen := 0, 0
	for _, r := range o.reps {
		if r <= pos {
			if l := lz77.MatchLen(src, pos-r, pos, maxL); l > bestLen {
				bestDist, bestLen = r, l
			}
		}
	}
	if bestLen < niceLen {
		if d, l := o.matcher.FindMatch(pos, maxL); l > bestLen {
			bestDist, bestLen = d, l
		}
	}
	if bestLen < niceLen {
		return false
	}
	o.ensureInserted(pos + bestLen)
	o.emitMatch(bestDist, bestLen)
	return true
}

// parseChunk runs the DP over one horizon and emits the chosen prefix.
func (o *optEncoder) parseChunk() {
	src, m := o.src, o.m
	pos := o.pos
	h := optHorizon
	if rem := len(src) - pos; rem < h {
		h = rem
	}
	o.ensureInserted(pos + h)
	cost, from, dist, rep0s := o.cost, o.from, o.dist, o.rep0s
	for i := 0; i <= h; i++ {
		cost[i] = costInf
	}
	cost[0] = 0
	from[0], dist[0] = -1, 0
	rep0s[0] = int32(o.reps[0])
	o.m.lenCoder.fillPrices(o.lenTab)
	o.m.repLen.fillPrices(o.repLenTab)

	for i := 0; i < h; i++ {
		ci := cost[i]
		if ci == costInf {
			continue
		}
		p := pos + i
		pm := 0
		if i > 0 && dist[i] != 0 {
			pm = 1
		} else if i == 0 {
			pm = o.prevMatch
		}
		psCtx := pm*posStates + p&3
		// Literal.
		litMatched := pm == 1 && int(rep0s[i]) <= p
		var mb byte
		if litMatched {
			mb = src[p-int(rep0s[i])]
		}
		if lp := ci + m.isMatch[psCtx].Price(0) + o.litPriceAt(p, litMatched, mb); lp < cost[i+1] {
			cost[i+1] = lp
			from[i+1] = int32(i)
			dist[i+1] = 0
			rep0s[i+1] = rep0s[i]
		}
		maxL := h - i
		if maxL > maxLenCode+lenBase {
			maxL = maxLenCode + lenBase
		}
		if maxL < minRepMatch {
			continue
		}
		matchBase := ci + m.isMatch[psCtx].Price(1)
		// Rep candidates: the path's own rep0 plus the chunk-entry cache
		// (emission re-resolves the exact form; this is a price model).
		repBase := matchBase + m.isRep[0].Price(1)
		nodeRep0 := int(rep0s[i])
		repCands := [5]int{nodeRep0, 0, 0, 0, 0}
		nCands := 1
		for _, r := range o.reps {
			if r != nodeRep0 {
				repCands[nCands] = r
				nCands++
			}
		}
		for idx := 0; idx < nCands && idx < 4; idx++ {
			r := repCands[idx]
			// A rep match needs its first two bytes (maxL >= 2 keeps
			// p+1 in src), and most candidates fail there.
			if r > p || src[p-r] != src[p] || src[p-r+1] != src[p+1] {
				continue
			}
			l := lz77.MatchLen(src, p-r, p, maxL)
			o.relax(i, minRepMatch, l, repBase+o.repIndexPrice(idx), o.repLenTab, r)
		}
		// Fresh matches.
		if maxL >= minMatch {
			freshBase := matchBase + m.isRep[0].Price(0)
			o.matchBuf = o.matcher.FindMatches(p, maxL, o.matchBuf[:0])
			prevLen := minMatch - 1
			for _, mt := range o.matchBuf {
				// Length minMatch prices its distance under context 2,
				// every longer length under context 3.
				lo := prevLen + 1
				if lo == minMatch {
					o.relax(i, minMatch, minMatch, freshBase+o.distPrice(2, mt.Dist), o.lenTab, mt.Dist)
					lo++
				}
				o.relax(i, lo, mt.Len, freshBase+o.distPrice(3, mt.Dist), o.lenTab, mt.Dist)
				prevLen = mt.Len
			}
		}
	}

	// Backtrack the cheapest path to the horizon, then emit its prefix.
	ops := o.ops[:0]
	for j := h; j > 0; {
		i := int(from[j])
		ops = append(ops, op{at: i, len: j - i, dist: int(dist[j])})
		j = i
	}
	o.ops = ops
	emitLimit := optEmit
	if h < optHorizon {
		emitLimit = h // file tail: emit everything
	}
	for k := len(ops) - 1; k >= 0; k-- {
		opk := ops[k]
		if opk.at >= emitLimit {
			break
		}
		if opk.dist == 0 {
			o.emitLiteral()
		} else {
			o.emitMatch(opk.dist, opk.len)
		}
	}
}

// relax offers node i's match at distance d for every length L in
// [lo, hi]: the path reaching i+L costs base+lenTab[L-lenBase], and it
// replaces the node's best path when strictly cheaper. The loop runs over
// equal-length subslices, so it has no bounds checks.
func (o *optEncoder) relax(i, lo, hi int, base uint32, lenTab []uint32, d int) {
	if hi < lo {
		return
	}
	tab := lenTab[lo-lenBase : hi-lenBase+1]
	cost := o.cost[i+lo : i+hi+1]
	cost = cost[:len(tab)]
	from := o.from[i+lo : i+hi+1]
	from = from[:len(tab)]
	dist := o.dist[i+lo : i+hi+1]
	dist = dist[:len(tab)]
	rep0s := o.rep0s[i+lo : i+hi+1]
	rep0s = rep0s[:len(tab)]
	for k, lp := range tab {
		if cp := base + lp; cp < cost[k] {
			cost[k] = cp
			from[k] = int32(i)
			dist[k] = int32(d)
			rep0s[k] = int32(d)
		}
	}
}

// Decompress implements compress.Codec with default decode limits.
func (c *Codec) Decompress(comp []byte) ([]byte, error) {
	return c.DecompressLimits(comp, compress.DecodeLimits{})
}

// DecompressLimits implements compress.Limited: the declared output size is
// validated against lim before the output buffer grows.
func (c *Codec) DecompressLimits(comp []byte, lim compress.DecodeLimits) ([]byte, error) {
	return c.decompressLimits(comp, lim, nil)
}

// DecompressAppendLimitsTrace implements compress.TracedDecompressor,
// attaching model-init / rc-decode stage spans to sp.
func (c *Codec) DecompressAppendLimitsTrace(dst, comp []byte, lim compress.DecodeLimits, sp *trace.Span) ([]byte, error) {
	out, err := c.decompressLimits(comp, lim, sp)
	if err != nil {
		return nil, err
	}
	return append(dst, out...), nil
}

func (c *Codec) decompressLimits(comp []byte, lim compress.DecodeLimits, sp *trace.Span) ([]byte, error) {
	size, n, err := bitio.Uvarint(comp)
	if err != nil {
		return nil, fmt.Errorf("xz: %w", err)
	}
	if err := lim.CheckDeclared(size, len(comp)); err != nil {
		return nil, err
	}
	if size == 0 {
		return []byte{}, nil
	}
	var t0 time.Time
	if sp != nil {
		t0 = time.Now()
	}
	d := rangecoder.NewDecoder(comp[n:])
	m := newModels()
	// Cap the initial allocation: size is attacker-controlled input.
	capacity := size
	if capacity > 1<<20 {
		capacity = 1 << 20
	}
	out := make([]byte, 0, capacity)
	if sp != nil {
		sp.AddStage("model-init", time.Since(t0), int64(len(comp)), 0)
		t0 = time.Now()
	}
	reps := [4]int{1, 2, 3, 4}
	prevMatch := 0
	for uint64(len(out)) < size {
		if d.Err() != nil {
			return nil, fmt.Errorf("xz: %w", d.Err())
		}
		if prevMatch == 0 {
			// Literal-follows-literal steady state: the fused run decoder
			// consumes symbols until the next match flag (or end of block).
			var hitMatch bool
			out, hitMatch = d.DecodeLiteralRun(m.isMatch[:posStates], m.literals, out, int(size))
			if !hitMatch {
				break
			}
		} else {
			if d.DecodeBit(&m.isMatch[prevMatch*posStates+len(out)&3]) == 0 {
				ctx := 0
				if len(out) > 0 {
					ctx = int(out[len(out)-1] >> 5)
				}
				var matchByte byte
				matched := reps[0] <= len(out)
				if matched {
					matchByte = out[len(out)-reps[0]]
				}
				out = append(out, decodeLiteral(d, m.literals[ctx], matched, matchByte))
				prevMatch = 0
				continue
			}
		}
		var length, dist int
		if d.DecodeBit(&m.isRep[0]) == 1 {
			idx := decodeRepIndex(d, m)
			length = int(m.repLen.decode(d)) + lenBase
			dist = reps[idx]
			copy(reps[1:idx+1], reps[:idx])
			reps[0] = dist
		} else {
			length = int(m.lenCoder.decode(d)) + lenBase
			dist = decodeDistance(d, m, lenToCtx(length))
			reps[3], reps[2], reps[1], reps[0] = reps[2], reps[1], reps[0], dist
		}
		if uint64(len(out)+length) > size {
			return nil, compress.Errorf(compress.ErrCorrupt, "xz: match overruns output")
		}
		out, err = lz77.AppendMatch(out, dist, length, int(size))
		if err != nil {
			return nil, fmt.Errorf("xz: %w", err)
		}
		prevMatch = 1
	}
	if d.Err() != nil {
		return nil, fmt.Errorf("xz: %w", d.Err())
	}
	if sp != nil {
		sp.AddStage("rc-decode", time.Since(t0), int64(len(comp)), int64(len(out)))
	}
	return out, nil
}

var _ compress.Codec = (*Codec)(nil)
var _ compress.Describer = (*Codec)(nil)
var _ compress.Limited = (*Codec)(nil)
var _ compress.TracedCompressor = (*Codec)(nil)
var _ compress.TracedDecompressor = (*Codec)(nil)
