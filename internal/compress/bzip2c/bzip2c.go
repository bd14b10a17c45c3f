// Package bzip2c implements the bzip2-class codec: RLE1, then per-block
// Burrows-Wheeler transform, move-to-front, RUNA/RUNB zero-run coding, and
// canonical Huffman. This is the algorithm family behind the paper's one
// counterintuitive result: block sorting groups the two's-complement regime
// bytes of posit data, so bzip2 compresses posits *better* than floats.
//
// Blocks are coded independently, in order, on the caller's goroutine
// (bwt, mtf-rle2, huffman on encode; huffman, mtf, bwt-inverse on
// decode). The codec is serial: parallelism lives in its callers, such as
// the chunk engine, which codes one chunk per pool worker.
package bzip2c

import (
	"fmt"
	"time"

	"positbench/internal/bitio"
	"positbench/internal/bwt"
	"positbench/internal/compress"
	"positbench/internal/huffman"
	"positbench/internal/mtf"
	"positbench/internal/trace"
)

const (
	// DefaultBlockSize mirrors bzip2 -9's 900 kB blocks.
	DefaultBlockSize = 900 * 1000
	eobSymbol        = 257 // alphabet: RUNA, RUNB, 2..256 (bytes 1..255), EOB
	alphabetSize     = 258
)

// Codec is the bzip2-class compressor.
type Codec struct {
	blockSize int
}

// New returns a codec with bzip2 -9 block size (the --best setting).
func New() *Codec { return &Codec{blockSize: DefaultBlockSize} }

// NewBlockSize returns a codec with a custom block size.
func NewBlockSize(n int) *Codec {
	if n < 1024 {
		n = 1024
	}
	return &Codec{blockSize: n}
}

// Name implements compress.Codec.
func (c *Codec) Name() string { return "bzip2" }

// Info implements compress.Describer.
func (c *Codec) Info() compress.Info {
	return compress.Info{Name: "bzip2", Version: "bwt-block", Source: "models bzip2 1.1.0 -9 (RLE1+BWT+MTF+RLE2+Huffman, 900 kB blocks)"}
}

// stageClock accumulates per-stage time across the blocks of one call;
// the traced entry points export the sums as completed stage spans. A nil
// clock keeps the untraced path free of time.Now calls.
type stageClock struct {
	bwt, mtf, huff time.Duration
}

// Compress implements compress.Codec.
func (c *Codec) Compress(src []byte) ([]byte, error) {
	return c.compress(src, nil, nil)
}

// CompressAppendTrace implements compress.TracedCompressor: same output as
// Compress, plus rle1 / bwt / mtf-rle2 / huffman stage spans on sp.
func (c *Codec) CompressAppendTrace(dst, src []byte, sp *trace.Span) ([]byte, error) {
	out, err := c.compress(src, sp, new(stageClock))
	if err != nil {
		return nil, err
	}
	return append(dst, out...), nil
}

func (c *Codec) compress(src []byte, sp *trace.Span, sc *stageClock) ([]byte, error) {
	var t0 time.Time
	if sc != nil {
		t0 = time.Now()
	}
	pre := mtf.RLE1(src)
	var rle1 time.Duration
	if sc != nil {
		rle1 = time.Since(t0)
	}
	nBlocks := (len(pre) + c.blockSize - 1) / c.blockSize
	out := bitio.PutUvarint(nil, uint64(len(src)))
	out = bitio.PutUvarint(out, uint64(nBlocks))
	for off := 0; off < len(pre); off += c.blockSize {
		b := encBlock{block: pre[off:min(off+c.blockSize, len(pre))]}
		b.bwtStage(sc)
		b.mtfStage(sc)
		b.huffStage(sc)
		if b.err != nil {
			return nil, b.err
		}
		out = bitio.PutUvarint(out, uint64(len(b.out)))
		out = append(out, b.out...)
	}
	if sp != nil && sc != nil {
		sp.AddStage("rle1", rle1, int64(len(src)), int64(len(pre)))
		sp.AddStage("bwt", sc.bwt, int64(len(pre)), 0)
		sp.AddStage("mtf-rle2", sc.mtf, 0, 0)
		sp.AddStage("huffman", sc.huff, 0, int64(len(out)))
	}
	return out, nil
}

// encBlock is one block moving through the encode stages.
type encBlock struct {
	block   []byte // input (a window of the RLE1 stream)
	last    []byte // BWT output
	primary int
	syms    []uint16 // MTF + zero-run symbols, EOB-terminated
	out     []byte   // encoded block
	err     error
}

func (b *encBlock) bwtStage(sc *stageClock) {
	var t0 time.Time
	if sc != nil {
		t0 = time.Now()
	}
	b.last, b.primary = bwt.Transform(b.block)
	if sc != nil {
		sc.bwt += time.Since(t0)
	}
}

func (b *encBlock) mtfStage(sc *stageClock) {
	var t0 time.Time
	if sc != nil {
		t0 = time.Now()
	}
	b.syms = append(mtf.EncodeZeroRuns(mtf.Encode(b.last)), eobSymbol)
	b.last = nil
	if sc != nil {
		sc.mtf += time.Since(t0)
	}
}

func (b *encBlock) huffStage(sc *stageClock) {
	var t0 time.Time
	if sc != nil {
		t0 = time.Now()
	}
	b.out, b.err = huffEncodeBlock(b.block, b.primary, b.syms)
	b.syms = nil
	if sc != nil {
		sc.huff += time.Since(t0) // table build + selectors + symbol coding
	}
}

// groupSize is bzip2's symbol-group granularity for Huffman table
// switching.
const groupSize = 50

// numTables picks how many Huffman tables to use, following bzip2.
func numTables(nSyms int) int {
	switch {
	case nSyms < 200:
		return 2
	case nSyms < 600:
		return 3
	case nSyms < 1200:
		return 4
	case nSyms < 2400:
		return 5
	default:
		return 6
	}
}

// Packed group costs: every table's code length for a symbol sits in its
// own 16-bit lane, three tables per uint64, so one pass over a group sums
// the costs of all tables at once. An unusable code (length 0) costs
// zeroLenCost. A group of groupSize symbols costs at most
// groupSize*zeroLenCost = 1,600 in any table, below 2^16, so no lane ever
// carries into the next and each lane holds that table's exact sum.
const (
	laneBits     = 16
	lanesPerWord = 3
	zeroLenCost  = 32 // unusable code: huge penalty
	maxTables    = 2 * lanesPerWord
)

// laneCosts holds the packed code lengths of up to maxTables tables
// (numTables never picks more).
type laneCosts [alphabetSize][maxTables / lanesPerWord]uint64

// pack loads the code lengths of tables (each at most alphabetSize long)
// into the lanes.
func (c *laneCosts) pack(tables [][]uint8) {
	*c = laneCosts{}
	for t, tbl := range tables {
		w, shift := t/lanesPerWord, uint(t%lanesPerWord)*laneBits
		for sym, l := range tbl {
			cost := uint64(l)
			if cost == 0 {
				cost = zeroLenCost
			}
			c[sym][w] |= cost << shift
		}
	}
}

// cheapest returns the first of tables 0..nTables-1 with the lowest cost
// for group (at most groupSize symbols): the table the per-table loop, with
// ties to the lowest index, picks.
func (c *laneCosts) cheapest(group []uint16, nTables int) int {
	var sum [maxTables / lanesPerWord]uint64
	for _, s := range group {
		sum[0] += c[s][0]
		sum[1] += c[s][1]
	}
	best, bestCost := 0, uint64(1)<<laneBits
	for t := 0; t < nTables; t++ {
		if cost := sum[t/lanesPerWord] >> (uint(t%lanesPerWord) * laneBits) & (1<<laneBits - 1); cost < bestCost {
			best, bestCost = t, cost
		}
	}
	return best
}

// huffEncodeBlock is the final encode stage: train the Huffman
// tables on the block's symbol stream and write the block payload.
func huffEncodeBlock(block []byte, primary int, syms []uint16) ([]byte, error) {
	tables, selectors, err := trainTables(syms, alphabetSize, func(freqs []int) ([]uint8, error) {
		freqs[eobSymbol]++ // every table must be able to code EOB
		return huffman.BuildLengths(freqs, huffman.MaxBits)
	})
	if err != nil {
		return nil, err
	}
	w := bitio.NewWriter(len(block)/3 + 64)
	hdr := bitio.PutUvarint(nil, uint64(primary))
	hdr = bitio.PutUvarint(hdr, uint64(len(block)))
	hdr = bitio.PutUvarint(hdr, uint64(len(syms)))
	hdr = append(hdr, byte(len(tables)))
	w.WriteBytes(hdr)
	for _, tbl := range tables {
		if err := huffman.WriteLengths(w, tbl); err != nil {
			return nil, err
		}
	}
	writeSelectors(w, selectors, len(tables))
	if err := writeSymbols(w, syms, selectors, tables); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// The block stages below are shared by both containers: the registry
// format above and the .bz2 writer in compat.go. Each passes its own build,
// which turns one table's symbol counts over an alphaSize alphabet into
// code lengths and carries its format's rule for symbols the counts miss.

// trainTables picks numTables(len(syms)) Huffman tables and the table of
// each groupSize-symbol group, following bzip2: one table per contiguous
// chunk of the symbol stream, then four passes that assign every group its
// cheapest table and rebuild each table from its groups. Post-BWT
// statistics drift along the block, so local tables beat one global table.
func trainTables(syms []uint16, alphaSize int, build func(freqs []int) ([]uint8, error)) (tables [][]uint8, selectors []int, err error) {
	nTables := numTables(len(syms))
	tables = make([][]uint8, nTables)
	chunk := (len(syms) + nTables - 1) / nTables
	for t := range tables {
		freqs := make([]int, alphaSize)
		for _, s := range syms[t*chunk : min((t+1)*chunk, len(syms))] {
			freqs[s]++
		}
		if tables[t], err = build(freqs); err != nil {
			return nil, nil, err
		}
	}
	selectors = make([]int, (len(syms)+groupSize-1)/groupSize)
	var costs laneCosts
	for iter := 0; iter < 4; iter++ {
		costs.pack(tables)
		freqsPer := make([][]int, nTables)
		for t := range freqsPer {
			freqsPer[t] = make([]int, alphaSize)
		}
		for g := range selectors {
			group := syms[g*groupSize : min((g+1)*groupSize, len(syms))]
			best := costs.cheapest(group, nTables)
			selectors[g] = best
			for _, s := range group {
				freqsPer[best][s]++
			}
		}
		for t := range tables {
			if tables[t], err = build(freqsPer[t]); err != nil {
				return nil, nil, err
			}
		}
	}
	return tables, selectors, nil
}

// writeSelectors writes each group's table index move-to-front transformed,
// then unary-coded (bzip2's format): table switches are rare, so most
// selectors cost one bit.
func writeSelectors(w *bitio.Writer, selectors []int, nTables int) {
	order := make([]int, nTables)
	for i := range order {
		order[i] = i
	}
	for _, sel := range selectors {
		j := 0
		for order[j] != sel {
			j++
		}
		for i := 0; i < j; i++ {
			w.WriteBit(1)
		}
		w.WriteBit(0)
		copy(order[1:j+1], order[:j])
		order[0] = sel
	}
}

// writeSymbols codes each symbol with the table its group selects.
func writeSymbols(w *bitio.Writer, syms []uint16, selectors []int, tables [][]uint8) error {
	encs := make([]*huffman.Encoder, len(tables))
	for t, tbl := range tables {
		var err error
		if encs[t], err = huffman.NewEncoder(tbl); err != nil {
			return err
		}
	}
	for i, s := range syms {
		encs[selectors[i/groupSize]].Encode(w, int(s))
	}
	return nil
}

// Decompress implements compress.Codec with default decode limits.
func (c *Codec) Decompress(comp []byte) ([]byte, error) {
	return c.DecompressLimits(comp, compress.DecodeLimits{})
}

// DecompressLimits implements compress.Limited. Block headers are validated
// against the input length before the block table is allocated, each block
// stage converts panics on hostile data into errors (callers such as the
// chunk engine run codecs on their own goroutines, where a panic would
// kill the process), and the RLE1 expansion is capped by lim.
func (c *Codec) DecompressLimits(comp []byte, lim compress.DecodeLimits) ([]byte, error) {
	return c.decompress(comp, lim, nil, nil)
}

// DecompressAppendLimitsTrace implements compress.TracedDecompressor,
// attaching huffman / mtf / bwt-inverse / rle1-inverse stage spans to sp.
func (c *Codec) DecompressAppendLimitsTrace(dst, comp []byte, lim compress.DecodeLimits, sp *trace.Span) ([]byte, error) {
	out, err := c.decompress(comp, lim, sp, new(stageClock))
	if err != nil {
		return nil, err
	}
	return append(dst, out...), nil
}

// decompress reuses stageClock fields for the inverse stages: bwt holds
// bwt.Inverse time, mtf the RUNA/RUNB+MTF decode, huff the table reads and
// symbol decoding.
func (c *Codec) decompress(comp []byte, lim compress.DecodeLimits, sp *trace.Span, sc *stageClock) ([]byte, error) {
	maxOut := lim.OutputCap(len(comp))
	origSize, n, err := bitio.Uvarint(comp)
	if err != nil {
		return nil, fmt.Errorf("bzip2: %w", err)
	}
	if err := lim.CheckDeclared(origSize, len(comp)); err != nil {
		return nil, err
	}
	comp = comp[n:]
	nBlocks, n, err := bitio.Uvarint(comp)
	if err != nil {
		return nil, fmt.Errorf("bzip2: %w", err)
	}
	comp = comp[n:]
	// Each block costs at least one header byte, so a block count beyond the
	// remaining input is corrupt; checking before make() keeps a tampered
	// count from allocating an arbitrarily large table.
	if nBlocks > uint64(len(comp)) {
		return nil, compress.Errorf(compress.ErrCorrupt, "bzip2: %d blocks declared in %d bytes", nBlocks, len(comp))
	}
	blocks := make([][]byte, nBlocks)
	for i := range blocks {
		bl, n, err := bitio.Uvarint(comp)
		if err != nil {
			return nil, fmt.Errorf("bzip2: block %d header: %w", i, err)
		}
		comp = comp[n:]
		if uint64(len(comp)) < bl {
			return nil, compress.Errorf(compress.ErrTruncated, "bzip2: block %d truncated", i)
		}
		blocks[i] = comp[:bl]
		comp = comp[bl:]
	}
	dec := make([]decBlock, nBlocks)
	total := 0
	for i := range dec {
		d := &dec[i]
		d.b = blocks[i]
		d.huffStage(maxOut, sc)
		d.mtfStage(sc)
		d.bwtStage(sc)
		if d.err != nil {
			return nil, fmt.Errorf("bzip2: block %d: %w", i, d.err)
		}
		total += len(d.out)
	}
	pre := make([]byte, 0, total)
	for i := range dec {
		pre = append(pre, dec[i].out...)
	}
	var t0 time.Time
	if sc != nil {
		t0 = time.Now()
	}
	out, err := mtf.UnRLE1Limit(pre, int(maxOut))
	if err != nil {
		return nil, fmt.Errorf("bzip2: %w", err)
	}
	if uint64(len(out)) != origSize {
		return nil, compress.Errorf(compress.ErrCorrupt, "bzip2: size mismatch: got %d want %d", len(out), origSize)
	}
	if sp != nil && sc != nil {
		sp.AddStage("huffman", sc.huff, 0, 0)
		sp.AddStage("mtf", sc.mtf, 0, 0)
		sp.AddStage("bwt-inverse", sc.bwt, 0, int64(len(pre)))
		sp.AddStage("rle1-inverse", time.Since(t0), int64(len(pre)), int64(len(out)))
	}
	return out, nil
}

// decBlock is one block moving through the decode stages. Every stage runs
// behind guard: the input is untrusted, and a panic on a caller's worker
// goroutine would kill the process.
type decBlock struct {
	b        []byte // encoded block payload
	primary  uint64
	blockLen uint64
	syms     []uint16 // decoded Huffman symbols
	last     []byte   // MTF + zero-run decode output
	out      []byte   // recovered block bytes
	err      error
}

// guard runs f, converting a panic on hostile data into an ErrCorrupt
// error in *err. Skips f entirely once an earlier stage has failed.
func guard(err *error, f func()) {
	if *err != nil {
		return
	}
	defer func() {
		if p := recover(); p != nil {
			*err = compress.Errorf(compress.ErrCorrupt, "decoder panic: %v", p)
		}
	}()
	f()
}

func (d *decBlock) huffStage(maxOut int64, sc *stageClock) {
	guard(&d.err, func() {
		d.syms, d.primary, d.blockLen, d.err = huffDecodeBlock(d.b, maxOut, sc)
		d.b = nil
	})
}

func (d *decBlock) mtfStage(sc *stageClock) {
	guard(&d.err, func() {
		var t0 time.Time
		if sc != nil {
			t0 = time.Now()
		}
		// The fused zero-run + MTF decode must land exactly on blockLen
		// bytes, so blockLen doubles as the allocation bound for hostile
		// RUNA/RUNB streams.
		d.last, d.err = mtf.DecodeRunsMTFLimit(d.syms, int(d.blockLen))
		d.syms = nil
		if d.err == nil && len(d.last) != int(d.blockLen) {
			d.err = compress.Errorf(compress.ErrCorrupt, "block length mismatch: got %d want %d", len(d.last), d.blockLen)
		}
		if sc != nil {
			sc.mtf += time.Since(t0)
		}
	})
}

func (d *decBlock) bwtStage(sc *stageClock) {
	guard(&d.err, func() {
		var t0 time.Time
		if sc != nil {
			t0 = time.Now()
		}
		d.out, d.err = bwt.Inverse(d.last, int(d.primary))
		d.last = nil
		if sc != nil {
			sc.bwt += time.Since(t0)
		}
	})
}

// huffDecodeBlock is the first decode stage: parse the block
// header, read the Huffman tables and selectors, and decode the symbol
// stream.
func huffDecodeBlock(b []byte, maxOut int64, sc *stageClock) (_ []uint16, primary, blockLen uint64, _ error) {
	primary, n, err := bitio.Uvarint(b)
	if err != nil {
		return nil, 0, 0, err
	}
	b = b[n:]
	blockLen, n, err = bitio.Uvarint(b)
	if err != nil {
		return nil, 0, 0, err
	}
	b = b[n:]
	nSyms64, n, err := bitio.Uvarint(b)
	if err != nil {
		return nil, 0, 0, err
	}
	b = b[n:]
	if blockLen > 1<<26 {
		return nil, 0, 0, compress.Errorf(compress.ErrCorrupt, "implausible block length %d", blockLen)
	}
	// RLE1 expands runs of exactly 4 by one count byte (at most +25%), so a
	// pre-RLE1 block beyond cap*5/4 cannot belong to an in-limit stream.
	if blockLen > uint64(maxOut)+uint64(maxOut)/4+64 {
		return nil, 0, 0, compress.Errorf(compress.ErrLimitExceeded, "block length %d exceeds decode cap %d", blockLen, maxOut)
	}
	nSyms := int(nSyms64)
	if nSyms < 1 || uint64(nSyms) > 2*blockLen+16 {
		return nil, 0, 0, compress.Errorf(compress.ErrCorrupt, "implausible symbol count %d", nSyms)
	}
	if len(b) < 1 {
		return nil, 0, 0, compress.Errorf(compress.ErrTruncated, "missing table count")
	}
	nGroups := int(b[0])
	b = b[1:]
	if nGroups < 1 || nGroups > 8 {
		return nil, 0, 0, compress.Errorf(compress.ErrCorrupt, "bad table count %d", nGroups)
	}
	var t0 time.Time
	if sc != nil {
		t0 = time.Now()
	}
	r := bitio.NewReader(b)
	decs := make([]*huffman.Decoder, nGroups)
	for t := 0; t < nGroups; t++ {
		lengths, err := huffman.ReadLengths(r, alphabetSize)
		if err != nil {
			return nil, 0, 0, err
		}
		decs[t], err = huffman.NewDecoder(lengths)
		if err != nil {
			return nil, 0, 0, err
		}
	}
	nSel := (nSyms + groupSize - 1) / groupSize
	selectors := make([]int, nSel)
	mtfOrder := make([]int, nGroups)
	for i := range mtfOrder {
		mtfOrder[i] = i
	}
	for g := range selectors {
		j := 0
		for {
			bit, err := r.ReadBit()
			if err != nil {
				return nil, 0, 0, err
			}
			if bit == 0 {
				break
			}
			j++
			if j >= nGroups {
				return nil, 0, 0, compress.Errorf(compress.ErrCorrupt, "selector out of range")
			}
		}
		sel := mtfOrder[j]
		selectors[g] = sel
		copy(mtfOrder[1:j+1], mtfOrder[:j])
		mtfOrder[0] = sel
	}
	// One Huffman table serves each 50-symbol group; each group decodes with
	// a single batch call. The spare slot lets every group pass its full
	// span even though the EOB symbol is never stored.
	syms := make([]uint16, nSyms)
	pos, consumed := 0, 0
	sawEOB := false
	for g := 0; g < nSel && consumed < nSyms; g++ {
		want := nSyms - consumed
		if want > groupSize {
			want = groupSize
		}
		k, saw, err := decs[selectors[g]].DecodeBatch(r, syms[pos:pos+want], eobSymbol)
		if err != nil {
			return nil, 0, 0, err
		}
		pos += k
		consumed += k
		if saw {
			consumed++ // the EOB itself
			if consumed != nSyms {
				return nil, 0, 0, compress.Errorf(compress.ErrCorrupt, "early EOB at symbol %d of %d", consumed-1, nSyms)
			}
			sawEOB = true
			break
		}
	}
	if !sawEOB || pos != nSyms-1 {
		return nil, 0, 0, compress.Errorf(compress.ErrCorrupt, "missing EOB")
	}
	syms = syms[:pos]
	if sc != nil {
		sc.huff += time.Since(t0) // table reads + selector + symbol decode
	}
	return syms, primary, blockLen, nil
}

var _ compress.Codec = (*Codec)(nil)
var _ compress.Describer = (*Codec)(nil)
var _ compress.Limited = (*Codec)(nil)
var _ compress.TracedCompressor = (*Codec)(nil)
var _ compress.TracedDecompressor = (*Codec)(nil)
