package bzip2c

import (
	"bytes"
	"compress/bzip2"
	"errors"
	"fmt"
	"io"

	"positbench/internal/bitio"
	"positbench/internal/bwt"
	"positbench/internal/compress"
	"positbench/internal/huffman"
	"positbench/internal/mtf"
)

// CompatCodec emits the real bzip2 file format (.bz2): the exact container
// byte stream that the reference tools and Go's compress/bzip2 reader
// decode. Decompression is delegated to the standard library, so every
// roundtrip through this codec cross-validates the encoder against an
// independent reference implementation.
type CompatCodec struct {
	level int // 1..9: block size in 100 kB units
}

// NewCompat returns a .bz2-format codec at the given level (1..9).
func NewCompat(level int) *CompatCodec {
	if level < 1 {
		level = 1
	}
	if level > 9 {
		level = 9
	}
	return &CompatCodec{level: level}
}

// Name implements compress.Codec.
func (c *CompatCodec) Name() string { return "bzip2-compat" }

// Info implements compress.Describer.
func (c *CompatCodec) Info() compress.Info {
	return compress.Info{Name: "bzip2-compat", Version: fmt.Sprintf("bz2 -%d", c.level), Source: "bit-exact .bz2 container, decodable by reference decoders"}
}

// --- bzip2 CRC32 (poly 0x04C11DB7, MSB-first, not reflected) ----------------

var bzCRCTable [256]uint32

func init() {
	for i := 0; i < 256; i++ {
		c := uint32(i) << 24
		for j := 0; j < 8; j++ {
			if c&0x80000000 != 0 {
				c = c<<1 ^ 0x04C11DB7
			} else {
				c <<= 1
			}
		}
		bzCRCTable[i] = c
	}
}

func bzCRCUpdate(crc uint32, p []byte) uint32 {
	for _, b := range p {
		crc = crc<<8 ^ bzCRCTable[byte(crc>>24)^b]
	}
	return crc
}

// Compress implements compress.Codec, producing a well-formed .bz2 stream.
func (c *CompatCodec) Compress(src []byte) ([]byte, error) {
	w := bitio.NewWriter(len(src)/2 + 64)
	w.WriteBytes([]byte{'B', 'Z', 'h', byte('0' + c.level)})

	// RLE1 the whole input, then split into blocks of at most
	// level*100000-20 post-RLE1 bytes (bzip2's nblockMAX slack). The block
	// CRC covers the pre-RLE1 bytes each block consumes, so blocks are cut
	// on RLE1 group boundaries by re-running RLE1 incrementally.
	maxBlock := c.level*100000 - 20
	streamCRC := uint32(0)
	pos := 0
	for pos < len(src) || (len(src) == 0 && pos == 0) {
		if len(src) == 0 {
			break // empty stream: no blocks at all
		}
		blockRaw, blockRLE := takeRLE1Block(src[pos:], maxBlock)
		blockCRC := bzCRCUpdate(0xFFFFFFFF, src[pos:pos+blockRaw]) ^ 0xFFFFFFFF
		streamCRC = (streamCRC<<1 | streamCRC>>31) ^ blockCRC
		if err := writeCompatBlock(w, blockRLE, blockCRC); err != nil {
			return nil, err
		}
		pos += blockRaw
	}
	// Stream footer.
	w.WriteBits(0x177245, 24)
	w.WriteBits(0x385090, 24)
	w.WriteBits(uint64(streamCRC), 32)
	return w.Bytes(), nil
}

// takeRLE1Block consumes input from src, applying bzip2's RLE1, until the
// encoded block would exceed maxBlock bytes. It returns how many raw bytes
// were consumed and the RLE1-encoded block.
func takeRLE1Block(src []byte, maxBlock int) (rawLen int, rle []byte) {
	rle = make([]byte, 0, maxBlock)
	i := 0
	for i < len(src) {
		b := src[i]
		run := 1
		for i+run < len(src) && src[i+run] == b && run < 255+4 {
			run++
		}
		var enc int
		if run >= 4 {
			enc = 5
		} else {
			enc = run
		}
		if len(rle)+enc > maxBlock {
			break
		}
		if run >= 4 {
			rle = append(rle, b, b, b, b, byte(run-4))
		} else {
			for j := 0; j < run; j++ {
				rle = append(rle, b)
			}
		}
		i += run
	}
	return i, rle
}

// writeCompatBlock emits one compressed block in bzip2's exact bit format.
func writeCompatBlock(w *bitio.Writer, block []byte, blockCRC uint32) error {
	last, primary := bwt.Transform(block)

	// Used-byte map and the compacted MTF alphabet.
	var used [256]bool
	for _, b := range block {
		used[b] = true
	}
	var alphabet []byte
	for v := 0; v < 256; v++ {
		if used[v] {
			alphabet = append(alphabet, byte(v))
		}
	}
	nUsed := len(alphabet)
	if nUsed == 0 {
		return fmt.Errorf("bzip2-compat: empty block")
	}
	eob := nUsed + 1
	alphaSize := nUsed + 2

	// MTF over the compacted alphabet, with RUNA/RUNB zero-run coding.
	syms := compatMTF(last, alphabet)
	syms = append(syms, uint16(eob))

	// Huffman tables: groups of 50 symbols, 2..6 tables, refined like the
	// native codec but with every alphabet symbol guaranteed a code (the
	// format requires complete tables).
	nGroups := numTables(len(syms))
	nSel := (len(syms) + groupSize - 1) / groupSize
	tables := make([][]uint8, nGroups)
	chunk := (len(syms) + nGroups - 1) / nGroups
	buildCompat := func(freqs []int) ([]uint8, error) {
		for s := range freqs {
			freqs[s]++ // every symbol must receive a code
		}
		lengths, err := huffman.BuildLengths(freqs, 17)
		if err != nil {
			return nil, err
		}
		for s, l := range lengths {
			if l == 0 {
				return nil, fmt.Errorf("bzip2-compat: symbol %d got no code", s)
			}
		}
		return lengths, nil
	}
	for t := 0; t < nGroups; t++ {
		lo, hi := t*chunk, (t+1)*chunk
		if hi > len(syms) {
			hi = len(syms)
		}
		freqs := make([]int, alphaSize)
		for _, s := range syms[lo:hi] {
			freqs[s]++
		}
		var err error
		if tables[t], err = buildCompat(freqs); err != nil {
			return err
		}
	}
	selectors := make([]int, nSel)
	var costs laneCosts // every length is 1..17, so no lane sees the 0 penalty
	for iter := 0; iter < 4; iter++ {
		costs.pack(tables)
		freqsPer := make([][]int, nGroups)
		for t := range freqsPer {
			freqsPer[t] = make([]int, alphaSize)
		}
		for g := 0; g < nSel; g++ {
			lo, hi := g*groupSize, (g+1)*groupSize
			if hi > len(syms) {
				hi = len(syms)
			}
			bestT := costs.cheapest(syms[lo:hi], nGroups)
			selectors[g] = bestT
			for _, s := range syms[lo:hi] {
				freqsPer[bestT][s]++
			}
		}
		for t := 0; t < nGroups; t++ {
			var err error
			if tables[t], err = buildCompat(freqsPer[t]); err != nil {
				return err
			}
		}
	}
	encs := make([]*huffman.Encoder, nGroups)
	for t := range tables {
		var err error
		if encs[t], err = huffman.NewEncoder(tables[t]); err != nil {
			return err
		}
	}

	// --- emit the block ---
	w.WriteBits(0x314159, 24)
	w.WriteBits(0x265359, 24)
	w.WriteBits(uint64(blockCRC), 32)
	w.WriteBit(0) // not randomized
	w.WriteBits(uint64(primary), 24)
	// Used map: 16 range bits, then 16 bits per used range.
	var ranges uint64
	for r := 0; r < 16; r++ {
		for v := 0; v < 16; v++ {
			if used[r*16+v] {
				ranges |= 1 << uint(15-r)
				break
			}
		}
	}
	w.WriteBits(ranges, 16)
	for r := 0; r < 16; r++ {
		if ranges>>uint(15-r)&1 == 0 {
			continue
		}
		var bitsOut uint64
		for v := 0; v < 16; v++ {
			if used[r*16+v] {
				bitsOut |= 1 << uint(15-v)
			}
		}
		w.WriteBits(bitsOut, 16)
	}
	w.WriteBits(uint64(nGroups), 3)
	w.WriteBits(uint64(nSel), 15)
	// Selectors: MTF + unary.
	mtfOrder := make([]int, nGroups)
	for i := range mtfOrder {
		mtfOrder[i] = i
	}
	for _, sel := range selectors {
		j := 0
		for mtfOrder[j] != sel {
			j++
		}
		for i := 0; i < j; i++ {
			w.WriteBit(1)
		}
		w.WriteBit(0)
		copy(mtfOrder[1:j+1], mtfOrder[:j])
		mtfOrder[0] = sel
	}
	// Code lengths: 5-bit start, then +1/-1 deltas per symbol.
	for t := 0; t < nGroups; t++ {
		cur := int(tables[t][0])
		w.WriteBits(uint64(cur), 5)
		for s := 0; s < alphaSize; s++ {
			target := int(tables[t][s])
			for cur < target {
				w.WriteBits(0b10, 2)
				cur++
			}
			for cur > target {
				w.WriteBits(0b11, 2)
				cur--
			}
			w.WriteBit(0)
		}
	}
	// Symbol stream.
	for i, s := range syms {
		encs[selectors[i/groupSize]].Encode(w, int(s))
	}
	return nil
}

// compatMTF move-to-fronts over the compacted used-byte alphabet and
// applies RUNA/RUNB zero-run coding, producing bzip2's symbol stream
// (without EOB).
func compatMTF(last []byte, alphabet []byte) []uint16 {
	order := append([]byte(nil), alphabet...)
	out := make([]uint16, 0, len(last))
	run := 0
	flushRun := func() {
		for run > 0 {
			if run&1 == 1 {
				out = append(out, mtf.RunA)
				run = (run - 1) / 2
			} else {
				out = append(out, mtf.RunB)
				run = (run - 2) / 2
			}
		}
	}
	for _, b := range last {
		j := 0
		for order[j] != b {
			j++
		}
		if j == 0 {
			run++
			continue
		}
		flushRun()
		out = append(out, uint16(j)+1)
		copy(order[1:j+1], order[:j])
		order[0] = b
	}
	flushRun()
	return out
}

// Decompress implements compress.Codec by delegating to the standard
// library's reference bzip2 decoder, with default decode limits.
func (c *CompatCodec) Decompress(comp []byte) ([]byte, error) {
	return c.DecompressLimits(comp, compress.DecodeLimits{})
}

// DecompressLimits implements compress.Limited. The .bz2 container carries
// no output size, so the cap is enforced with a bounded reader.
func (c *CompatCodec) DecompressLimits(comp []byte, lim compress.DecodeLimits) ([]byte, error) {
	if len(comp) == 0 {
		return nil, compress.Errorf(compress.ErrTruncated, "bzip2-compat: empty input")
	}
	maxOut := lim.OutputCap(len(comp))
	out, err := io.ReadAll(io.LimitReader(bzip2.NewReader(bytes.NewReader(comp)), maxOut+1))
	if err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, compress.Errorf(compress.ErrTruncated, "bzip2-compat: %v", err)
		}
		return nil, compress.Errorf(compress.ErrCorrupt, "bzip2-compat: %v", err)
	}
	if int64(len(out)) > maxOut {
		return nil, compress.Errorf(compress.ErrLimitExceeded, "bzip2-compat: output exceeds decode cap %d", maxOut)
	}
	return out, nil
}

var _ compress.Codec = (*CompatCodec)(nil)
var _ compress.Describer = (*CompatCodec)(nil)
var _ compress.Limited = (*CompatCodec)(nil)
