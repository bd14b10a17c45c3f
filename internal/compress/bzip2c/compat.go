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
// decode. Its blocks run the registry codec's own stages, and
// decompression is delegated to the standard library, so every roundtrip
// through this codec cross-validates the encoder that ships against an
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
	// on RLE1 group boundaries by re-running RLE1 incrementally. An empty
	// input is a stream of no blocks.
	maxBlock := c.level*100000 - 20
	streamCRC := uint32(0)
	for pos := 0; pos < len(src); {
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
	// RLE1 grows its input by at most a quarter (a run of four becomes five
	// bytes), so a short src never needs a whole block.
	rle = make([]byte, 0, min(maxBlock, len(src)+len(src)/4+5))
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
// Its symbols come from the registry codec's stages: bzip2 move-to-fronts
// over the block's used bytes in ascending order, which is mtf.Encode over
// each byte's rank in that list, since mtf.Encode starts from the identity
// order and never moves an unused rank ahead of a used one.
func writeCompatBlock(w *bitio.Writer, block []byte, blockCRC uint32) error {
	last, primary := bwt.Transform(block)

	var used [256]bool
	for _, b := range block {
		used[b] = true
	}
	var rank [256]byte
	nUsed := 0
	for v := range used {
		if used[v] {
			rank[v] = byte(nUsed)
			nUsed++
		}
	}
	if nUsed == 0 {
		return fmt.Errorf("bzip2-compat: empty block")
	}
	for i, b := range last {
		last[i] = rank[b]
	}
	eob := nUsed + 1
	syms := append(mtf.EncodeZeroRuns(mtf.Encode(last)), uint16(eob))

	// The format requires complete tables of at most 17 bits, so every
	// alphabet symbol gets a code.
	tables, selectors, err := trainTables(syms, eob+1, func(freqs []int) ([]uint8, error) {
		for s := range freqs {
			freqs[s]++
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
	})
	if err != nil {
		return err
	}

	// Block header: magic, CRC, randomized flag, BWT origin.
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
	w.WriteBits(uint64(len(tables)), 3)
	w.WriteBits(uint64(len(selectors)), 15)
	writeSelectors(w, selectors, len(tables))
	// Code lengths: 5-bit start, then +1/-1 deltas per symbol.
	for _, tbl := range tables {
		cur := int(tbl[0])
		w.WriteBits(uint64(cur), 5)
		for _, l := range tbl {
			for cur < int(l) {
				w.WriteBits(0b10, 2)
				cur++
			}
			for cur > int(l) {
				w.WriteBits(0b11, 2)
				cur--
			}
			w.WriteBit(0)
		}
	}
	return writeSymbols(w, syms, selectors, tables)
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
