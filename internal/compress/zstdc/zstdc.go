// Package zstdc implements the zstd-class codec: LZ77 with a 1 MiB window
// and lazy parsing, followed by a fast entropy stage (canonical Huffman over
// literals and over gamma-bucketed literal-length / match-length / offset
// codes). This mirrors Zstandard's design point between gzip (small window)
// and xz (context-modelled arithmetic coding).
package zstdc

import (
	"fmt"
	"math/bits"

	"positbench/internal/bitio"
	"positbench/internal/compress"
	"positbench/internal/huffman"
	"positbench/internal/lz77"
)

const (
	window      = 1 << 20
	depth       = 96 // chain positions searched per query
	minMatch    = lz77.MinMatch
	numValCodes = 40 // gamma bucket codes for lengths/offsets
)

// Codec is the zstd-class compressor.
type Codec struct{}

// New returns a codec at maximum-effort settings (`zstd -19`-like).
func New() *Codec { return &Codec{} }

// Name implements compress.Codec.
func (c *Codec) Name() string { return "zstd" }

// Info implements compress.Describer.
func (c *Codec) Info() compress.Info {
	return compress.Info{Name: "zstd", Version: "lz-huff", Source: "models Zstandard 1.5.1 --best (1 MiB window LZ + entropy stage)"}
}

type sequence struct {
	litLen   int
	matchLen int
	offset   int
}

// valCode gamma-buckets a non-negative value: code k covers [2^k-1, 2^(k+1)-2]
// with k extra bits.
func valCode(v int) (code int, extra uint64, ebits uint) {
	u := uint64(v) + 1
	code = bits.Len64(u) - 1
	return code, u - 1<<uint(code), uint(code)
}

func valDecode(code int, extra uint64) int {
	return int(1<<uint(code) + extra - 1)
}

// Compress implements compress.Codec.
func (c *Codec) Compress(src []byte) ([]byte, error) {
	var seqs []sequence
	var lits []byte
	m := lz77.NewMatcher(src, window, depth)
	pos, litStart := 0, 0
	for pos < len(src) {
		dist, mlen := m.FindMatch(pos, len(src)-pos)
		m.Insert(pos)
		if mlen < minMatch {
			pos++
			continue
		}
		if pos+1 < len(src) {
			// Lazy one-step parse: if a strictly longer match starts one
			// byte later, emit this byte as a literal and let the next
			// iteration take that match.
			if _, l2 := m.FindMatch(pos+1, len(src)-pos-1); l2 > mlen {
				pos++
				continue
			}
		}
		seqs = append(seqs, sequence{litLen: pos - litStart, matchLen: mlen, offset: dist})
		lits = append(lits, src[litStart:pos]...)
		for i := pos + 1; i < pos+mlen; i++ {
			m.Insert(i)
		}
		pos += mlen
		litStart = pos
	}
	lastLits := src[litStart:]
	lits = append(lits, lastLits...)

	// Entropy stage.
	litFreq := make([]int, 256)
	for _, b := range lits {
		litFreq[b]++
	}
	llFreq := make([]int, numValCodes)
	mlFreq := make([]int, numValCodes)
	ofFreq := make([]int, numValCodes)
	for _, s := range seqs {
		cll, _, _ := valCode(s.litLen)
		cml, _, _ := valCode(s.matchLen - minMatch)
		cof, _, _ := valCode(s.offset - 1)
		llFreq[cll]++
		mlFreq[cml]++
		ofFreq[cof]++
	}
	litLen, err := huffman.BuildLengths(litFreq, huffman.MaxBits)
	if err != nil {
		return nil, err
	}
	llLen, err := huffman.BuildLengths(llFreq, huffman.MaxBits)
	if err != nil {
		return nil, err
	}
	mlLen, err := huffman.BuildLengths(mlFreq, huffman.MaxBits)
	if err != nil {
		return nil, err
	}
	ofLen, err := huffman.BuildLengths(ofFreq, huffman.MaxBits)
	if err != nil {
		return nil, err
	}
	litEnc, err := huffman.NewEncoder(litLen)
	if err != nil {
		return nil, err
	}
	llEnc, err := huffman.NewEncoder(llLen)
	if err != nil {
		return nil, err
	}
	mlEnc, err := huffman.NewEncoder(mlLen)
	if err != nil {
		return nil, err
	}
	ofEnc, err := huffman.NewEncoder(ofLen)
	if err != nil {
		return nil, err
	}

	hdr := bitio.PutUvarint(nil, uint64(len(src)))
	hdr = bitio.PutUvarint(hdr, uint64(len(seqs)))
	hdr = bitio.PutUvarint(hdr, uint64(len(lits)))
	hdr = bitio.PutUvarint(hdr, uint64(len(lastLits)))
	w := bitio.NewWriter(len(src)/2 + 64)
	w.WriteBytes(hdr)
	for _, tbl := range [][]uint8{litLen, llLen, mlLen, ofLen} {
		if err := huffman.WriteLengths(w, tbl); err != nil {
			return nil, err
		}
	}
	for _, b := range lits {
		litEnc.Encode(w, int(b))
	}
	for _, s := range seqs {
		cll, ell, nll := valCode(s.litLen)
		llEnc.Encode(w, cll)
		w.WriteBits(ell, nll)
		cml, eml, nml := valCode(s.matchLen - minMatch)
		mlEnc.Encode(w, cml)
		w.WriteBits(eml, nml)
		cof, eof, nof := valCode(s.offset - 1)
		ofEnc.Encode(w, cof)
		w.WriteBits(eof, nof)
	}
	return w.Bytes(), nil
}

// Decompress implements compress.Codec with default decode limits.
func (c *Codec) Decompress(comp []byte) ([]byte, error) {
	return c.DecompressLimits(comp, compress.DecodeLimits{})
}

// DecompressLimits implements compress.Limited: the declared output size is
// validated against lim before literals or sequences are materialized.
func (c *Codec) DecompressLimits(comp []byte, lim compress.DecodeLimits) ([]byte, error) {
	inputLen := len(comp)
	var hdr [4]uint64
	for i := range hdr {
		v, n, err := bitio.Uvarint(comp)
		if err != nil {
			return nil, fmt.Errorf("zstd: header: %w", err)
		}
		hdr[i] = v
		comp = comp[n:]
	}
	origSize, nSeq, nLits, lastLits := hdr[0], hdr[1], hdr[2], hdr[3]
	if err := lim.CheckDeclared(origSize, inputLen); err != nil {
		return nil, err
	}
	if nLits > origSize || lastLits > nLits {
		return nil, compress.Errorf(compress.ErrCorrupt, "zstd: inconsistent header")
	}
	r := bitio.NewReader(comp)
	var decs [4]*huffman.Decoder
	sizes := [4]int{256, numValCodes, numValCodes, numValCodes}
	for i := range decs {
		lengths, err := huffman.ReadLengths(r, sizes[i])
		if err != nil {
			return nil, fmt.Errorf("zstd: table %d: %w", i, err)
		}
		decs[i], err = huffman.NewDecoder(lengths)
		if err != nil {
			return nil, fmt.Errorf("zstd: table %d: %w", i, err)
		}
	}
	litDec, llDec, mlDec, ofDec := decs[0], decs[1], decs[2], decs[3]
	if nLits > uint64(r.Remaining()) {
		return nil, compress.Errorf(compress.ErrTruncated, "zstd: literal count %d exceeds input bits", nLits)
	}
	lits := make([]byte, nLits)
	for i := range lits {
		s, err := litDec.Decode(r)
		if err != nil {
			return nil, fmt.Errorf("zstd: literals: %w", err)
		}
		lits[i] = byte(s)
	}
	readVal := func(dec *huffman.Decoder) (int, error) {
		code, err := dec.Decode(r)
		if err != nil {
			return 0, err
		}
		if code >= numValCodes {
			return 0, compress.Errorf(compress.ErrCorrupt, "zstd: bad value code %d", code)
		}
		extra, err := r.ReadBits(uint(code))
		if err != nil {
			return 0, err
		}
		return valDecode(code, extra), nil
	}
	// Cap the initial allocation: origSize is attacker-controlled input.
	capacity := origSize
	if capacity > 1<<20 {
		capacity = 1 << 20
	}
	out := make([]byte, 0, capacity)
	litPos := 0
	for i := uint64(0); i < nSeq; i++ {
		ll, err := readVal(llDec)
		if err != nil {
			return nil, err
		}
		ml, err := readVal(mlDec)
		if err != nil {
			return nil, err
		}
		of, err := readVal(ofDec)
		if err != nil {
			return nil, err
		}
		ml += minMatch
		of++
		if litPos+ll > len(lits) {
			return nil, compress.Errorf(compress.ErrCorrupt, "zstd: literal overrun")
		}
		out = append(out, lits[litPos:litPos+ll]...)
		litPos += ll
		if uint64(len(out)+ml) > origSize {
			return nil, compress.Errorf(compress.ErrCorrupt, "zstd: match overruns output")
		}
		out, err = lz77.AppendMatch(out, of, ml, int(origSize))
		if err != nil {
			return nil, fmt.Errorf("zstd: %w", err)
		}
	}
	if litPos+int(lastLits) != len(lits) {
		return nil, compress.Errorf(compress.ErrCorrupt, "zstd: trailing literal accounting mismatch")
	}
	out = append(out, lits[litPos:]...)
	if uint64(len(out)) != origSize {
		return nil, compress.Errorf(compress.ErrCorrupt, "zstd: size mismatch: got %d want %d", len(out), origSize)
	}
	return out, nil
}

// DecodeIsLight implements compress.LightDecoder: table-driven sequence
// execution decodes at hundreds of MB/s. It only sets the light_decoder
// hint on /v1/codecs.
func (c *Codec) DecodeIsLight() bool { return true }

var _ compress.Codec = (*Codec)(nil)
var _ compress.Describer = (*Codec)(nil)
var _ compress.Limited = (*Codec)(nil)
var _ compress.LightDecoder = (*Codec)(nil)
