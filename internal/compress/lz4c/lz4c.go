// Package lz4c implements the lz4-class codec: byte-oriented LZ77 with a
// 64 KiB window and no entropy stage, using the LZ4 block format (4-bit
// token nibbles with 255-escape extension bytes). The missing entropy stage
// is the property the paper highlights: lowest ratios, highest speed.
package lz4c

import (
	"encoding/binary"
	"fmt"
	"sync"

	"positbench/internal/bitio"
	"positbench/internal/compress"
	"positbench/internal/lz77"
)

const (
	window      = 65535
	minMatch    = 4
	tailLits    = 12 // matches must not start within the final 12 bytes
	tokenEscape = 15
)

// Codec is the lz4-class compressor.
type Codec struct {
	depth int
}

// New returns an lz4 codec with high-compression search depth (HC mode,
// mirroring the paper's maximum-effort settings).
func New() *Codec { return &Codec{depth: 64} }

// NewDepth returns a codec with a custom chain-search depth.
func NewDepth(depth int) *Codec { return &Codec{depth: depth} }

// Name implements compress.Codec.
func (c *Codec) Name() string { return "lz4" }

// Info implements compress.Describer.
func (c *Codec) Info() compress.Info {
	return compress.Info{Name: "lz4", Version: "block-format", Source: "models lz4 1.04 HC (64 KiB window, no entropy stage)"}
}

// matcherPool recycles hash-chain state across chunks; Reset re-targets a
// pooled matcher without reallocating its tables.
var matcherPool = sync.Pool{New: func() any { return new(lz77.Matcher) }}

// Compress implements compress.Codec.
func (c *Codec) Compress(src []byte) ([]byte, error) {
	return c.CompressAppend(nil, src)
}

// CompressAppend implements compress.AppendCompressor, appending the
// compressed block to dst and reusing its capacity.
func (c *Codec) CompressAppend(dst, src []byte) ([]byte, error) {
	if cap(dst) == 0 {
		dst = make([]byte, 0, len(src)/2+16)
	}
	out := bitio.PutUvarint(dst[:0], uint64(len(src)))
	if len(src) == 0 {
		return out, nil
	}
	m := matcherPool.Get().(*lz77.Matcher)
	m.Reset(src, window, c.depth)
	defer func() {
		m.Reset(nil, window, c.depth) // drop the src reference before pooling
		matcherPool.Put(m)
	}()
	litStart := 0
	pos := 0
	emit := func(litEnd, dist, mlen int) {
		nLit := litEnd - litStart
		token := byte(0)
		if nLit >= tokenEscape {
			token = tokenEscape << 4
		} else {
			token = byte(nLit) << 4
		}
		if mlen > 0 {
			if mlen-minMatch >= tokenEscape {
				token |= tokenEscape
			} else {
				token |= byte(mlen - minMatch)
			}
		}
		out = append(out, token)
		if nLit >= tokenEscape {
			out = appendLenExt(out, nLit-tokenEscape)
		}
		out = append(out, src[litStart:litEnd]...)
		if mlen > 0 {
			var off [2]byte
			binary.LittleEndian.PutUint16(off[:], uint16(dist))
			out = append(out, off[0], off[1])
			if mlen-minMatch >= tokenEscape {
				out = appendLenExt(out, mlen-minMatch-tokenEscape)
			}
		}
	}
	matchLimit := len(src) - tailLits
	for pos < matchLimit {
		dist, mlen := m.FindMatch(pos, matchLimit-pos)
		if mlen < minMatch {
			m.Insert(pos)
			pos++
			continue
		}
		emit(pos, dist, mlen)
		for i := 0; i < mlen; i++ {
			m.Insert(pos + i)
		}
		pos += mlen
		litStart = pos
	}
	// Final literal-only sequence.
	emit(len(src), 0, 0)
	return out, nil
}

func appendLenExt(out []byte, v int) []byte {
	for v >= 255 {
		out = append(out, 255)
		v -= 255
	}
	return append(out, byte(v))
}

// Decompress implements compress.Codec with default decode limits.
func (c *Codec) Decompress(comp []byte) ([]byte, error) {
	return c.DecompressLimits(comp, compress.DecodeLimits{})
}

// DecompressLimits implements compress.Limited: the declared size is checked
// against lim before any allocation, and every match copy is bounded.
func (c *Codec) DecompressLimits(comp []byte, lim compress.DecodeLimits) ([]byte, error) {
	return c.DecompressAppendLimits(nil, comp, lim)
}

// DecompressAppendLimits implements compress.AppendDecompressor, appending
// the decoded block to dst and reusing its capacity.
func (c *Codec) DecompressAppendLimits(dst, comp []byte, lim compress.DecodeLimits) ([]byte, error) {
	size, n, err := bitio.Uvarint(comp)
	if err != nil {
		return nil, fmt.Errorf("lz4: %w", err)
	}
	if err := lim.CheckDeclared(size, len(comp)); err != nil {
		return nil, err
	}
	comp = comp[n:]
	out := dst[:0]
	if uint64(cap(out)) < size {
		// Cap the initial allocation: size is attacker-controlled input.
		capacity := size
		if capacity > 1<<20 {
			capacity = 1 << 20
		}
		if uint64(cap(out)) < capacity {
			out = make([]byte, 0, capacity)
		}
	}
	i := 0
	for uint64(len(out)) < size {
		if i >= len(comp) {
			return nil, compress.Errorf(compress.ErrTruncated, "lz4: truncated stream")
		}
		token := comp[i]
		i++
		nLit := int(token >> 4)
		if nLit == tokenEscape {
			nLit, i, err = readLenExt(comp, i, nLit)
			if err != nil {
				return nil, err
			}
		}
		if i+nLit > len(comp) {
			return nil, compress.Errorf(compress.ErrTruncated, "lz4: literal overrun")
		}
		if uint64(len(out)+nLit) > size {
			return nil, compress.Errorf(compress.ErrCorrupt, "lz4: literals overrun declared size")
		}
		out = append(out, comp[i:i+nLit]...)
		i += nLit
		if uint64(len(out)) >= size {
			break // final sequence has no match part
		}
		if i+2 > len(comp) {
			return nil, compress.Errorf(compress.ErrTruncated, "lz4: missing offset")
		}
		dist := int(binary.LittleEndian.Uint16(comp[i:]))
		i += 2
		mlen := int(token&0xF) + minMatch
		if token&0xF == tokenEscape {
			var ext int
			ext, i, err = readLenExt(comp, i, 0)
			if err != nil {
				return nil, err
			}
			mlen += ext
		}
		if uint64(len(out)+mlen) > size {
			return nil, compress.Errorf(compress.ErrCorrupt, "lz4: match overruns declared size")
		}
		// Overlapping matches are the RLE mechanism; AppendMatch handles them.
		out, err = lz77.AppendMatch(out, dist, mlen, int(size))
		if err != nil {
			return nil, fmt.Errorf("lz4: %w", err)
		}
	}
	if uint64(len(out)) != size {
		return nil, compress.Errorf(compress.ErrCorrupt, "lz4: size mismatch: got %d want %d", len(out), size)
	}
	return out, nil
}

func readLenExt(comp []byte, i, base int) (int, int, error) {
	v := base
	for {
		if i >= len(comp) {
			return 0, i, compress.Errorf(compress.ErrTruncated, "lz4: truncated length")
		}
		b := comp[i]
		i++
		v += int(b)
		if b != 255 {
			return v, i, nil
		}
		if v > 1<<31 {
			return 0, i, compress.Errorf(compress.ErrCorrupt, "lz4: length overflow")
		}
	}
}

// DecodeIsLight implements compress.LightDecoder: LZ4 decode is pure byte
// copying. It only sets the light_decoder hint on /v1/codecs.
func (c *Codec) DecodeIsLight() bool { return true }

var _ compress.Codec = (*Codec)(nil)
var _ compress.Describer = (*Codec)(nil)
var _ compress.Limited = (*Codec)(nil)
var _ compress.AppendCompressor = (*Codec)(nil)
var _ compress.AppendDecompressor = (*Codec)(nil)
var _ compress.LightDecoder = (*Codec)(nil)
