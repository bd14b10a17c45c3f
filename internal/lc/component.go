// Package lc implements the LC compression-pipeline synthesis framework:
// a library of invertible data transformations ("components") that are
// composed into fixed-depth pipelines, plus an exhaustive parallel search
// that finds the best pipeline for an input or a corpus.
//
// Components interpret their input as little-endian 32-bit words where that
// matters (every stage named in the paper does), with any ragged tail bytes
// carried through verbatim, so arbitrary compositions stay lossless on
// arbitrary inputs.
package lc

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"positbench/internal/bitio"
)

// Component is one invertible pipeline stage.
type Component interface {
	// Name is the stage identifier used in pipeline strings ("DIFFMS").
	Name() string
	// Forward transforms src; the result may have any length.
	Forward(src []byte) ([]byte, error)
	// Inverse exactly undoes Forward. Stages whose header declares the
	// output size (BIT, BYTE, RZE, RARE, RAZE, HUF) or whose runs expand it
	// (RLE) read attacker-controlled counts: they return
	// compress.ErrLimitExceeded before materializing more than maxOut
	// bytes. maxOut <= 0 means unbounded.
	Inverse(src []byte, maxOut int) ([]byte, error)

	// size returns len(Forward(src)) and Forward's error without building
	// the output. The search calls it for the last stage, whose bytes it
	// never reads.
	size(src []byte) (int, error)
}

// Components returns the full component library in canonical (ID) order.
// Index in this slice is the component's wire ID, so the order is part of
// the LC container format.
func Components() []Component {
	return []Component{
		nul{},                                   // 0
		predictor{"DIFF", 1, delta},             // 1
		predictor{"DIFFMS", 1, zigzagDelta},     // 2
		predictor{"DIFFNB", 1, negabinaryDelta}, // 3
		predictor{"XOR", 1, xorDelta},           // 4
		bitT{},                                  // 5
		byteT{},                                 // 6
		rle{},                                   // 7
		rze{},                                   // 8
		topCoder{"RARE", true},                  // 9
		topCoder{"RAZE", false},                 // 10
		huf{},                                   // 11
		predictor{"DIFF4", 4, delta},            // 12
		predictor{"XOR4", 4, xorDelta},          // 13
	}
}

// nulID is NUL's wire ID, its index in Components().
const nulID = 0

// ByName returns the named component.
func ByName(name string) (Component, error) {
	for _, c := range Components() {
		if c.Name() == name {
			return c, nil
		}
	}
	return nil, fmt.Errorf("lc: unknown component %q", name)
}

// splitWords views the word-aligned prefix of src as little-endian uint32s
// and returns the ragged tail separately.
func splitWords(src []byte) ([]uint32, []byte) {
	n := len(src) / 4
	words := make([]uint32, n)
	for i := 0; i < n; i++ {
		words[i] = binary.LittleEndian.Uint32(src[4*i:])
	}
	return words, src[4*n:]
}

// joinWords serializes words little-endian and appends tail.
func joinWords(words []uint32, tail []byte) []byte {
	out := make([]byte, 4*len(words)+len(tail))
	for i, w := range words {
		binary.LittleEndian.PutUint32(out[4*i:], w)
	}
	copy(out[4*len(words):], tail)
	return out
}

// uvarintLen is len(bitio.PutUvarint(nil, v)).
func uvarintLen(v int) int { return (bits.Len64(uint64(v)|1) + 6) / 7 }

// appendWordHeader appends the word count and tail length of src that BIT,
// BYTE, RZE, RARE and RAZE write first.
func appendWordHeader(dst, src []byte) []byte {
	dst = bitio.PutUvarint(dst, uint64(len(src)/4))
	return bitio.PutUvarint(dst, uint64(len(src)%4))
}

// wordHeaderLen is the size of the word count and tail length that BIT,
// BYTE, RZE, RARE and RAZE write first.
func wordHeaderLen(src []byte) int {
	return uvarintLen(len(src)/4) + uvarintLen(len(src)%4)
}

// nul is the identity stage; its presence in the library means the 3-stage
// search space contains every 1- and 2-stage pipeline as well.
type nul struct{}

func (nul) Name() string                              { return "NUL" }
func (nul) Forward(src []byte) ([]byte, error)        { return append([]byte(nil), src...), nil }
func (nul) Inverse(src []byte, _ int) ([]byte, error) { return append([]byte(nil), src...), nil }
func (nul) size(src []byte) (int, error)              { return len(src), nil }
