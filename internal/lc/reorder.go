package lc

import (
	"fmt"

	"positbench/internal/bitio"
)

// Reorder components: size-preserving layout shuffles that group bits or
// bytes with similar statistics so a later coding stage can exploit them.

// bitT is the bit transpose ("bit shuffle"): plane 31 of every word first,
// then plane 30, ... down to plane 0. The middle stage of the paper's best
// posit pipeline.
type bitT struct{}

func (bitT) Name() string { return "BIT" }

// Forward takes the words in groups of eight: byte b of group g's words
// is an 8x8 bit matrix, whose transpose is byte g of planes 8b+7 down to
// 8b.
func (bitT) Forward(src []byte) ([]byte, error) {
	n := len(src) / 4
	planeBytes := (n + 7) / 8
	out := appendWordHeader(make([]byte, 0, wordHeaderLen(src)+32*planeBytes+len(src)%4), src)
	planes := out[len(out) : len(out)+32*planeBytes]
	full := n / 8
	var last [32]byte // the ragged last group, zero words past the end
	copy(last[:], src[32*full:4*n])
	for b := range 4 {
		// Row j of each transpose is plane 8b+7-j, stored 31-plane rows
		// into planes: rows 24-8b to 31-8b.
		rows := planes[(24-8*b)*planeBytes : (32-8*b)*planeBytes]
		for g := range planeBytes {
			group := &last
			if g < full {
				group = (*[32]byte)(src[32*g:])
			}
			// Word i's byte b is row i of the matrix, row 0 on top.
			x := transpose8(uint64(group[b])<<56 | uint64(group[4+b])<<48 |
				uint64(group[8+b])<<40 | uint64(group[12+b])<<32 |
				uint64(group[16+b])<<24 | uint64(group[20+b])<<16 |
				uint64(group[24+b])<<8 | uint64(group[28+b]))
			for j := range 8 {
				rows[j*planeBytes+g] = byte(x >> (56 - 8*j))
			}
		}
	}
	return append(out[:len(out)+32*planeBytes], src[4*n:]...), nil
}

// transpose8 transposes the 8x8 bit matrix x, row i in byte 7-i and column
// j in bit 7-j of each byte (Hacker's Delight, 7-3).
func transpose8(x uint64) uint64 {
	t := (x ^ x>>7) & 0x00AA00AA00AA00AA
	x ^= t ^ t<<7
	t = (x ^ x>>14) & 0x0000CCCC0000CCCC
	x ^= t ^ t<<14
	t = (x ^ x>>28) & 0x00000000F0F0F0F0
	return x ^ t ^ t<<28
}

// size: the headers, 32 planes of ceil(n/8) bytes each, and the tail.
func (bitT) size(src []byte) (int, error) {
	n := len(src) / 4
	return wordHeaderLen(src) + 32*((n+7)/8) + len(src)%4, nil
}

func (bitT) Inverse(src []byte, maxOut int) ([]byte, error) {
	n64, k, err := bitio.Uvarint(src)
	if err != nil {
		return nil, fmt.Errorf("lc/BIT: %w", err)
	}
	src = src[k:]
	tailLen, k, err := bitio.Uvarint(src)
	if err != nil {
		return nil, fmt.Errorf("lc/BIT: %w", err)
	}
	src = src[k:]
	// A huge declared count would wrap 32*planeBytes and slip past the
	// length check below.
	if err := checkDeclaredWords("BIT", n64, tailLen, maxOut); err != nil {
		return nil, err
	}
	n := int(n64)
	planeBytes := (n + 7) / 8
	need := 32*planeBytes + int(tailLen)
	if len(src) != need {
		return nil, fmt.Errorf("lc/BIT: have %d bytes, need %d", len(src), need)
	}
	words := make([]uint32, n)
	for plane := 31; plane >= 0; plane-- {
		row := src[(31-plane)*planeBytes:]
		sh := uint(plane)
		for i := 0; i < n; i++ {
			bit := uint32(row[i/8]>>(7-uint(i)%8)) & 1
			words[i] |= bit << sh
		}
	}
	return joinWords(words, src[32*planeBytes:]), nil
}

// byteT is the byte transpose: byte plane 0 of every word, then plane 1,
// plane 2, plane 3 (the classic "shuffle" filter from HDF5/blosc).
type byteT struct{}

func (byteT) Name() string { return "BYTE" }

func (byteT) Forward(src []byte) ([]byte, error) {
	n := len(src) / 4
	out := appendWordHeader(make([]byte, 0, wordHeaderLen(src)+len(src)), src)
	planes := out[len(out) : len(out)+4*n]
	for i := range n {
		planes[i] = src[4*i]
		planes[n+i] = src[4*i+1]
		planes[2*n+i] = src[4*i+2]
		planes[3*n+i] = src[4*i+3]
	}
	return append(out[:len(out)+4*n], src[4*n:]...), nil
}

func (byteT) size(src []byte) (int, error) { return wordHeaderLen(src) + len(src), nil }

func (byteT) Inverse(src []byte, maxOut int) ([]byte, error) {
	n64, k, err := bitio.Uvarint(src)
	if err != nil {
		return nil, fmt.Errorf("lc/BYTE: %w", err)
	}
	src = src[k:]
	tailLen, k, err := bitio.Uvarint(src)
	if err != nil {
		return nil, fmt.Errorf("lc/BYTE: %w", err)
	}
	src = src[k:]
	// A huge declared count would wrap 4*n and slip past the length check
	// below.
	if err := checkDeclaredWords("BYTE", n64, tailLen, maxOut); err != nil {
		return nil, err
	}
	n := int(n64)
	if len(src) != 4*n+int(tailLen) {
		return nil, fmt.Errorf("lc/BYTE: have %d bytes, need %d", len(src), 4*n+int(tailLen))
	}
	out := make([]byte, 4*n, 4*n+int(tailLen))
	for plane := 0; plane < 4; plane++ {
		for i := 0; i < n; i++ {
			out[4*i+plane] = src[plane*n+i]
		}
	}
	return append(out, src[4*n:]...), nil
}
