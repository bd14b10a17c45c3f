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

func (bitT) Forward(src []byte) ([]byte, error) {
	words, tail := splitWords(src)
	n := len(words)
	out := bitio.PutUvarint(nil, uint64(n))
	out = bitio.PutUvarint(out, uint64(len(tail)))
	planeBytes := (n + 7) / 8
	planes := make([]byte, 32*planeBytes)
	for plane := 31; plane >= 0; plane-- {
		row := planes[(31-plane)*planeBytes:]
		sh := uint(plane)
		i := 0
		for ; i+8 <= n; i += 8 {
			b := byte(words[i]>>sh&1)<<7 |
				byte(words[i+1]>>sh&1)<<6 |
				byte(words[i+2]>>sh&1)<<5 |
				byte(words[i+3]>>sh&1)<<4 |
				byte(words[i+4]>>sh&1)<<3 |
				byte(words[i+5]>>sh&1)<<2 |
				byte(words[i+6]>>sh&1)<<1 |
				byte(words[i+7]>>sh&1)
			row[i/8] = b
		}
		for ; i < n; i++ {
			row[i/8] |= byte(words[i]>>sh&1) << (7 - uint(i)%8)
		}
	}
	out = append(out, planes...)
	return append(out, tail...), nil
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
	tail := src[4*n:]
	out := bitio.PutUvarint(nil, uint64(n))
	out = bitio.PutUvarint(out, uint64(len(tail)))
	for plane := 0; plane < 4; plane++ {
		for i := 0; i < n; i++ {
			out = append(out, src[4*i+plane])
		}
	}
	return append(out, tail...), nil
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
