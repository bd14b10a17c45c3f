package lc

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"testing"

	"positbench/internal/bitio"
	"positbench/internal/huffman"
)

// The stage kernels as they were before they went word-at-a-time: each is
// the oracle for the kernel that replaced it, on sizeCases
// (TestKernelsMatchOracles).

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

// bitForwardByPlane is BIT's Forward that pulls one bit out of every word
// per plane, 32 passes over the words.
func bitForwardByPlane(src []byte) []byte {
	words, tail := splitWords(src)
	n := len(words)
	out := bitio.PutUvarint(nil, uint64(n))
	out = bitio.PutUvarint(out, uint64(len(tail)))
	planeBytes := (n + 7) / 8
	planes := make([]byte, 32*planeBytes)
	for plane := 31; plane >= 0; plane-- {
		row := planes[(31-plane)*planeBytes:]
		sh := uint(plane)
		for i := 0; i < n; i++ {
			row[i/8] |= byte(words[i]>>sh&1) << (7 - uint(i)%8)
		}
	}
	out = append(out, planes...)
	return append(out, tail...)
}

// bitInverseByPlane is BIT's Inverse that puts back one bit of every word
// per plane, 32 passes over the words. src must be a well-formed BIT
// stream.
func bitInverseByPlane(src []byte) []byte {
	n, k, _ := bitio.Uvarint(src)
	tailLen, k2, _ := bitio.Uvarint(src[k:])
	src = src[k+k2:]
	planeBytes := (int(n) + 7) / 8
	words := make([]uint32, n)
	for plane := 31; plane >= 0; plane-- {
		row := src[(31-plane)*planeBytes:]
		for i := range words {
			words[i] |= uint32(row[i/8]>>(7-uint(i)%8)) & 1 << uint(plane)
		}
	}
	out := make([]byte, 0, 4*len(words)+int(tailLen))
	for _, w := range words {
		out = binary.LittleEndian.AppendUint32(out, w)
	}
	return append(out, src[32*planeBytes:]...)
}

// byteForwardAppend is BYTE's Forward with one append per byte.
func byteForwardAppend(src []byte) []byte {
	n := len(src) / 4
	out := bitio.PutUvarint(nil, uint64(n))
	out = bitio.PutUvarint(out, uint64(len(src)-4*n))
	for plane := 0; plane < 4; plane++ {
		for i := 0; i < n; i++ {
			out = append(out, src[4*i+plane])
		}
	}
	return append(out, src[4*n:]...)
}

// occupancyCopying is RZE's occupancy that copies every group of eight
// words before it tests them.
func occupancyCopying(src []byte) ([]byte, int) {
	n := len(src) / 4
	occupied := make([]byte, (n+7)/8)
	nonzero := 0
	for j := range occupied {
		var g [32]byte
		copy(g[:], src[32*j:4*n])
		var bits8 byte
		for i := range 8 {
			bits8 = bits8<<1 | b2u8(binary.LittleEndian.Uint32(g[4*i:]) != 0)
		}
		occupied[j] = bits8
		nonzero += bits.OnesCount8(bits8)
	}
	return occupied, nonzero
}

// scanByByte is RARE's and RAZE's scan with one histogram and one lead
// count compared with k at a time.
func scanByByte(t topCoder, src []byte) (k, flagged int, flags []byte) {
	n := len(src) / 4
	var same uint32
	if t.repeat {
		same = ^uint32(0)
	}
	lead := make([]byte, n)
	var hist [33]int
	prev := uint32(0)
	for i := range lead {
		w := binary.LittleEndian.Uint32(src[4*i:])
		l := bits.LeadingZeros32(w ^ prev&same)
		lead[i] = byte(l)
		hist[l]++
		prev = w
	}
	k, flagged = chooseK(&hist, n)
	flags = make([]byte, (n+7)/8)
	for j := range flags {
		var g [8]byte
		copy(g[:], lead[8*j:])
		var bits8 byte
		for _, l := range g {
			bits8 = bits8<<1 | b2u8(int(l) >= k)
		}
		flags[j] = bits8
	}
	return k, flagged, flags
}

// topForwardTwoWriters is RARE's and RAZE's Forward that writes the tops
// and the bottoms through writers of their own and then concatenates.
func topForwardTwoWriters(t topCoder, src []byte) []byte {
	n := len(src) / 4
	k, _, flags := scanByByte(t, src)
	tops := bitio.NewWriter(n/2 + 8)
	bottoms := bitio.NewWriter(n*4 + 8)
	for i := 0; i < n; i++ {
		w := binary.LittleEndian.Uint32(src[4*i:])
		if flags[i/8]>>(7-i%8)&1 == 0 {
			tops.WriteBits(uint64(w>>(32-uint(k))), uint(k))
		}
		bottoms.WriteBits(uint64(w)&(1<<(32-uint(k))-1), 32-uint(k))
	}
	out := bitio.PutUvarint(nil, uint64(n))
	out = bitio.PutUvarint(out, uint64(len(src)-4*n))
	out = append(out, byte(k))
	out = append(out, encodeBitmapBody(flags)...)
	tb := tops.Bytes()
	out = bitio.PutUvarint(out, uint64(len(tb)))
	out = append(out, tb...)
	out = append(out, bottoms.Bytes()...)
	return append(out, src[4*n:]...)
}

// hufForwardCodeThenEscape is HUF's Forward that codes all of src and
// then stores src instead when the coded body is not shorter.
func hufForwardCodeThenEscape(src []byte) ([]byte, error) {
	freqs := byteCounts(src)
	lengths, err := huffman.BuildLengths(freqs[:], huffman.MaxBits)
	if err != nil {
		return nil, err
	}
	enc, err := huffman.NewEncoder(lengths)
	if err != nil {
		return nil, err
	}
	w := bitio.NewWriter(len(src)/2 + 160)
	if err := huffman.WriteLengths(w, lengths); err != nil {
		return nil, err
	}
	for _, b := range src {
		enc.Encode(w, int(b))
	}
	body := w.Bytes()
	if len(body) >= len(src) {
		return append(bitio.PutUvarint([]byte{0}, uint64(len(src))), src...), nil
	}
	return append(bitio.PutUvarint([]byte{1}, uint64(len(src))), body...), nil
}

// TestKernelsMatchOracles checks BIT's 8x8 transposes in both directions,
// BYTE's indexed planes, RZE's in-place occupancy, RARE's and RAZE's word
// scan and one-writer Forward, and HUF's decide-then-code Forward against
// the kernels they replaced, byte for byte.
func TestKernelsMatchOracles(t *testing.T) {
	names, cases := sizeCases(t)
	mustForward := func(c Component, src []byte) []byte {
		t.Helper()
		out, err := c.Forward(src)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		return out
	}
	for i, src := range cases {
		bit := mustForward(bitT{}, src)
		if want := bitForwardByPlane(src); !bytes.Equal(bit, want) {
			t.Fatalf("BIT on %s: Forward %x, by plane %x", names[i], bit, want)
		}
		if got, err := (bitT{}).Inverse(bit, 0); err != nil || !bytes.Equal(got, bitInverseByPlane(bit)) {
			t.Fatalf("BIT on %s: Inverse %x, %v; by plane %x", names[i], got, err, bitInverseByPlane(bit))
		}
		if got, want := mustForward(byteT{}, src), byteForwardAppend(src); !bytes.Equal(got, want) {
			t.Fatalf("BYTE on %s: Forward %x, appending %x", names[i], got, want)
		}
		occupied, nonzero := occupancy(src, nil)
		wantOcc, wantNonzero := occupancyCopying(src)
		if !bytes.Equal(occupied, wantOcc) || nonzero != wantNonzero {
			t.Fatalf("occupancy on %s: %x (%d nonzero), copying %x (%d)", names[i], occupied, nonzero, wantOcc, wantNonzero)
		}
		for _, tc := range []topCoder{{"RARE", true}, {"RAZE", false}} {
			k, flagged, flags := tc.scan(src, nil)
			wantK, wantFlagged, wantFlags := scanByByte(tc, src)
			if k != wantK || flagged != wantFlagged || !bytes.Equal(flags, wantFlags) {
				t.Fatalf("%s scan on %s: k %d, %d flagged, flags %x; by byte k %d, %d flagged, flags %x",
					tc.name, names[i], k, flagged, flags, wantK, wantFlagged, wantFlags)
			}
			if got, want := mustForward(tc, src), topForwardTwoWriters(tc, src); !bytes.Equal(got, want) {
				t.Fatalf("%s on %s: Forward %x, two writers %x", tc.name, names[i], got, want)
			}
		}
		got, err := huf{}.Forward(src)
		want, werr := hufForwardCodeThenEscape(src)
		if (err == nil) != (werr == nil) || !bytes.Equal(got, want) {
			t.Fatalf("HUF on %s: Forward %x, %v; code then escape %x, %v", names[i], got, err, want, werr)
		}
	}
}

// TestAtLeast checks the SWAR flag byte against one comparison per lane
// for every lead count 0-32 in every lane and every k 1-31.
func TestAtLeast(t *testing.T) {
	for k := 1; k <= 31; k++ {
		for lane := range 8 {
			for l := 0; l <= 32; l++ {
				var counts [8]byte
				for i := range counts {
					counts[i] = byte((l + 5*i) % 33) // the other lanes vary too
				}
				counts[lane] = byte(l)
				var want byte
				for _, c := range counts {
					want = want<<1 | b2u8(int(c) >= k)
				}
				if got := atLeast(binary.LittleEndian.Uint64(counts[:]), k); got != want {
					t.Fatalf("k %d, counts %v: %08b, want %08b", k, counts, got, want)
				}
			}
		}
	}
}
