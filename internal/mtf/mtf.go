// Package mtf implements the move-to-front transform and the bzip2-style
// run-length codings that bracket it: RLE1 (byte-level run clamping applied
// before the BWT) and the RUNA/RUNB zero-run coding applied after MTF.
package mtf

import (
	"bytes"

	"positbench/internal/compress"
)

// Encode applies the move-to-front transform in place semantics: the result
// has the same length as src. Small output values indicate recently used
// bytes, which is what makes post-BWT data highly compressible.
//
// The table is a permutation of the 256 byte values, so each byte's rank
// is its only occurrence, and bytes.IndexByte finds it with vector loads
// instead of a byte-at-a-time scan (the flat table and its memmove stay;
// see DecodeRunsMTFLimit). A repeat of the front byte, the common case
// after the BWT, skips the search.
func Encode(src []byte) []byte {
	var table [256]byte
	for i := range table {
		table[i] = byte(i)
	}
	out := make([]byte, len(src))
	for i, b := range src {
		if table[0] == b {
			continue // out[i] is already 0
		}
		j := bytes.IndexByte(table[1:], b) + 1
		out[i] = byte(j)
		copy(table[1:j+1], table[:j])
		table[0] = b
	}
	return out
}

// Decode inverts Encode.
func Decode(src []byte) []byte {
	var table [256]byte
	for i := range table {
		table[i] = byte(i)
	}
	out := make([]byte, len(src))
	for i, j := range src {
		b := table[j]
		out[i] = b
		copy(table[1:int(j)+1], table[:j])
		table[0] = b
	}
	return out
}

// RLE1 applies bzip2's first run-length stage: any run of 4..259 identical
// bytes becomes the 4 bytes followed by a count byte (run-4). This bounds
// the damage pathological runs do to the rotation sort.
func RLE1(src []byte) []byte {
	out := make([]byte, 0, len(src)+len(src)/4+16)
	for i := 0; i < len(src); {
		j := nextRun(src, i)
		out = append(out, src[i:j]...)
		if j == len(src) {
			break
		}
		run := rle1Run(src[j:])
		b := src[j]
		out = append(out, b, b, b, b, byte(run-4))
		i = j + run
	}
	return out
}

// RLE1Len returns len(RLE1(src)) without building the output.
func RLE1Len(src []byte) int {
	n := 0
	for i := 0; i < len(src); {
		j := nextRun(src, i)
		n += j - i
		if j == len(src) {
			break
		}
		n += 5
		i = j + rle1Run(src[j:])
	}
	return n
}

// nextRun returns the first j >= i at which src holds four identical
// bytes, or len(src) if there is none. Everything before j is literal,
// both in RLE1's input and in its output. If src[j+3] differs from
// src[j+2], no run of 4 can start at j, j+1 or j+2, so the scan advances
// 3 positions per probe over literal data.
func nextRun(src []byte, i int) int {
	for j := i; j+3 < len(src); {
		if src[j+3] != src[j+2] {
			j += 3
			continue
		}
		b := src[j]
		if b == src[j+1] && b == src[j+2] {
			return j
		}
		j++
	}
	return len(src)
}

// rle1Run is the length of the run RLE1 codes at the start of the
// nonempty src: repeats of src[0], at most 259.
func rle1Run(src []byte) int {
	run := 1
	for run < len(src) && src[run] == src[0] && run < 259 {
		run++
	}
	return run
}

// UnRLE1Limit inverts RLE1, failing with compress.ErrLimitExceeded once the
// output would exceed maxOut bytes (maxOut <= 0 means unbounded). The bound
// is enforced before each run is materialized, so a hostile stream cannot
// force a large allocation.
func UnRLE1Limit(src []byte, maxOut int) ([]byte, error) {
	out := make([]byte, 0, len(src)+len(src)/4)
	i := 0
	for i < len(src) {
		// Everything before the next run of 4 identical bytes is literal
		// and copied in one append.
		j := nextRun(src, i)
		if maxOut > 0 && len(out)+j-i > maxOut {
			return nil, compress.Errorf(compress.ErrLimitExceeded, "mtf: RLE1 output exceeds %d bytes", maxOut)
		}
		out = append(out, src[i:j]...)
		if j == len(src) {
			return out, nil
		}
		if j+4 >= len(src) {
			return nil, compress.Errorf(compress.ErrTruncated, "mtf: truncated RLE1 run")
		}
		total := 4 + int(src[j+4])
		if maxOut > 0 && len(out)+total > maxOut {
			return nil, compress.Errorf(compress.ErrLimitExceeded, "mtf: RLE1 output exceeds %d bytes", maxOut)
		}
		out = appendRepeat(out, src[j], total)
		i = j + 5
	}
	return out, nil
}

// Zero-run symbols produced by EncodeZeroRuns. Symbols RunA and RunB encode
// zero-run lengths in bijective base 2 (bzip2's RUNA/RUNB scheme); byte
// value v > 0 becomes symbol v+1. The caller appends its own EOB symbol.
const (
	RunA = 0
	RunB = 1
)

// EncodeZeroRuns converts an MTF byte stream into zero-run symbols:
// runs of zeros are emitted as RUNA/RUNB digits (bijective base 2, least
// significant digit first); a nonzero byte v becomes symbol v+1.
// The resulting alphabet is 0..256.
func EncodeZeroRuns(src []byte) []uint16 {
	out := make([]uint16, 0, len(src))
	i := 0
	for i < len(src) {
		if src[i] != 0 {
			out = append(out, uint16(src[i])+1)
			i++
			continue
		}
		run := 0
		for i < len(src) && src[i] == 0 {
			run++
			i++
		}
		// Bijective base-2 digits of run: digits in {1,2} -> {RUNA,RUNB}.
		for run > 0 {
			d := run & 1 // 1 -> RUNA, 0 (i.e. digit 2) -> RUNB
			if d == 1 {
				out = append(out, RunA)
				run = (run - 1) / 2
			} else {
				out = append(out, RunB)
				run = (run - 2) / 2
			}
		}
	}
	return out
}

// DecodeRunsMTFLimit inverts EncodeZeroRuns composed with Encode in a single
// pass: a RUNA/RUNB zero run decodes to repeats of the current front of the
// MTF table, which leaves the table untouched, so the zero bytes of the
// intermediate MTF stream are bulk-filled without ever being re-scanned.
// Post-BWT data is mostly runs, making this the fast path of the bzip2-class
// block decoder. It fails with compress.ErrLimitExceeded once the output
// would exceed maxOut bytes (maxOut <= 0 means unbounded). A handful of
// RUNA/RUNB symbols can encode a multi-gigabyte zero run, so the bound is
// checked before the run is materialized.
func DecodeRunsMTFLimit(src []uint16, maxOut int) ([]byte, error) {
	// A flat 256-byte table with memmove promotion was measured 2x faster
	// here than bzip2's two-level 16x16 sliding-base scheme: a <=255-byte
	// memmove inside one or two L1 lines costs a few cycles on current
	// hardware, while the two-level cascade replaces it with up to 31
	// dependent single-byte loads and stores. The classic structure predates
	// vectorized memmove; do not "upgrade" to it.
	var table [256]byte
	for i := range table {
		table[i] = byte(i)
	}
	// When the caller bounds the output it knows the decoded size (the block
	// length), so allocating the bound up front avoids every growth copy.
	capHint := len(src)
	if maxOut > 0 {
		capHint = maxOut
	}
	out := make([]byte, 0, capHint)
	i := 0
	for i < len(src) {
		s := src[i]
		if s > 1 {
			if s > 256 {
				return nil, compress.Errorf(compress.ErrCorrupt, "mtf: symbol %d out of range", s)
			}
			if maxOut > 0 && len(out) >= maxOut {
				return nil, compress.Errorf(compress.ErrLimitExceeded, "mtf: zero-run output exceeds %d bytes", maxOut)
			}
			j := int(s - 1)
			b := table[j]
			out = append(out, b)
			if j < 16 {
				// Short moves dominate on MTF output; a register loop beats
				// the memmove call overhead.
				for k := j; k > 0; k-- {
					table[k] = table[k-1]
				}
			} else {
				copy(table[1:j+1], table[:j])
			}
			table[0] = b
			i++
			continue
		}
		run, ni, err := zeroRunLen(src, i)
		if err != nil {
			return nil, err
		}
		i = ni
		if maxOut > 0 && len(out)+run > maxOut {
			return nil, compress.Errorf(compress.ErrLimitExceeded, "mtf: zero-run output exceeds %d bytes", maxOut)
		}
		out = appendRepeat(out, table[0], run)
	}
	return out, nil
}

// zeroRunLen collects the RUNA/RUNB digits starting at src[i] (bijective
// base 2, least significant first) and returns the run length and the index
// past the digits.
func zeroRunLen(src []uint16, i int) (run, next int, err error) {
	const maxRun = 1 << 31
	weight := 1
	for i < len(src) && src[i] <= 1 {
		if src[i] == RunA {
			run += weight
		} else {
			run += 2 * weight
		}
		weight *= 2
		if run > maxRun || weight > maxRun {
			return 0, 0, compress.Errorf(compress.ErrCorrupt, "mtf: zero run too long")
		}
		i++
	}
	return run, i, nil
}

// appendRepeat appends count copies of b. Long runs are materialized with
// doubling copies (memmove) instead of a byte loop.
func appendRepeat(out []byte, b byte, count int) []byte {
	n := len(out)
	total := n + count
	for cap(out) < total {
		out = append(out[:cap(out)], 0)
	}
	out = out[:total]
	if count < 16 {
		for ; n < total; n++ {
			out[n] = b
		}
		return out
	}
	fs := n
	out[n] = b
	n++
	for n < total {
		n += copy(out[n:], out[fs:n])
	}
	return out
}
