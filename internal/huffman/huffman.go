// Package huffman implements canonical, length-limited Huffman coding over
// arbitrary alphabets. It is the entropy stage of the bzip2-class and
// zstd-class codecs and of LC's terminal HUF component.
package huffman

import (
	"fmt"
	"math/bits"
	"slices"

	"positbench/internal/bitio"
	"positbench/internal/compress"
)

// MaxBits is the default code-length limit.
const MaxBits = 15

// stackAlphabet is the largest alphabet whose construction scratch
// BuildLengths keeps on the stack: bzip2's 258 symbols (RUNA, RUNB, 255
// MTF values and EOB), which also covers every byte alphabet.
const stackAlphabet = 258

// BuildLengths computes near-optimal code lengths (<= maxBits) for the given
// symbol frequencies. Symbols with zero frequency get length 0 (no code).
// If only one symbol has nonzero frequency it is assigned length 1. A
// frequency too large to sort beside its symbol's index in 63 bits is an
// error: for 256 symbols, one of 2^55 or more. For alphabets of up to 258
// symbols the returned lengths are the only allocation.
func BuildLengths(freqs []int, maxBits int) ([]uint8, error) {
	if maxBits < 1 || maxBits > 30 {
		return nil, fmt.Errorf("huffman: maxBits %d out of range", maxBits)
	}
	n := len(freqs)
	if n == 0 {
		return nil, fmt.Errorf("huffman: empty alphabet")
	}
	if n > 1<<maxBits {
		return nil, fmt.Errorf("huffman: alphabet size %d exceeds 2^%d", n, maxBits)
	}
	var keyBuf, mergedBuf [stackAlphabet]uint64
	var parentBuf [2 * stackAlphabet]int32
	keys, merged, parent := keyBuf[:], mergedBuf[:], parentBuf[:]
	if n > stackAlphabet {
		keys, merged, parent = make([]uint64, n), make([]uint64, n), make([]int32, 2*n)
	}
	keys, shift, err := packKeys(freqs, keys)
	if err != nil {
		return nil, err
	}
	lengths := make([]uint8, n)
	for {
		if buildTree(keys, shift, lengths, merged, parent) <= maxBits {
			return lengths, nil
		}
		// Flatten the distribution and retry; this converges because all
		// frequencies eventually reach 1, which yields a balanced tree of
		// depth ceil(log2(n)) <= maxBits. Halving keeps every frequency
		// nonzero and its symbol in place; buildTree re-sorts the keys.
		for i, k := range keys {
			keys[i] = (k>>shift+1)/2<<shift | k&(1<<shift-1)
		}
	}
}

// maxFreq is the largest frequency BuildLengths accepts for an alphabet of
// n symbols: it packs each frequency above its symbol's index into one
// uint64 sort key, and keeps every key and every sum of n frequencies
// below 2^63.
func maxFreq(n int) int { return 1<<(63-symbolBits(n)) - 1 }

// symbolBits is the width of a symbol index in an alphabet of n symbols.
func symbolBits(n int) uint { return uint(bits.Len(uint(max(n, 1) - 1))) }

// packKeys writes the key freq<<shift | symbol of every nonzero frequency
// into keys[:0], in symbol order, and returns them with shift.
func packKeys(freqs []int, keys []uint64) ([]uint64, uint, error) {
	shift, limit := symbolBits(len(freqs)), maxFreq(len(freqs))
	keys = keys[:0]
	for sym, f := range freqs {
		if f > limit {
			return nil, 0, fmt.Errorf("huffman: frequency %d of symbol %d exceeds %d", f, sym, limit)
		}
		if f > 0 {
			keys = append(keys, uint64(f)<<shift|uint64(sym))
		}
	}
	return keys, shift, nil
}

// buildTree sorts keys (see packKeys) and builds an unlimited Huffman tree
// over them. It writes each symbol's depth to lengths (truncated to uint8;
// callers retry when the result exceeds their limit) and returns the
// deepest one. merged needs len(keys) entries and parent 2*len(keys).
//
// It is van Leeuwen's two-queue construction (1976): leaves sorted by
// (freq, symbol) in one queue, merged nodes in creation order in the other.
// Merged weights never decrease, so the smaller queue head is the global
// minimum. Every node is ordered by (freq, then order), where a leaf's
// order is its symbol and the k-th merged node's is len(freqs)+k; that is
// a strict total order, so each step pops the same node a min-heap on it
// would, and the tree (hence every length) is the heap's.
func buildTree(keys []uint64, shift uint, lengths []uint8, merged []uint64, parent []int32) int {
	m := len(keys)
	mask := uint64(1)<<shift - 1
	switch m {
	case 0:
		return 0
	case 1:
		lengths[keys[0]&mask] = 1
		return 1
	}
	// Packed keys sort by frequency, then symbol: the leaf order.
	sortKeys(keys, merged)
	// Node i < m is the i-th sorted leaf; node m+k is the k-th merged node,
	// whose weight is merged[k].
	nextLeaf, nextMerged := 0, 0
	for k := 0; k < m-1; k++ {
		var w uint64
		for range 2 {
			// A leaf wins a weight tie: its order is below every merged
			// node's. Merged nodes 0..k-1 exist so far.
			var child int
			if nextLeaf < m && (nextMerged == k || keys[nextLeaf]>>shift <= merged[nextMerged]) {
				child, w = nextLeaf, w+keys[nextLeaf]>>shift
				nextLeaf++
			} else {
				child, w = m+nextMerged, w+merged[nextMerged]
				nextMerged++
			}
			parent[child] = int32(m + k)
		}
		merged[k] = w
	}
	// Every parent was created after its children, so one backward pass
	// sees a node's depth before its children's, and can overwrite each
	// parent index with the node's depth.
	depth := parent
	depth[2*m-2] = 0
	for i := 2*m - 3; i >= 0; i-- {
		depth[i] = depth[parent[i]] + 1
	}
	maxLen := int32(0)
	for i, key := range keys {
		lengths[key&mask] = uint8(depth[i])
		maxLen = max(maxLen, depth[i])
	}
	return int(maxLen)
}

// sortKeys sorts keys ascending with an LSD radix sort on 8-bit digits,
// using scratch (at least len(keys) entries) as the other buffer. It stops
// at the largest key's top byte and skips any digit every key shares. The
// keys are distinct (each holds its symbol), so any correct sort gives the
// same order as any other. bzip2's tables and LC's HUF sizes sort mostly
// 150 to 258 keys, where this runs about 3.5 times as fast as slices.Sort.
func sortKeys(keys, scratch []uint64) {
	var all uint64
	for _, k := range keys {
		all |= k
	}
	src, dst := keys, scratch[:len(keys)]
	for shift := uint(0); shift < 64 && all>>shift != 0; shift += 8 {
		var count [256]int
		for _, k := range src {
			count[byte(k>>shift)]++
		}
		if count[byte(src[0]>>shift)] == len(src) {
			continue // every key has this digit: the pass is the identity
		}
		sum := 0
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for _, k := range src {
			d := byte(k >> shift)
			dst[count[d]] = k
			count[d]++
		}
		src, dst = dst, src
	}
	copy(keys, src) // a no-op when the sorted keys are already in keys
}

// canonicalCodes assigns canonical codes (shorter codes first, ties by
// symbol order) from a length table. It also returns, for each length l
// up to the longest, the number of codes of length l and the first of
// them; count[0] is 0.
func canonicalCodes(lengths []uint8) (codes []uint32, count []int, first []uint32, err error) {
	maxLen := uint8(0)
	for _, l := range lengths {
		maxLen = max(maxLen, l)
	}
	count = make([]int, maxLen+1)
	for _, l := range lengths {
		count[l]++
	}
	count[0] = 0
	first = make([]uint32, maxLen+1)
	code := uint32(0)
	for l := uint8(1); l <= maxLen; l++ {
		code = (code + uint32(count[l-1])) << 1
		first[l] = code
	}
	// Kraft check.
	var kraft uint64
	for _, l := range lengths {
		if l > 0 {
			kraft += 1 << (uint(maxLen) - uint(l))
		}
	}
	if kraft > 1<<uint(maxLen) {
		return nil, nil, nil, compress.Errorf(compress.ErrCorrupt, "huffman: over-subscribed length table")
	}
	codes = make([]uint32, len(lengths))
	next := slices.Clone(first)
	for sym, l := range lengths {
		if l == 0 {
			continue
		}
		codes[sym] = next[l]
		next[l]++
	}
	return codes, count, first, nil
}

// Encoder emits canonical Huffman codes for symbols.
type Encoder struct {
	codes   []uint32
	lengths []uint8
}

// NewEncoder builds an encoder from a length table.
func NewEncoder(lengths []uint8) (*Encoder, error) {
	codes, _, _, err := canonicalCodes(lengths)
	if err != nil {
		return nil, err
	}
	return &Encoder{codes: codes, lengths: lengths}, nil
}

// Encode appends the code for sym to w.
func (e *Encoder) Encode(w *bitio.Writer, sym int) {
	w.WriteBits(uint64(e.codes[sym]), uint(e.lengths[sym]))
}

// rootBits is the width of the decoder's one-step lookup table: every code
// of length <= rootBits decodes with a single peek + table index. 2^11
// entries x 4 bytes = 8 KiB per table, built once per NewDecoder; codes
// longer than rootBits (rare by construction: canonical Huffman assigns
// long codes to rare symbols) fall back to the canonical walk.
const rootBits = 11

// Decoder decodes canonical Huffman codes.
type Decoder struct {
	maxLen    uint8
	rootBits  uint     // min(maxLen, rootBits): bits peeked per fast decode
	root      []uint32 // entry = sym<<4 | len; 0 = long code or invalid prefix
	firstCode []uint32 // first canonical code of each length
	firstSym  []int    // index into syms of the first symbol of each length
	counts    []int    // number of codes of each length
	syms      []int    // symbols in canonical order
}

// NewDecoder builds a decoder from a length table. One walk over the
// symbols places each in syms at its canonical rank, which is its code
// minus the first code of its length, and fills the root table: for a code
// of length l <= rootBits, every rootBits-wide bit pattern that starts
// with the code maps to (sym, l). Prefixes of longer codes and junk
// patterns stay 0 and take the canonical-walk fallback. Alphabets too
// large for the packed entry layout (never hit by the codecs: symbols must
// fit 28 bits) skip the table.
func NewDecoder(lengths []uint8) (*Decoder, error) {
	codes, counts, firstCode, err := canonicalCodes(lengths)
	if err != nil {
		return nil, err
	}
	maxLen := uint8(len(counts) - 1)
	d := &Decoder{maxLen: maxLen, firstCode: firstCode, firstSym: make([]int, maxLen+1), counts: counts}
	n := 0
	for l, c := range counts {
		d.firstSym[l] = n
		n += c
	}
	d.syms = make([]int, n)
	if maxLen > 0 && len(lengths) <= 1<<28 {
		d.rootBits = min(uint(maxLen), rootBits)
		d.root = make([]uint32, 1<<d.rootBits)
	}
	rb := d.rootBits
	for sym, l := range lengths {
		if l == 0 {
			continue
		}
		code := codes[sym]
		d.syms[d.firstSym[l]+int(code-firstCode[l])] = sym
		if d.root != nil && uint(l) <= rb {
			slots := d.root[code<<(rb-uint(l)):][:1<<(rb-uint(l))]
			for j := range slots {
				slots[j] = uint32(sym)<<4 | uint32(l)
			}
		}
	}
	return d, nil
}

// Decode reads one symbol from r. Codes of length <= rootBits resolve with
// one PeekBits and a table index; longer codes (and corrupt prefixes) fall
// back to the canonical walk.
func (d *Decoder) Decode(r *bitio.Reader) (int, error) {
	if d.root != nil {
		if e := d.root[r.PeekBits(d.rootBits)]; e != 0 {
			// The peek is zero-padded at end of stream, so a matched entry
			// may claim more bits than remain; Consume detects that.
			if err := r.Consume(uint(e & 15)); err != nil {
				return 0, err
			}
			return int(e >> 4), nil
		}
	}
	return d.decodeSlow(r)
}

// DecodeBatch decodes symbols into dst until dst is full or the stop symbol
// is decoded (stop is consumed but not stored). It returns the number of
// symbols stored and whether stop ended the batch. One call replaces a
// per-symbol Decode loop, keeping the root-table lookup and the bit reader
// hot across an entire run of symbols.
func (d *Decoder) DecodeBatch(r *bitio.Reader, dst []uint16, stop int) (int, bool, error) {
	k := 0
	root, rb := d.root, d.rootBits
	// Fast section: decode from the lookahead word in registers, settling
	// consumed bits with one Drop per refill instead of a PeekBits+Consume
	// method-call pair per symbol. With >= 57 bits per refill and codes of
	// at most MaxBits, several symbols decode per iteration. The guard
	// nb >= MaxBits guarantees any root entry's length fits the valid bits,
	// so Drop never overruns; near end of stream (nb < MaxBits) the loop
	// below takes over with its zero-padding-aware Peek/Consume handling.
	if root != nil {
		for k < len(dst) {
			w, nb := r.Lookahead()
			if nb < MaxBits {
				break
			}
			n0 := nb
			long := false
			for nb >= MaxBits && k < len(dst) {
				e := root[w>>(64-rb)]
				if e == 0 {
					long = true
					break
				}
				w <<= e & 15
				nb -= uint(e & 15)
				s := int(e >> 4)
				if s == stop {
					r.Drop(n0 - nb)
					return k, true, nil
				}
				dst[k] = uint16(s)
				k++
			}
			r.Drop(n0 - nb)
			if long {
				s, err := d.decodeSlow(r)
				if err != nil {
					return k, false, err
				}
				if s == stop {
					return k, true, nil
				}
				dst[k] = uint16(s)
				k++
			}
		}
	}
	for k < len(dst) {
		s, err := d.Decode(r)
		if err != nil {
			return k, false, err
		}
		if s == stop {
			return k, true, nil
		}
		dst[k] = uint16(s)
		k++
	}
	return k, false, nil
}

// decodeSlow is the canonical bit-by-bit walk, used for codes longer than
// rootBits and for invalid input.
func (d *Decoder) decodeSlow(r *bitio.Reader) (int, error) {
	var code uint32
	for l := uint8(1); l <= d.maxLen; l++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		code = code<<1 | uint32(b)
		if d.counts[l] > 0 && code < d.firstCode[l]+uint32(d.counts[l]) && code >= d.firstCode[l] {
			return d.syms[d.firstSym[l]+int(code-d.firstCode[l])], nil
		}
	}
	return 0, compress.Errorf(compress.ErrCorrupt, "huffman: invalid code")
}

// WriteLengths serializes a length table compactly: 4 bits per nonzero
// length, with zero runs escaped as 0 followed by an 8-bit (run-1) count.
// Lengths above 15 are not supported by this serialization.
func WriteLengths(w *bitio.Writer, lengths []uint8) error {
	for i := 0; i < len(lengths); {
		l := lengths[i]
		if l > 15 {
			return errLengthLimit(l)
		}
		if l != 0 {
			w.WriteBits(uint64(l), 4)
			i++
			continue
		}
		run := zeroRun(lengths[i:])
		w.WriteBits(0, 4)
		w.WriteBits(uint64(run-1), 8)
		i += run
	}
	return nil
}

// LengthsBits returns the number of bits WriteLengths writes for lengths,
// and the error it returns, without writing them.
func LengthsBits(lengths []uint8) (int, error) {
	n := 0
	for i := 0; i < len(lengths); {
		l := lengths[i]
		if l > 15 {
			return 0, errLengthLimit(l)
		}
		if l != 0 {
			n += 4
			i++
			continue
		}
		n += 4 + 8
		i += zeroRun(lengths[i:])
	}
	return n, nil
}

// zeroRun is the length of the zero run WriteLengths codes at the start of
// lengths, whose first entry is zero: at most 256, the 8-bit count's reach.
func zeroRun(lengths []uint8) int {
	run := 1
	for run < len(lengths) && lengths[run] == 0 && run < 256 {
		run++
	}
	return run
}

func errLengthLimit(l uint8) error {
	return fmt.Errorf("huffman: length %d exceeds serialization limit", l)
}

// ReadLengths parses a table of the given alphabet size.
func ReadLengths(r *bitio.Reader, n int) ([]uint8, error) {
	lengths := make([]uint8, n)
	for i := 0; i < n; {
		v, err := r.ReadBits(4)
		if err != nil {
			return nil, err
		}
		if v != 0 {
			lengths[i] = uint8(v)
			i++
			continue
		}
		run, err := r.ReadBits(8)
		if err != nil {
			return nil, err
		}
		i += int(run) + 1
		if i > n {
			return nil, compress.Errorf(compress.ErrCorrupt, "huffman: zero run overflows alphabet")
		}
	}
	return lengths, nil
}
