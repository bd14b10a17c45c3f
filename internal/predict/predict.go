// Package predict implements the FCM/DFCM predictive codec family for
// 32-bit word streams (FPC/pFPC-class, after Burtscher & Ratanaworabhan):
// two hash-table value predictors run over the stream, the better one is
// selected per block, and the XOR residual between value and prediction is
// coded by its leading-zero count. On smooth float or posit data the
// predictors land close to the true value, the residual's high bits cancel,
// and most words collapse to a 4-bit "perfectly predicted" bucket.
//
// The package exposes one codec under two registry names: "fpc32" codes
// residuals as plain LZC bucket + remainder bits (fastest), and "fpc-posit"
// (constructed by NewPosit) splits residuals into sign / LZC-bucket /
// mantissa planes with a per-block Huffman code over the buckets, trading a
// little speed for ratio on posit<32,3> word streams whose regime-heavy top
// bits predict well.
package predict

import (
	"math/bits"
	"sync"

	"positbench/internal/bitio"
)

// blockWords is the predictor-selection granularity: for each block of this
// many 32-bit words the encoder emits one selection byte choosing FCM or
// DFCM, whichever codes the block smaller. 4096 words = 16 KiB keeps the
// selection overhead under 0.007% while adapting within a chunk.
const blockWords = 4096

const (
	minTableBits = 4
	maxTableBits = 12
)

// tableBitsFor sizes the predictor hash tables from the word count of one
// compression call. Tables are a pure function of the input length, so the
// decoder derives the identical size from the declared length and no table
// parameters travel in the stream. Small inputs get small tables (cheap to
// clear); large chunks cap at 2^12 entries, the pFPC sweet spot where the
// tables stay resident in L1/L2.
func tableBitsFor(words int) uint {
	b := uint(bits.Len(uint(words)))
	if b < minTableBits {
		return minTableBits
	}
	if b > maxTableBits {
		return maxTableBits
	}
	return b
}

// fcmHash advances the FCM context hash after seeing value v. The shift/xor
// constants are the 32-bit adaptation of FPC's 64-bit hash: six bits of old
// context survive each step, and only the value's high (sign/exponent/regime)
// bits enter the hash, so nearby floats share a context.
func fcmHash(h, v, mask uint32) uint32 {
	return ((h << 6) ^ (v >> 21)) & mask
}

// dfcmHash advances the DFCM context hash after seeing delta (v - last).
func dfcmHash(h, delta, mask uint32) uint32 {
	return ((h << 2) ^ (delta >> 21)) & mask
}

// bucketOf maps a residual's significant-bit count onto a 4-bit LZC bucket.
// Bucket 0 is reserved for the exact-prediction residual 0; buckets 1..15
// each cover two significant-bit counts (2b+1 and 2b+2, bucket 1 also
// absorbing 1..2), so the remainder is coded in level(bucket) bits.
func bucketOf(r uint32) int {
	sig := bits.Len32(r)
	if sig == 0 {
		return 0
	}
	b := (sig - 1) / 2
	if b < 1 {
		return 1
	}
	return b
}

// level is the number of remainder bits coded for a bucket: 0 for the
// perfectly predicted bucket, otherwise the largest significant-bit count
// the bucket covers (2b+2, capped at the word width).
func level(b int) uint {
	if b <= 0 {
		return 0
	}
	l := uint(2*b + 2)
	if l > 32 {
		l = 32
	}
	return l
}

// predictors bundles the FCM and DFCM state for one compression or
// decompression call. Both predictors are always updated with the true
// value regardless of which one a block selects, so the decoder — which
// learns the selection from the stream — stays in lockstep with the
// encoder's tables.
type predictors struct {
	fcm   []uint32 // FCM table: context hash -> predicted next value
	dfcm  []uint32 // DFCM table: context hash -> predicted next delta
	mask  uint32
	hf    uint32 // FCM context hash
	hd    uint32 // DFCM context hash
	last  uint32 // previous true value (DFCM base)
	fpred uint32 // current FCM prediction (fcm[hf])
	dpred uint32 // current DFCM prediction (dfcm[hd] + last)
}

// reset clears the tables for a table size of tb bits and zeroes the
// context. Compression is a pure function of the input: every call starts
// from this state, which is what makes parallel chunk output byte-identical
// to serial and lets chunk boundaries reset cleanly.
func (p *predictors) reset(tb uint) {
	size := 1 << tb
	if cap(p.fcm) < size {
		p.fcm = make([]uint32, size)
		p.dfcm = make([]uint32, size)
	}
	p.fcm = p.fcm[:size]
	p.dfcm = p.dfcm[:size]
	for i := range p.fcm {
		p.fcm[i] = 0
	}
	for i := range p.dfcm {
		p.dfcm[i] = 0
	}
	p.mask = uint32(size - 1)
	p.hf, p.hd, p.last = 0, 0, 0
	p.fpred = 0
	p.dpred = 0
}

// predict loads both predictions for the next word. Call exactly once
// before the matching update.
func (p *predictors) predict() (fcmPred, dfcmPred uint32) {
	p.fpred = p.fcm[p.hf]
	p.dpred = p.dfcm[p.hd] + p.last
	return p.fpred, p.dpred
}

// update trains both predictors on the true value v.
func (p *predictors) update(v uint32) {
	p.fcm[p.hf] = v
	p.hf = fcmHash(p.hf, v, p.mask)
	delta := v - p.last
	p.dfcm[p.hd] = delta
	p.hd = dfcmHash(p.hd, delta, p.mask)
	p.last = v
}

// state is the pooled per-call scratch: predictor tables, per-block residual
// buffers for both candidate predictors, and the bit writer/reader. Pooling
// it keeps the steady-state chunk pipeline allocation-free.
type state struct {
	p    predictors
	fres [blockWords]uint32 // FCM residuals for the current block
	dres [blockWords]uint32 // DFCM residuals for the current block
	res  [blockWords]uint32 // decode-side residual buffer
	sel  []byte             // per-block predictor selection bytes
	bw   *bitio.Writer
	br   *bitio.Reader
}

var statePool = sync.Pool{
	New: func() interface{} {
		return &state{bw: bitio.NewWriter(4096), br: bitio.NewReader(nil)}
	},
}

func getState(tb uint) *state {
	st := statePool.Get().(*state)
	st.p.reset(tb)
	st.bw.Reset()
	return st
}

func putState(st *state) { statePool.Put(st) }
