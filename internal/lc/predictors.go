package lc

import "encoding/binary"

// Predictor components: same-length word transforms that turn value
// correlation between neighbors into small (or sparse) residuals.

// residual names how a predictor encodes a word against its prediction.
type residual uint8

const (
	// delta is the two's-complement difference ("delta modulation").
	delta residual = iota
	// zigzagDelta is the difference in magnitude-sign (zigzag) form: small
	// positive and negative deltas both map to values with many leading
	// zero bits.
	zigzagDelta
	// negabinaryDelta is the difference in negabinary (base -2) form. It
	// also maps small-magnitude deltas to small codes but distributes sign
	// information across the bits, which interacts well with bit-plane
	// transposition.
	negabinaryDelta
	// xorDelta is the XOR against the prediction: identical prefixes
	// become leading zeros without carry propagation.
	xorDelta
)

func (r residual) encode(w, pred uint32) uint32 {
	switch r {
	case zigzagDelta:
		return zigzag(w - pred)
	case negabinaryDelta:
		return toNegabinary(w - pred)
	case xorDelta:
		return w ^ pred
	}
	return w - pred
}

func (r residual) decode(e, pred uint32) uint32 {
	switch r {
	case zigzagDelta:
		return pred + unzigzag(e)
	case negabinaryDelta:
		return pred + fromNegabinary(e)
	case xorDelta:
		return e ^ pred
	}
	return pred + e
}

func zigzag(d uint32) uint32   { return d<<1 ^ uint32(int32(d)>>31) }
func unzigzag(z uint32) uint32 { return z>>1 ^ -(z & 1) }

const nbMask = 0xAAAAAAAA

func toNegabinary(x uint32) uint32   { return (x + nbMask) ^ nbMask }
func fromNegabinary(n uint32) uint32 { return (n ^ nbMask) - nbMask }

// predictor predicts each little-endian word by the word stride positions
// back (the first stride words by zero) and emits the residual; the ragged
// tail passes through. Stride 1 gives the paper's DIFF, DIFFMS (first stage
// of its best float pipeline), DIFFNB (first stage of its best posit
// pipeline) and XOR. Stride 4 extends the library beyond the paper, in the
// spirit of LC's larger real library: scientific arrays are often
// interleaved records or grids, where the best predictor for a word is the
// word one record back.
type predictor struct {
	name     string
	stride   int
	residual residual
}

func (p predictor) Name() string { return p.name }

func (p predictor) Forward(src []byte) ([]byte, error) {
	out := make([]byte, len(src))
	back, n := 4*p.stride, len(src)&^3
	for i := 0; i < n; i += 4 {
		var pred uint32
		if i >= back {
			pred = binary.LittleEndian.Uint32(src[i-back:])
		}
		binary.LittleEndian.PutUint32(out[i:], p.residual.encode(binary.LittleEndian.Uint32(src[i:]), pred))
	}
	copy(out[n:], src[n:])
	return out, nil
}

func (predictor) size(src []byte) (int, error) { return len(src), nil }

// Inverse needs no bound check: the output is exactly as long as src.
func (p predictor) Inverse(src []byte, _ int) ([]byte, error) {
	out := make([]byte, len(src))
	back, n := 4*p.stride, len(src)&^3
	for i := 0; i < n; i += 4 {
		var pred uint32
		if i >= back {
			pred = binary.LittleEndian.Uint32(out[i-back:])
		}
		binary.LittleEndian.PutUint32(out[i:], p.residual.decode(binary.LittleEndian.Uint32(src[i:]), pred))
	}
	copy(out[n:], src[n:])
	return out, nil
}
