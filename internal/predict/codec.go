package predict

import (
	"encoding/binary"

	"positbench/internal/bitio"
	"positbench/internal/compress"
	"positbench/internal/huffman"
)

// Stream layout (inside the registry's container frame, which supplies the
// magic, codec identity, CRCs, and declared-length check):
//
//	uvarint originalLen
//	mode byte                  0 = plain LZC, 1 = split planes, 2 = stored
//	mode 2: originalLen raw bytes, end of stream
//	tail bytes                 originalLen % 4 raw bytes (words are 32-bit)
//	selection bytes            one per 4096-word block: 0 = FCM, 1 = DFCM
//	bit payload                per-block residual coding, byte-aligned at end
//
// Plain payload, per word: 4-bit LZC bucket, then level(bucket) residual
// bits. Split payload, per block: a Huffman length table over the 16 bucket
// symbols (huffman.WriteLengths), the block's bucket symbols Huffman-coded,
// then one sign bit (residual bit 31) per bucket-15 residual (smaller
// buckets provably have bit 31 clear), then min(level, 31) low mantissa
// bits per nonzero residual. Stored mode is the
// incompressible-input escape: the encoder falls back to it whenever coding
// would expand past the raw bytes, bounding worst-case expansion to the
// uvarint plus one mode byte.
const (
	modePlain  = 0
	modeSplit  = 1
	modeStored = 2
)

// Force pins the per-block predictor selection, primarily so fuzz targets
// can drive each predictor's code path in isolation. The decoder reads the
// selection from the stream, so streams from any Force setting interoperate.
type Force int

const (
	// ForceAuto selects the cheaper predictor per block (the default).
	ForceAuto Force = iota
	// ForceFCM always selects the finite-context-method predictor.
	ForceFCM
	// ForceDFCM always selects the differential FCM predictor.
	ForceDFCM
)

// Config tunes a predictive codec instance.
type Config struct {
	// Split routes residuals through the sign/LZC/mantissa plane split with
	// a per-block Huffman code over the buckets instead of plain 4-bit
	// bucket coding. Better ratio on regime-heavy posit words, slightly
	// slower.
	Split bool
	// Force pins predictor selection; see Force.
	Force Force
}

// Codec is the FCM/DFCM predictive compressor over 32-bit word streams.
// Inputs of any byte length are accepted: the 0–3 bytes past the last whole
// word travel raw. The zero value is not usable; construct with New or
// NewNamed.
type Codec struct {
	name string
	cfg  Config
}

// New returns the "fpc32" codec: plain LZC coding, automatic per-block
// predictor selection — the speed-oriented family member for float32 words.
func New() *Codec { return NewNamed("fpc32", Config{}) }

// NewNamed returns a predictive codec with an explicit registry name and
// configuration. positpack.NewV2 uses this to build "fpc-posit".
func NewNamed(name string, cfg Config) *Codec {
	return &Codec{name: name, cfg: cfg}
}

// Name implements compress.Codec.
func (c *Codec) Name() string { return c.name }

// Info implements compress.Describer.
func (c *Codec) Info() compress.Info {
	mode := "plain LZC residuals"
	if c.cfg.Split {
		mode = "sign/LZC/mantissa split residuals"
	}
	return compress.Info{
		Name:    c.name,
		Version: "1.0",
		Source:  "FCM/DFCM value prediction (FPC/pFPC class), " + mode,
	}
}

// DecodeIsLight implements compress.LightDecoder: decoding is table lookups
// and bit reads at memory-bandwidth-class speed. It only sets the
// light_decoder hint on /v1/codecs.
func (c *Codec) DecodeIsLight() bool { return true }

// Compress implements compress.Codec.
func (c *Codec) Compress(src []byte) ([]byte, error) {
	return c.CompressAppend(nil, src)
}

// CompressAppend implements compress.AppendCompressor.
func (c *Codec) CompressAppend(dst, src []byte) ([]byte, error) {
	n := len(src)
	dst = bitio.PutUvarint(dst, uint64(n))
	if n == 0 {
		return dst, nil
	}
	words := n >> 2
	tail := src[n&^3:]
	if words == 0 {
		dst = append(dst, modeStored)
		return append(dst, src...), nil
	}

	st := getState(tableBitsFor(words))
	defer putState(st)
	sel := st.sel[:0]
	var err error
	for base := 0; base < words; base += blockWords {
		m := words - base
		if m > blockWords {
			m = blockWords
		}
		choice := c.selectAndResiduals(st, src[4*base:], m)
		sel = append(sel, choice)
		res := st.fres[:m]
		if choice == 1 {
			res = st.dres[:m]
		}
		if c.cfg.Split {
			err = encodeSplitBlock(st.bw, res)
		} else {
			encodePlainBlock(st.bw, res)
		}
		if err != nil {
			return nil, err
		}
	}
	st.sel = sel
	payload := st.bw.Bytes()

	if 1+len(tail)+len(sel)+len(payload) >= 1+n {
		dst = append(dst, modeStored)
		return append(dst, src...), nil
	}
	mode := byte(modePlain)
	if c.cfg.Split {
		mode = modeSplit
	}
	dst = append(dst, mode)
	dst = append(dst, tail...)
	dst = append(dst, sel...)
	return append(dst, payload...), nil
}

// selectAndResiduals computes the FCM and DFCM residuals for one block of m
// words starting at src, trains both predictors on the true values, and
// returns the selection byte (0 = FCM, 1 = DFCM) under the codec's Force
// policy. In automatic mode the block's plain-coding bit cost decides;
// ties go to FCM, matching the decoder's expectation of deterministic
// streams.
func (c *Codec) selectAndResiduals(st *state, src []byte, m int) byte {
	fcost, dcost := 0, 0
	for i := 0; i < m; i++ {
		v := binary.LittleEndian.Uint32(src[4*i:])
		fp, dp := st.p.predict()
		st.p.update(v)
		fr, dr := v^fp, v^dp
		st.fres[i] = fr
		st.dres[i] = dr
		fcost += 4 + int(level(bucketOf(fr)))
		dcost += 4 + int(level(bucketOf(dr)))
	}
	switch c.cfg.Force {
	case ForceFCM:
		return 0
	case ForceDFCM:
		return 1
	}
	if dcost < fcost {
		return 1
	}
	return 0
}

// encodePlainBlock writes each residual as a 4-bit bucket followed by
// level(bucket) low bits.
func encodePlainBlock(bw *bitio.Writer, res []uint32) {
	for _, r := range res {
		b := bucketOf(r)
		bw.WriteBits(uint64(b), 4)
		if l := level(b); l > 0 {
			bw.WriteBits(uint64(r), l)
		}
	}
}

// encodeSplitBlock writes the block as three planes: Huffman-coded bucket
// symbols (table first), then the sign bits of nonzero residuals, then
// their low mantissa bits. Grouping like bits lets the bucket plane carry
// almost all the entropy on well-predicted data.
func encodeSplitBlock(bw *bitio.Writer, res []uint32) error {
	var freqs [16]int
	for _, r := range res {
		freqs[bucketOf(r)]++
	}
	lengths, err := huffman.BuildLengths(freqs[:], huffman.MaxBits)
	if err != nil {
		return err
	}
	enc, err := huffman.NewEncoder(lengths)
	if err != nil {
		return err
	}
	if err := huffman.WriteLengths(bw, lengths); err != nil {
		return err
	}
	for _, r := range res {
		enc.Encode(bw, bucketOf(r))
	}
	// Sign plane: residual bit 31 is provably zero for every bucket below
	// 15 (their levels cap at 30 significant bits), so only full-width
	// residuals carry a sign bit.
	for _, r := range res {
		if bucketOf(r) == 15 {
			bw.WriteBit(uint(r >> 31))
		}
	}
	for _, r := range res {
		b := bucketOf(r)
		if b == 0 {
			continue
		}
		l := level(b)
		if l > 31 {
			l = 31
		}
		bw.WriteBits(uint64(r&0x7fffffff), l)
	}
	return nil
}

// Decompress implements compress.Codec with default limits.
func (c *Codec) Decompress(comp []byte) ([]byte, error) {
	return c.DecompressLimits(comp, compress.DecodeLimits{})
}

// DecompressLimits implements compress.Limited.
func (c *Codec) DecompressLimits(comp []byte, lim compress.DecodeLimits) ([]byte, error) {
	return c.DecompressAppendLimits(nil, comp, lim)
}

// DecompressAppendLimits implements compress.AppendDecompressor. The output
// buffer grows with actual decode progress (never from the declared length
// alone), so a hostile header cannot force a large allocation past the
// limit check.
func (c *Codec) DecompressAppendLimits(dst, comp []byte, lim compress.DecodeLimits) ([]byte, error) {
	n64, used, err := bitio.Uvarint(comp)
	if err != nil {
		return nil, err
	}
	if err := lim.CheckDeclared(n64, len(comp)); err != nil {
		return nil, err
	}
	n := int(n64)
	if n == 0 {
		return dst, nil
	}
	rest := comp[used:]
	if len(rest) == 0 {
		return nil, compress.Errorf(compress.ErrTruncated, "predict: missing mode byte")
	}
	mode := rest[0]
	rest = rest[1:]
	switch mode {
	case modeStored:
		if len(rest) < n {
			return nil, compress.Errorf(compress.ErrTruncated, "predict: stored payload %d of %d bytes", len(rest), n)
		}
		return append(dst, rest[:n]...), nil
	case modePlain, modeSplit:
	default:
		return nil, compress.Errorf(compress.ErrCorrupt, "predict: unknown mode %d", mode)
	}
	words := n >> 2
	tailLen := n & 3
	if words == 0 {
		return nil, compress.Errorf(compress.ErrCorrupt, "predict: mode %d with no whole words", mode)
	}
	if len(rest) < tailLen {
		return nil, compress.Errorf(compress.ErrTruncated, "predict: missing tail bytes")
	}
	tail := rest[:tailLen]
	rest = rest[tailLen:]
	nblocks := (words + blockWords - 1) / blockWords
	if len(rest) < nblocks {
		return nil, compress.Errorf(compress.ErrTruncated, "predict: %d selection bytes, need %d", len(rest), nblocks)
	}
	sel := rest[:nblocks]
	rest = rest[nblocks:]

	st := getState(tableBitsFor(words))
	defer putState(st)
	st.br.Reset(rest)

	for blk := 0; blk < nblocks; blk++ {
		m := words - blk*blockWords
		if m > blockWords {
			m = blockWords
		}
		res := st.res[:m]
		if mode == modePlain {
			err = decodePlainBlock(st.br, res)
		} else {
			err = decodeSplitBlock(st.br, res)
		}
		if err != nil {
			return nil, err
		}
		useDFCM := false
		switch sel[blk] {
		case 0:
		case 1:
			useDFCM = true
		default:
			return nil, compress.Errorf(compress.ErrCorrupt, "predict: selection byte %d", sel[blk])
		}
		dst = grow(dst, 4*m)
		out := dst[len(dst)-4*m:]
		for i, r := range res {
			fp, dp := st.p.predict()
			v := fp ^ r
			if useDFCM {
				v = dp ^ r
			}
			st.p.update(v)
			binary.LittleEndian.PutUint32(out[4*i:], v)
		}
	}
	return append(dst, tail...), nil
}

// decodePlainBlock inverts encodePlainBlock.
func decodePlainBlock(br *bitio.Reader, res []uint32) error {
	for i := range res {
		b, err := br.ReadBits(4)
		if err != nil {
			return err
		}
		var r uint64
		if l := level(int(b)); l > 0 {
			if r, err = br.ReadBits(l); err != nil {
				return err
			}
		}
		res[i] = uint32(r)
	}
	return nil
}

// decodeSplitBlock inverts encodeSplitBlock. Bucket symbols land in res as
// an intermediate, then the sign and mantissa planes rebuild the residuals
// in place.
func decodeSplitBlock(br *bitio.Reader, res []uint32) error {
	lengths, err := huffman.ReadLengths(br, 16)
	if err != nil {
		return err
	}
	dec, err := huffman.NewDecoder(lengths)
	if err != nil {
		return compress.Errorf(compress.ErrCorrupt, "predict: bucket code: %v", err)
	}
	for i := range res {
		sym, err := dec.Decode(br)
		if err != nil {
			return err
		}
		res[i] = uint32(sym)
	}
	for i, b := range res {
		if b == 15 {
			s, err := br.ReadBit()
			if err != nil {
				return err
			}
			res[i] = b | uint32(s)<<31 // bucket in the low nibble, sign parked at bit 31
		}
	}
	for i, packed := range res {
		b := int(packed & 0xf)
		if b == 0 {
			continue
		}
		l := level(b)
		if l > 31 {
			l = 31
		}
		m, err := br.ReadBits(l)
		if err != nil {
			return err
		}
		res[i] = packed&0x80000000 | uint32(m)
	}
	return nil
}

// grow extends dst by need bytes, doubling capacity as actual output
// materializes.
func grow(dst []byte, need int) []byte {
	if cap(dst)-len(dst) >= need {
		return dst[:len(dst)+need]
	}
	newCap := 2 * cap(dst)
	if newCap < len(dst)+need {
		newCap = len(dst) + need
	}
	if newCap < 1024 {
		newCap = 1024
	}
	nd := make([]byte, len(dst)+need, newCap)
	copy(nd, dst)
	return nd
}

var (
	_ compress.Codec              = (*Codec)(nil)
	_ compress.AppendCompressor   = (*Codec)(nil)
	_ compress.AppendDecompressor = (*Codec)(nil)
	_ compress.Limited            = (*Codec)(nil)
	_ compress.Describer          = (*Codec)(nil)
	_ compress.LightDecoder       = (*Codec)(nil)
)
