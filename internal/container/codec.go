package container

import (
	"time"

	"positbench/internal/compress"
	"positbench/internal/trace"
)

// Codec wraps an inner compress.Codec so every compressed blob travels in a
// verified frame: Compress appends the envelope, Decompress validates
// magic, version, codec identity, declared length (against DecodeLimits),
// and both checksums before returning data. Any panic escaping the inner
// decoder is converted to ErrCorrupt, so a framed codec never takes down
// its caller on hostile input.
type Codec struct {
	inner compress.Codec
	lim   compress.DecodeLimits
}

// Wrap frames c with default decode limits. If c is already framed it is
// returned unchanged.
func Wrap(c compress.Codec) *Codec { return WrapLimits(c, compress.DecodeLimits{}) }

// WrapLimits frames c with explicit decode limits.
func WrapLimits(c compress.Codec, lim compress.DecodeLimits) *Codec {
	if fc, ok := c.(*Codec); ok {
		return &Codec{inner: fc.inner, lim: lim}
	}
	return &Codec{inner: c, lim: lim}
}

// Unwrap returns the inner, unframed codec.
func (c *Codec) Unwrap() compress.Codec { return c.inner }

// Name implements compress.Codec; the frame is transparent in result tables.
func (c *Codec) Name() string { return c.inner.Name() }

// DecodeIsLight implements compress.LightDecoder by forwarding the inner
// codec's hint, so the light_decoder hint on /v1/codecs reads the same for
// the framed codec: CRC verification adds memory-bandwidth-class work, so
// the frame never changes a codec's weight class.
func (c *Codec) DecodeIsLight() bool { return compress.DecodeIsLight(c.inner) }

// Info implements compress.Describer when the inner codec does.
func (c *Codec) Info() compress.Info {
	if d, ok := c.inner.(compress.Describer); ok {
		return d.Info()
	}
	return compress.Info{Name: c.inner.Name()}
}

// Compress implements compress.Codec.
func (c *Codec) Compress(src []byte) ([]byte, error) {
	payload, err := c.inner.Compress(src)
	if err != nil {
		return nil, err
	}
	return Encode(c.inner.Name(), src, payload)
}

// CompressAppendTrace implements compress.TracedCompressor: the inner
// codec's stage spans (when it has them) plus a frame-encode stage for the
// envelope, so a trace shows where container overhead sits relative to the
// real compression work.
func (c *Codec) CompressAppendTrace(dst, src []byte, sp *trace.Span) ([]byte, error) {
	payload, err := compress.CompressAppendTrace(c.inner, nil, src, sp)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	frame, err := Encode(c.inner.Name(), src, payload)
	if err != nil {
		return nil, err
	}
	sp.AddStage("frame-encode", time.Since(t0), int64(len(payload)), int64(len(frame)))
	return append(dst, frame...), nil
}

// Decompress implements compress.Codec.
func (c *Codec) Decompress(comp []byte) ([]byte, error) {
	return c.DecompressLimits(comp, c.lim)
}

// DecompressLimits implements compress.Limited.
func (c *Codec) DecompressLimits(comp []byte, lim compress.DecodeLimits) ([]byte, error) {
	return c.decompressLimits(comp, lim, nil)
}

// DecompressAppendLimitsTrace implements compress.TracedDecompressor:
// frame-decode and frame-verify stages around the inner codec's own.
func (c *Codec) DecompressAppendLimitsTrace(dst, comp []byte, lim compress.DecodeLimits, sp *trace.Span) ([]byte, error) {
	out, err := c.decompressLimits(comp, lim, sp)
	if err != nil {
		return nil, err
	}
	return append(dst, out...), nil
}

func (c *Codec) decompressLimits(comp []byte, lim compress.DecodeLimits, sp *trace.Span) (out []byte, err error) {
	var t0 time.Time
	if sp != nil {
		t0 = time.Now()
	}
	h, payload, err := Decode(comp)
	if err != nil {
		return nil, err
	}
	if h.Codec != c.inner.Name() {
		return nil, compress.Errorf(compress.ErrCorrupt, "container: frame for codec %q, decoder is %q", h.Codec, c.inner.Name())
	}
	if err := lim.CheckDeclared(h.OrigLen, len(comp)); err != nil {
		return nil, err
	}
	if sp != nil {
		sp.AddStage("frame-decode", time.Since(t0), int64(len(comp)), int64(len(payload)))
	}
	defer func() {
		if p := recover(); p != nil {
			out, err = nil, compress.Errorf(compress.ErrCorrupt, "container: %s decoder panic: %v", h.Codec, p)
		}
	}()
	out, err = compress.DecompressAppendLimitsTrace(c.inner, nil, payload, lim, sp)
	if err != nil {
		return nil, err
	}
	if sp != nil {
		t0 = time.Now()
	}
	if err := VerifyOutput(h, out); err != nil {
		return nil, err
	}
	if sp != nil {
		sp.AddStage("frame-verify", time.Since(t0), int64(len(out)), 0)
	}
	return out, nil
}

var (
	_ compress.Codec              = (*Codec)(nil)
	_ compress.Describer          = (*Codec)(nil)
	_ compress.Limited            = (*Codec)(nil)
	_ compress.TracedCompressor   = (*Codec)(nil)
	_ compress.TracedDecompressor = (*Codec)(nil)
)
