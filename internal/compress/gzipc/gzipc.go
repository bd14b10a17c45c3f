// Package gzipc provides the gzip-class codec: DEFLATE (LZ77 with a 32 KiB
// window plus canonical Huffman) at maximum effort. It wraps the standard
// library's compress/gzip, which implements the same algorithm as GNU gzip.
package gzipc

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"sync"

	"positbench/internal/compress"
)

// Codec is the gzip-class compressor.
type Codec struct {
	wpool sync.Pool // *gzWriter, Huffman/window state reused across chunks
	rpool sync.Pool // *gzReader
}

// gzWriter owns a gzip.Writer whose sink appends to buf, so compression
// reuses both the flate encoder state and the caller's output buffer.
type gzWriter struct {
	gw  *gzip.Writer
	buf []byte
}

func (z *gzWriter) Write(p []byte) (int, error) {
	z.buf = append(z.buf, p...)
	return len(p), nil
}

// gzReader pairs a gzip.Reader with the bytes.Reader it resets over, so
// decompression reuses the inflate state and window across chunks.
type gzReader struct {
	gr *gzip.Reader
	br bytes.Reader
}

// New returns a gzip codec at BestCompression, mirroring `gzip --best`.
func New() *Codec { return &Codec{} }

// Name implements compress.Codec.
func (c *Codec) Name() string { return "gzip" }

// Info implements compress.Describer.
func (c *Codec) Info() compress.Info {
	return compress.Info{Name: "gzip", Version: "go-flate", Source: "models GNU gzip 1.13 (DEFLATE, 32 KiB window + Huffman)"}
}

// Compress implements compress.Codec.
func (c *Codec) Compress(src []byte) ([]byte, error) {
	return c.CompressAppend(nil, src)
}

// CompressAppend implements compress.AppendCompressor, appending the gzip
// stream to dst and reusing its capacity. The encoder state itself is pooled
// per codec, so steady-state chunk compression does not allocate.
func (c *Codec) CompressAppend(dst, src []byte) ([]byte, error) {
	z, _ := c.wpool.Get().(*gzWriter)
	if z == nil {
		z = &gzWriter{}
		gw, err := gzip.NewWriterLevel(z, gzip.BestCompression)
		if err != nil {
			return nil, err
		}
		z.gw = gw
	}
	z.buf = dst[:0]
	z.gw.Reset(z)
	if _, err := z.gw.Write(src); err != nil {
		return nil, err
	}
	if err := z.gw.Close(); err != nil {
		return nil, err
	}
	out := z.buf
	z.buf = nil // ownership returns to the caller
	c.wpool.Put(z)
	return out, nil
}

// Decompress implements compress.Codec with default decode limits.
func (c *Codec) Decompress(comp []byte) ([]byte, error) {
	return c.DecompressLimits(comp, compress.DecodeLimits{})
}

// DecompressLimits implements compress.Limited. DEFLATE streams carry no
// declared output size, so the cap is enforced with a bounded read: one
// byte past the cap aborts the decode with ErrLimitExceeded.
func (c *Codec) DecompressLimits(comp []byte, lim compress.DecodeLimits) ([]byte, error) {
	return c.DecompressAppendLimits(nil, comp, lim)
}

// DecompressAppendLimits implements compress.AppendDecompressor, appending
// the decoded stream to dst. The inflate state is pooled per codec, so
// steady-state chunk decompression does not allocate.
func (c *Codec) DecompressAppendLimits(dst, comp []byte, lim compress.DecodeLimits) ([]byte, error) {
	z, _ := c.rpool.Get().(*gzReader)
	if z == nil {
		z = &gzReader{}
	}
	z.br.Reset(comp)
	var err error
	if z.gr == nil {
		z.gr, err = gzip.NewReader(&z.br)
	} else {
		err = z.gr.Reset(&z.br)
	}
	if err != nil {
		c.rpool.Put(z)
		return nil, mapErr(err)
	}
	maxOut := lim.OutputCap(len(comp))
	out := dst[:0]
	for {
		if len(out) == cap(out) {
			// Grow geometrically, bounded one byte past the cap so an
			// over-limit stream is detected without decoding all of it.
			newCap := int64(2 * cap(out))
			if newCap < 512 {
				newCap = 512
			}
			if newCap > maxOut+1 {
				newCap = maxOut + 1
			}
			if newCap <= int64(len(out)) {
				break
			}
			nb := make([]byte, len(out), newCap)
			copy(nb, out)
			out = nb
		}
		n, err := z.gr.Read(out[len(out):cap(out)])
		out = out[:len(out)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			c.rpool.Put(z)
			return nil, mapErr(err)
		}
	}
	c.rpool.Put(z)
	if int64(len(out)) > maxOut {
		return nil, compress.Errorf(compress.ErrLimitExceeded, "gzip: output exceeds decode cap %d", maxOut)
	}
	return out, nil
}

// mapErr translates stdlib gzip/flate errors into the decode taxonomy.
func mapErr(err error) error {
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
		return compress.Errorf(compress.ErrTruncated, "gzip: %v", err)
	}
	return compress.Errorf(compress.ErrCorrupt, "gzip: %v", err)
}

var _ compress.Codec = (*Codec)(nil)
var _ compress.Describer = (*Codec)(nil)
var _ compress.Limited = (*Codec)(nil)
var _ compress.AppendCompressor = (*Codec)(nil)
var _ compress.AppendDecompressor = (*Codec)(nil)
