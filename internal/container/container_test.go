package container

import (
	"bytes"
	"errors"
	"testing"

	"positbench/internal/compress"
)

// stub is a trivial codec: payload = 0xEE marker + src.
type stub struct{}

func (stub) Name() string { return "stub" }
func (stub) Compress(src []byte) ([]byte, error) {
	return append([]byte{0xEE}, src...), nil
}
func (stub) Decompress(comp []byte) ([]byte, error) {
	if len(comp) < 1 || comp[0] != 0xEE {
		return nil, compress.Errorf(compress.ErrCorrupt, "stub: bad marker")
	}
	return append([]byte(nil), comp[1:]...), nil
}

// panicky always panics on decode; the frame wrapper must contain it.
type panicky struct{ stub }

func (panicky) Decompress([]byte) ([]byte, error) { panic("panicky: boom") }

func TestFrameRoundtrip(t *testing.T) {
	c := Wrap(stub{})
	for _, src := range [][]byte{nil, {0}, []byte("hello container"), bytes.Repeat([]byte{7}, 10000)} {
		frame, err := c.Compress(src)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(frame, Magic[:]) {
			t.Fatalf("frame missing magic: % x", frame[:8])
		}
		back, err := c.Decompress(frame)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, src) {
			t.Fatalf("roundtrip mismatch: %d in, %d out", len(src), len(back))
		}
	}
}

func TestDecodeRejections(t *testing.T) {
	frame, err := Wrap(stub{}).Compress([]byte("the payload under test"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr error
	}{
		{"Empty", func(f []byte) []byte { return nil }, compress.ErrTruncated},
		{"MagicPrefix", func(f []byte) []byte { return f[:3] }, compress.ErrTruncated},
		{"WrongMagic", func(f []byte) []byte { f[0] ^= 0xFF; return f }, compress.ErrBadMagic},
		{"Version", func(f []byte) []byte { f[4] = 99; return f }, compress.ErrVersion},
		{"NameLenZero", func(f []byte) []byte { f[5] = 0; return f }, compress.ErrCorrupt},
		{"TruncatedHeader", func(f []byte) []byte { return f[:7] }, compress.ErrTruncated},
		{"TruncatedPayload", func(f []byte) []byte { return f[:len(f)-5] }, compress.ErrTruncated},
		{"TrailingGarbage", func(f []byte) []byte { return append(f, 0xAB) }, compress.ErrCorrupt},
		{"PayloadFlip", func(f []byte) []byte { f[len(f)-1] ^= 1; return f }, compress.ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := tc.mutate(append([]byte(nil), frame...))
			_, _, err := Decode(buf)
			if err == nil {
				t.Fatal("corrupt frame accepted")
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err %v, want %v", err, tc.wantErr)
			}
			if !errors.Is(err, compress.ErrCorrupt) {
				t.Fatalf("err %v should refine ErrCorrupt", err)
			}
		})
	}
}

func TestWrongCodecName(t *testing.T) {
	frame, err := Wrap(stub{}).Compress([]byte("data"))
	if err != nil {
		t.Fatal(err)
	}
	name, bare, err := Sniff(frame)
	if err != nil || name != "stub" || !bare {
		t.Fatalf("Sniff: %q, bare %v, %v", name, bare, err)
	}
	// A frame for codec "stub" handed to a differently-named decoder.
	other := Wrap(passthroughNamed{"other"})
	if _, err := other.Decompress(frame); !errors.Is(err, compress.ErrCorrupt) {
		t.Fatalf("cross-codec decode: %v", err)
	}
}

// TestSniff covers every way Sniff routes or rejects a prefix: a bare
// frame, a chunked stream (whole, and cut to SniffLen), and each error
// class.
func TestSniff(t *testing.T) {
	frame, err := Wrap(stub{}).Compress([]byte("data"))
	if err != nil {
		t.Fatal(err)
	}
	stream, _ := buildIndexed(t, Wrap(stub{}), patternData(4096), 1024)
	cases := []struct {
		name    string
		prefix  []byte
		bare    bool
		wantErr error
	}{
		{"BareFrame", frame, true, nil},
		{"Stream", stream, false, nil},
		{"StreamSniffLen", stream[:SniffLen], false, nil},
		{"Empty", nil, false, compress.ErrTruncated},
		{"TerminatorFirst", []byte{0, 'P', 'B', 'C', 'F'}, false, compress.ErrTruncated},
		{"OverlongUvarint", bytes.Repeat([]byte{0xFF}, 11), false, compress.ErrCorrupt},
		{"CutFrameHeader", frame[:7], false, compress.ErrTruncated},
		{"CutStreamHeader", stream[:4], false, compress.ErrTruncated},
		{"BadMagicAfterLength", []byte{9, 'X', 'B', 'C', 'F', 1}, false, compress.ErrBadMagic},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			name, bare, err := Sniff(tc.prefix)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) || name != "" || bare {
					t.Fatalf("Sniff = %q, bare %v, %v; want %v", name, bare, err, tc.wantErr)
				}
				return
			}
			if err != nil || name != "stub" || bare != tc.bare {
				t.Fatalf("Sniff = %q, bare %v, %v; want stub, bare %v", name, bare, err, tc.bare)
			}
		})
	}
}

type passthroughNamed struct{ name string }

func (p passthroughNamed) Name() string                           { return p.name }
func (p passthroughNamed) Compress(src []byte) ([]byte, error)    { return src, nil }
func (p passthroughNamed) Decompress(comp []byte) ([]byte, error) { return comp, nil }

func TestDeclaredLengthLimit(t *testing.T) {
	// A frame whose declared original length is far beyond the limit must
	// trip ErrLimitExceeded before the inner decoder runs.
	huge := make([]byte, 1<<16)
	frame, err := Encode("stub", huge, append([]byte{0xEE}, huge...))
	if err != nil {
		t.Fatal(err)
	}
	c := WrapLimits(stub{}, compress.DecodeLimits{MaxOutputBytes: 4096})
	if _, err := c.Decompress(frame); !errors.Is(err, compress.ErrLimitExceeded) {
		t.Fatalf("want ErrLimitExceeded, got %v", err)
	}
	// The same frame decodes under default limits.
	if out, err := Wrap(stub{}).Decompress(frame); err != nil || len(out) != len(huge) {
		t.Fatalf("default limits: %d bytes, %v", len(out), err)
	}
}

func TestOutputVerification(t *testing.T) {
	// A payload that decodes fine but to the wrong bytes must be caught by
	// the output checksum. Craft a frame whose orig metadata disagrees with
	// the payload's true content.
	frame, err := Encode("stub", []byte("expected content"), append([]byte{0xEE}, []byte("actual content")...))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Wrap(stub{}).Decompress(frame); !errors.Is(err, compress.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

func TestPanicContainment(t *testing.T) {
	frame, err := Wrap(panicky{}).Compress([]byte("boom fodder"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := Wrap(panicky{}).Decompress(frame)
	if out != nil || !errors.Is(err, compress.ErrCorrupt) {
		t.Fatalf("panic not contained: %v", err)
	}
}

func TestWrapIdempotent(t *testing.T) {
	inner := stub{}
	w := Wrap(inner)
	ww := Wrap(w)
	if ww.Unwrap() != compress.Codec(inner) {
		t.Fatal("double Wrap nested frames")
	}
}

func TestParseHeaderPrefix(t *testing.T) {
	src := []byte("payload for header sniffing")
	frame, err := Wrap(stub{}).Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	// The full frame parses.
	h, n, err := ParseHeader(frame)
	if err != nil {
		t.Fatal(err)
	}
	if h.Codec != "stub" {
		t.Fatalf("codec %q", h.Codec)
	}
	if h.OrigLen != uint64(len(src)) {
		t.Fatalf("orig len %d, want %d", h.OrigLen, len(src))
	}
	if h.PayloadLen != uint64(len(frame)-n) {
		t.Fatalf("payload len %d, frame has %d after header", h.PayloadLen, len(frame)-n)
	}
	// Any prefix of at least MaxHeaderLen bytes parses identically: this is
	// the contract the serving path's codec sniffing relies on.
	if len(frame) > MaxHeaderLen {
		h2, n2, err := ParseHeader(frame[:MaxHeaderLen])
		if err != nil || h2 != h || n2 != n {
			t.Fatalf("prefix parse diverged: %+v %d %v", h2, n2, err)
		}
	}
	// The exact header length is sufficient.
	h3, n3, err := ParseHeader(frame[:n])
	if err != nil || h3 != h || n3 != n {
		t.Fatalf("exact-header parse diverged: %+v %d %v", h3, n3, err)
	}
	// One byte short of the header is ErrTruncated.
	if _, _, err := ParseHeader(frame[:n-1]); !errors.Is(err, compress.ErrTruncated) {
		t.Fatalf("short header: %v, want ErrTruncated", err)
	}
	// Garbage is ErrBadMagic.
	if _, _, err := ParseHeader([]byte("not a frame")); !errors.Is(err, compress.ErrBadMagic) {
		t.Fatalf("garbage: %v, want ErrBadMagic", err)
	}
}

func TestParseHeaderAgreesWithDecode(t *testing.T) {
	frame, err := Wrap(stub{}).Compress(bytes.Repeat([]byte{3}, 4096))
	if err != nil {
		t.Fatal(err)
	}
	hp, n, err := ParseHeader(frame)
	if err != nil {
		t.Fatal(err)
	}
	hd, payload, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if hp != hd {
		t.Fatalf("headers diverge: %+v vs %+v", hp, hd)
	}
	if !bytes.Equal(frame[n:], payload) {
		t.Fatal("header length does not locate the payload")
	}
}
