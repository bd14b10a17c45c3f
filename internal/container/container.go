// Package container defines the framed envelope every compressed blob
// travels in: magic bytes, a format version, the codec identifier, the
// declared original length, and CRC-32C checksums of both the compressed
// payload and the decompressed output. The frame is what lets the serving
// path distinguish "wrong codec" from "bit rot" from "truncated upload" and
// reject all three with a typed error before committing resources.
//
// Layout (all integers little-endian; varints are unsigned LEB128):
//
//	offset 0   magic "PBCF" (4 bytes)
//	offset 4   version (1 byte, currently 1)
//	offset 5   codec-name length m (1 byte, 1..MaxCodecName)
//	offset 6   codec name (m bytes, e.g. "xz")
//	...        uvarint original (decompressed) length
//	...        uvarint payload (compressed) length
//	...        CRC-32C of the payload (4 bytes)
//	...        CRC-32C of the original data (4 bytes)
//	...        payload
//
// Wrap turns any compress.Codec into one that emits and verifies this
// envelope end-to-end.
package container

import (
	"encoding/binary"
	"hash/crc32"

	"positbench/internal/compress"
)

// Version is the current frame format version.
const Version = 1

// MaxCodecName bounds the codec-identifier field.
const MaxCodecName = 32

// Magic identifies a positbench container frame.
var Magic = [4]byte{'P', 'B', 'C', 'F'}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the frame's CRC-32C.
func Checksum(p []byte) uint32 { return crc32.Checksum(p, crcTable) }

// Header is the parsed frame metadata.
type Header struct {
	Codec      string // codec name the payload was compressed with
	OrigLen    uint64 // declared decompressed length
	PayloadLen uint64 // declared compressed payload length
	PayloadCRC uint32 // CRC-32C of the compressed payload
	OrigCRC    uint32 // CRC-32C of the decompressed output
}

// Encode frames payload, recording orig's length and checksum so Decode +
// VerifyOutput can prove end-to-end integrity.
func Encode(codecName string, orig, payload []byte) ([]byte, error) {
	if codecName == "" || len(codecName) > MaxCodecName {
		return nil, compress.Errorf(compress.ErrCorrupt, "container: codec name %q out of range", codecName)
	}
	out := make([]byte, 0, len(payload)+len(codecName)+32)
	out = append(out, Magic[:]...)
	out = append(out, Version)
	out = append(out, byte(len(codecName)))
	out = append(out, codecName...)
	out = binary.AppendUvarint(out, uint64(len(orig)))
	out = binary.AppendUvarint(out, uint64(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, Checksum(payload))
	out = binary.LittleEndian.AppendUint32(out, Checksum(orig))
	return append(out, payload...), nil
}

// MaxHeaderLen bounds the encoded header: magic, version, name length, a
// maximal codec name, two maximal uvarints, and both checksums. Peeking
// this many bytes from a stream is always enough to ParseHeader a frame.
const MaxHeaderLen = len(Magic) + 2 + MaxCodecName + 2*binary.MaxVarintLen64 + 8

// ParseHeader parses the frame envelope from the start of b, which need not
// contain the payload: the returned count is the header's encoded length,
// so b[n:] is where the payload begins. Serving paths use it to identify
// the codec of an incoming stream from a bounded prefix before committing
// any resources to the body. Errors carry the usual taxonomy (ErrBadMagic,
// ErrVersion, ErrTruncated, ErrCorrupt).
func ParseHeader(b []byte) (Header, int, error) {
	var h Header
	for i := 0; i < len(Magic); i++ {
		if i >= len(b) {
			return h, 0, compress.Errorf(compress.ErrTruncated, "container: %d-byte frame shorter than magic", len(b))
		}
		if b[i] != Magic[i] {
			return h, 0, compress.Errorf(compress.ErrBadMagic, "container: magic %q", b[:i+1])
		}
	}
	rest := b[len(Magic):]
	if len(rest) < 2 {
		return h, 0, compress.Errorf(compress.ErrTruncated, "container: missing version/name header")
	}
	if rest[0] != Version {
		return h, 0, compress.Errorf(compress.ErrVersion, "container: version %d (supported: %d)", rest[0], Version)
	}
	nameLen := int(rest[1])
	rest = rest[2:]
	if nameLen < 1 || nameLen > MaxCodecName {
		return h, 0, compress.Errorf(compress.ErrCorrupt, "container: codec name length %d", nameLen)
	}
	if len(rest) < nameLen {
		return h, 0, compress.Errorf(compress.ErrTruncated, "container: truncated codec name")
	}
	h.Codec = string(rest[:nameLen])
	rest = rest[nameLen:]
	var used int
	if h.OrigLen, used = binary.Uvarint(rest); used <= 0 {
		return h, 0, uvarintErr("original length", used)
	}
	rest = rest[used:]
	if h.PayloadLen, used = binary.Uvarint(rest); used <= 0 {
		return h, 0, uvarintErr("payload length", used)
	}
	rest = rest[used:]
	if len(rest) < 8 {
		return h, 0, compress.Errorf(compress.ErrTruncated, "container: truncated checksums")
	}
	h.PayloadCRC = binary.LittleEndian.Uint32(rest)
	h.OrigCRC = binary.LittleEndian.Uint32(rest[4:])
	return h, len(b) - len(rest) + 8, nil
}

// Decode parses and validates a frame, returning the header and the payload
// (aliasing frame). It verifies the magic, version, structural lengths, and
// the payload checksum; the output-side checks happen in VerifyOutput once
// the payload has been decompressed.
func Decode(frame []byte) (Header, []byte, error) {
	h, n, err := ParseHeader(frame)
	if err != nil {
		return h, nil, err
	}
	rest := frame[n:]
	if h.PayloadLen > uint64(len(rest)) {
		return h, nil, compress.Errorf(compress.ErrTruncated, "container: payload %d bytes declared, %d present", h.PayloadLen, len(rest))
	}
	if h.PayloadLen < uint64(len(rest)) {
		return h, nil, compress.Errorf(compress.ErrCorrupt, "container: %d trailing bytes after payload", uint64(len(rest))-h.PayloadLen)
	}
	if got := Checksum(rest); got != h.PayloadCRC {
		return h, nil, compress.Errorf(compress.ErrCorrupt, "container: payload checksum %08x, want %08x", got, h.PayloadCRC)
	}
	return h, rest, nil
}

func uvarintErr(field string, n int) error {
	if n == 0 {
		return compress.Errorf(compress.ErrTruncated, "container: truncated %s", field)
	}
	return compress.Errorf(compress.ErrCorrupt, "container: overlong %s varint", field)
}

// VerifyOutput checks the decompressed output against the header's declared
// length and checksum, completing the end-to-end integrity proof.
func VerifyOutput(h Header, out []byte) error {
	if uint64(len(out)) != h.OrigLen {
		return compress.Errorf(compress.ErrCorrupt, "container: decoded %d bytes, frame declares %d", len(out), h.OrigLen)
	}
	if got := Checksum(out); got != h.OrigCRC {
		return compress.Errorf(compress.ErrCorrupt, "container: output checksum %08x, want %08x", got, h.OrigCRC)
	}
	return nil
}

// SniffLen is how many leading bytes Sniff needs: a chunked stream's
// uvarint frame length plus a maximal frame header.
const SniffLen = binary.MaxVarintLen64 + MaxHeaderLen

// Sniff identifies the codec of compressed bytes from their first SniffLen
// bytes (fewer when the input is shorter), without validating the payload,
// so a caller can route a body or file to the right decoder before
// committing any decode resources. Bytes opening with the magic are a bare
// frame (bare is true); otherwise they are a chunked stream, which opens
// with a uvarint frame length followed by the first chunk's frame. Empty
// input and a stream that opens with its terminator are ErrTruncated, an
// unreadable frame length is ErrCorrupt, and a bad header fails as
// ParseHeader does.
func Sniff(prefix []byte) (codec string, bare bool, err error) {
	if len(prefix) == 0 {
		return "", false, compress.Errorf(compress.ErrTruncated, "container: empty input")
	}
	bare = len(prefix) >= len(Magic) && [4]byte(prefix) == Magic
	if !bare {
		length, used := binary.Uvarint(prefix)
		if used <= 0 {
			return "", false, compress.Errorf(compress.ErrCorrupt, "container: unreadable stream frame prefix")
		}
		if length == 0 {
			return "", false, compress.Errorf(compress.ErrTruncated, "container: stream opens with its terminator")
		}
		prefix = prefix[used:]
	}
	h, _, err := ParseHeader(prefix)
	if err != nil {
		return "", false, err
	}
	return h.Codec, bare, nil
}
