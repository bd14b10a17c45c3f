package predict

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"positbench/internal/bitio"
	"positbench/internal/compress"
	"positbench/internal/compress/codectest"
	"positbench/internal/posit"
	"positbench/internal/sdrbench"
)

// fuzzSeedBytes is a deterministic sdrbench slice: real float structure so
// the fuzzer starts from streams that exercise the predictors, not just
// the stored fallback.
func fuzzSeedBytes(i, n int) []byte {
	vals := sdrbench.Inputs()[i].Generate(n)
	out := make([]byte, 0, 4*len(vals))
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
	}
	return out
}

// fuzzSeedPosit is the same field as posit<32,3> words, the fpc-posit
// input shape.
func fuzzSeedPosit(i, n int) []byte {
	vals := sdrbench.Inputs()[i].Generate(n)
	return posit.EncodeWordsLE(posit.Posit32e3.FromFloat32Slice(nil, vals))
}

// FuzzFCMRoundtrip pins the FCM code path: selection is forced so every
// block's residuals come from the finite-context predictor.
func FuzzFCMRoundtrip(f *testing.F) {
	f.Add(fuzzSeedBytes(0, 512))
	f.Add(fuzzSeedPosit(2, 512))
	codectest.FuzzRoundtrip(f, NewNamed("fpc-fcm", Config{Force: ForceFCM}))
}

// FuzzDFCMRoundtrip pins the DFCM path, in split-plane mode so the Huffman
// bucket coder fuzzes too.
func FuzzDFCMRoundtrip(f *testing.F) {
	f.Add(fuzzSeedBytes(4, 512))
	f.Add(fuzzSeedPosit(6, 512))
	codectest.FuzzRoundtrip(f, NewNamed("fpc-dfcm", Config{Split: true, Force: ForceDFCM}))
}

// FuzzResidualDecode is the decode-side target for the LZC residual parser:
// arbitrary bytes hit the uvarint header, mode byte, selection bytes, and
// both block decoders. Decoding may fail but must never panic or outgrow
// the decode limits; inputs that do decode must re-encode losslessly
// through the roundtrip the other direction.
func FuzzResidualDecode(f *testing.F) {
	plain := New()
	split := newSplit()
	for _, seed := range [][]byte{fuzzSeedBytes(1, 256), fuzzSeedPosit(3, 256)} {
		if comp, err := plain.Compress(seed); err == nil {
			f.Add(comp)
			f.Add(comp[:len(comp)/2]) // truncated mid-payload
			flip := append([]byte(nil), comp...)
			flip[len(flip)/3] ^= 0x40 // bit flip in the selection/payload region
			f.Add(flip)
		}
		if comp, err := split.Compress(seed); err == nil {
			f.Add(comp)
			f.Add(comp[:len(comp)-1])
		}
		f.Add(seed) // raw floats as hostile compressed input
	}
	f.Add([]byte{0})                            // declared empty
	f.Add(bitio.PutUvarint(nil, 1<<40))         // hostile declared length
	f.Add(append(bitio.PutUvarint(nil, 64), 7)) // unknown mode
	lim := compress.DecodeLimits{MaxOutputBytes: 1 << 24}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range []*Codec{plain, split} {
			out, err := c.DecompressLimits(data, lim)
			if err != nil {
				continue
			}
			if limit := lim.OutputCap(len(data)); int64(len(out)) > limit {
				t.Fatalf("%s decoded %d bytes from %d input, over the %d cap", c.Name(), len(out), len(data), limit)
			}
			comp, err := c.Compress(out)
			if err != nil {
				t.Fatalf("%s re-compress of decoded output: %v", c.Name(), err)
			}
			back, err := c.Decompress(comp)
			if err != nil || !bytes.Equal(back, out) {
				t.Fatalf("%s re-roundtrip of decoded output failed: %v", c.Name(), err)
			}
		}
	})
}
