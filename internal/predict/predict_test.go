package predict

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"positbench/internal/bitio"
	"positbench/internal/compress"
	"positbench/internal/compress/codectest"
	"positbench/internal/compress/lz4c"
	"positbench/internal/posit"
	"positbench/internal/sdrbench"
)

var updateGolden = flag.Bool("update", false, "regenerate predict golden vector files")

// newSplit builds the split-plane family member under test, with the same
// configuration NewPosit uses (fpc-posit has its own suite in positpack).
func newSplit() *Codec { return NewNamed("fpc-split", Config{Split: true}) }

func TestConformancePlain(t *testing.T) { codectest.Run(t, New()) }
func TestConformanceSplit(t *testing.T) { codectest.Run(t, newSplit()) }

func TestConformanceForced(t *testing.T) {
	// The forced-predictor configs are what the fuzz targets drive; they
	// must clear the same wall as automatic selection.
	codectest.Run(t, NewNamed("fpc-fcm", Config{Force: ForceFCM}))
	codectest.Run(t, NewNamed("fpc-dfcm", Config{Split: true, Force: ForceDFCM}))
}

// repeatU32 builds a constant word stream.
func repeatU32(v uint32, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// wordBytes packs uint32s little-endian, the codec's word format.
func wordBytes(vals ...uint32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[4*i:], v)
	}
	return out
}

// residuals runs one predictor over vals exactly as the encoder does and
// returns the XOR residual stream.
func residuals(vals []uint32, useDFCM bool, tb uint) []uint32 {
	var p predictors
	p.reset(tb)
	out := make([]uint32, len(vals))
	for i, v := range vals {
		fp, dp := p.predict()
		p.update(v)
		if useDFCM {
			out[i] = v ^ dp
		} else {
			out[i] = v ^ fp
		}
	}
	return out
}

// Hand-derived anchors: with zeroed tables and values below 2^21 the hashes
// stay at slot 0, so the predictions can be traced on paper.
//
// FCM over [5,5,5,5]: the first prediction is 0 (residual 5); from then on
// slot 0 holds 5 and every residual is 0.
//
// DFCM over [5,5,5,5]: pred(w1)=0 (residual 5); after w1 the delta table
// holds 5, so pred(w2)=5+5=10 and residual 5^10=0xF; after w2 the stored
// delta is 0, so w3 and w4 predict 5 exactly.
//
// DFCM over the stride [0,4,8,12]: the first two deltas miss (residuals 0
// and 4), then the learned delta 4 predicts the rest exactly.
func TestResidualAnchors(t *testing.T) {
	cases := []struct {
		name string
		vals []uint32
		dfcm bool
		want []uint32
	}{
		{"fcm-constant", []uint32{5, 5, 5, 5}, false, []uint32{5, 0, 0, 0}},
		{"dfcm-constant", []uint32{5, 5, 5, 5}, true, []uint32{5, 0xF, 0, 0}},
		{"dfcm-stride", []uint32{0, 4, 8, 12}, true, []uint32{0, 4, 0, 0}},
		{"fcm-stride-misses", []uint32{0, 4, 8, 12}, false, []uint32{0, 4, 12, 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := residuals(tc.vals, tc.dfcm, tableBitsFor(len(tc.vals)))
			for i := range tc.want {
				if got[i] != tc.want[i] {
					t.Errorf("residual[%d] = %#x, want %#x (all: %#x)", i, got[i], tc.want[i], got)
				}
			}
		})
	}
}

func TestBucketLevelTable(t *testing.T) {
	// Every significant-bit count must land in a bucket whose level covers
	// it, and buckets must fit the 4-bit field.
	for sig := 0; sig <= 32; sig++ {
		var r uint32
		if sig > 0 {
			r = 1 << uint(sig-1)
		}
		b := bucketOf(r)
		if b < 0 || b > 15 {
			t.Fatalf("sig %d: bucket %d out of 4-bit range", sig, b)
		}
		if uint(sig) > level(b) {
			t.Fatalf("sig %d: bucket %d level %d cannot represent the residual", sig, b, level(b))
		}
		if sig == 0 && b != 0 || sig > 0 && b == 0 {
			t.Fatalf("sig %d: bucket %d breaks the zero-residual reservation", sig, b)
		}
	}
}

// goldenCases are short deterministic streams whose compressed bytes are
// pinned in testdata: any change to the stream format, hash constants,
// bucket table, or selection policy shows up as a diff, not silent drift.
// Regenerate deliberately with:
//
//	go test ./internal/predict -run TestGoldenVectors -update
func goldenCases() []struct {
	name string
	data []byte
} {
	smooth := make([]uint32, 64)
	for i := range smooth {
		smooth[i] = math.Float32bits(float32(math.Sin(float64(i)/9) + 2))
	}
	stride := make([]uint32, 64)
	for i := range stride {
		stride[i] = uint32(i) * 4096
	}
	return []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"tail-only", []byte{1, 2, 3}},
		{"constant", wordBytes(repeatU32(0x40a00000, 16)...)},
		{"stride", wordBytes(stride...)},
		{"smooth-sine", wordBytes(smooth...)},
		{"smooth-with-tail", append(wordBytes(smooth...), 0xAA, 0xBB)},
	}
}

func TestGoldenVectors(t *testing.T) {
	codecs := []*Codec{New(), newSplit()}
	for _, c := range codecs {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			path := filepath.Join("testdata", "golden_"+c.Name()+".txt")
			if *updateGolden {
				var b strings.Builder
				fmt.Fprintf(&b, "# %s golden vectors: case hex(compressed)\n", c.Name())
				for _, gc := range goldenCases() {
					comp, err := c.Compress(gc.data)
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(&b, "%s %s\n", gc.name, hex.EncodeToString(comp))
				}
				if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			file, err := os.Open(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			defer file.Close()
			want := map[string]string{}
			sc := bufio.NewScanner(file)
			for sc.Scan() {
				line := strings.TrimSpace(sc.Text())
				if line == "" || strings.HasPrefix(line, "#") {
					continue
				}
				parts := strings.Fields(line)
				if len(parts) == 1 {
					want[parts[0]] = "" // empty input compresses to header only? never: uvarint 0
				} else {
					want[parts[0]] = parts[1]
				}
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			for _, gc := range goldenCases() {
				comp, err := c.Compress(gc.data)
				if err != nil {
					t.Fatal(err)
				}
				got := hex.EncodeToString(comp)
				w, ok := want[gc.name]
				if !ok {
					t.Errorf("case %q missing from golden file (regenerate with -update)", gc.name)
					continue
				}
				if got != w {
					t.Errorf("case %q compressed bytes drifted:\n got %s\nwant %s", gc.name, got, w)
				}
				back, err := c.Decompress(comp)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(back, gc.data) {
					t.Errorf("case %q golden stream does not roundtrip", gc.name)
				}
			}
		})
	}
}

// Perfectly predictable streams must compress to near the coding floor:
// 4 bits per word plain (1 bit per word split) plus per-block overhead.
func TestPerfectPredictionFloor(t *testing.T) {
	const n = 64 << 10 // bytes
	words := n / 4
	constant := wordBytes(repeatU32(math.Float32bits(3.25), words)...)
	stride := make([]uint32, words)
	for i := range stride {
		stride[i] = 1<<20 + uint32(i)*8192
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"constant", constant},
		{"stride", wordBytes(stride...)},
	}
	for _, c := range []*Codec{New(), newSplit()} {
		for _, tc := range cases {
			t.Run(c.Name()+"/"+tc.name, func(t *testing.T) {
				comp, err := c.Compress(tc.data)
				if err != nil {
					t.Fatal(err)
				}
				// Floor: 4 bits/word + selection bytes + header slack. The
				// first words of each predictor warm-up cost a few full
				// residuals; 64 bytes of slack covers them.
				limit := n/8 + n/16384 + 64
				if len(comp) > limit {
					t.Errorf("%s: %d bytes -> %d, want <= %d (near-perfect prediction floor)", tc.name, n, len(comp), limit)
				}
				back, err := c.Decompress(comp)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(back, tc.data) {
					t.Error("roundtrip mismatch")
				}
			})
		}
	}
}

// Compression is a pure function: pooled predictor state must reset between
// calls, so compressing B after A yields the same bytes as compressing B
// fresh. This is the property that makes parallel chunk output byte-equal
// to serial (codectest.StreamEquivalence then checks the engines
// themselves).
func TestStateResetsBetweenCalls(t *testing.T) {
	a := wordBytes(func() []uint32 {
		vals := make([]uint32, 5000)
		for i := range vals {
			vals[i] = uint32(i*i) * 2654435761
		}
		return vals
	}()...)
	b := sdrbenchBytes(t, 0, 4096)

	c := New()
	fresh, err := c.Compress(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := c.Compress(a); err != nil { // dirty the pooled tables
			t.Fatal(err)
		}
		again, err := c.Compress(b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fresh, again) {
			t.Fatalf("iteration %d: compressing the same input after other work changed the output (state leaked across calls)", i)
		}
	}
}

// sdrbenchBytes returns input spec i as a little-endian float32 byte stream.
func sdrbenchBytes(t *testing.T, i, n int) []byte {
	t.Helper()
	vals := sdrbench.Inputs()[i].Generate(n)
	out := make([]byte, 4*len(vals))
	for j, v := range vals {
		binary.LittleEndian.PutUint32(out[4*j:], math.Float32bits(v))
	}
	return out
}

// The acceptance bar from the issue: the predictive family must beat at
// least one existing registry codec's ratio on an sdrbench input. lz4 is
// the honest comparison — the paper's own result is that byte-oriented LZ
// cannot compress smooth float data, while a value predictor can.
func TestBeatsLZ4OnSdrbench(t *testing.T) {
	data := sdrbenchBytes(t, 2, 64<<10) // EXAALT dataset1.y: smooth MD field, lz4 ratio ~1.0
	for _, c := range []compress.Codec{New(), newSplit()} {
		pc, err := c.Compress(data)
		if err != nil {
			t.Fatal(err)
		}
		lc, err := lz4c.New().Compress(data)
		if err != nil {
			t.Fatal(err)
		}
		pr := compress.Ratio(len(data), len(pc))
		lr := compress.Ratio(len(data), len(lc))
		t.Logf("%s: ratio %.3f vs lz4 %.3f on EXAALT dataset1.y", c.Name(), pr, lr)
		if pr <= lr {
			t.Errorf("%s ratio %.3f does not beat lz4 %.3f on a smooth sdrbench field", c.Name(), pr, lr)
		}
	}
}

// Posit words compress at least as well: the regime bits make the top of
// the word even more predictable.
func TestPositWordsCompress(t *testing.T) {
	vals := sdrbench.Inputs()[1].Generate(32 << 10)
	wordsP := posit.Posit32e3.FromFloat32Slice(nil, vals)
	data := posit.EncodeWordsLE(wordsP)
	c := newSplit()
	comp, err := c.Compress(data)
	if err != nil {
		t.Fatal(err)
	}
	if r := compress.Ratio(len(data), len(comp)); r < 1.2 {
		t.Errorf("split codec ratio %.3f on posit<32,3> words, want >= 1.2", r)
	}
	back, err := c.Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Error("posit word roundtrip mismatch")
	}
}

// Incompressible input must take the stored escape and stay within a few
// header bytes of the original.
func TestStoredFallbackBound(t *testing.T) {
	data := make([]byte, 64<<10)
	st := uint64(0x9E3779B97F4A7C15)
	for i := range data {
		st = st*6364136223846793005 + 1442695040888963407
		data[i] = byte(st >> 56)
	}
	for _, c := range []*Codec{New(), newSplit()} {
		comp, err := c.Compress(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(comp) > len(data)+8 {
			t.Errorf("%s: incompressible input expanded %d -> %d, stored fallback missing", c.Name(), len(data), len(comp))
		}
		back, err := c.Decompress(comp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, data) {
			t.Error("stored-mode roundtrip mismatch")
		}
	}
}

// Decode-side hostility: declared lengths past the cap must trip
// ErrLimitExceeded before any allocation-by-header, and structural garbage
// must map onto the shared taxonomy.
func TestDecodeLimitsAndTaxonomy(t *testing.T) {
	c := New()
	huge := bitio.PutUvarint(nil, 1<<40)
	if _, err := c.DecompressLimits(append(huge, modePlain), compress.DecodeLimits{MaxOutputBytes: 4096}); !errors.Is(err, compress.ErrLimitExceeded) {
		t.Errorf("huge declared length: %v, want ErrLimitExceeded", err)
	}
	bad := bitio.PutUvarint(nil, 8)
	bad = append(bad, 7) // unknown mode
	bad = append(bad, make([]byte, 16)...)
	if _, err := c.Decompress(bad); !errors.Is(err, compress.ErrCorrupt) {
		t.Errorf("unknown mode: %v, want ErrCorrupt", err)
	}
	comp, err := c.Compress(sdrbenchBytes(t, 0, 2048))
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, 2, len(comp) / 2, len(comp) - 1} {
		if _, err := c.Decompress(comp[:cut]); !errors.Is(err, compress.ErrCorrupt) {
			t.Errorf("truncation to %d: %v, want the corrupt taxonomy", cut, err)
		}
	}
}
