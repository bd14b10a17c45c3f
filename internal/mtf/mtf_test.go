package mtf

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"positbench/internal/bwt"
	"positbench/internal/compress"
	"positbench/internal/posit"
	"positbench/internal/sdrbench"
)

func TestMTFKnown(t *testing.T) {
	// "aaab": a is index 97 first, then 0, 0; b is 98 (a moved to front).
	got := Encode([]byte("aaab"))
	want := []byte{97, 0, 0, 98}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	if back := Decode(got); !bytes.Equal(back, []byte("aaab")) {
		t.Fatalf("decode %v", back)
	}
}

func TestMTFRoundtripQuick(t *testing.T) {
	f := func(s []byte) bool { return bytes.Equal(Decode(Encode(s)), s) }
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMTFEmptyAndAllBytes(t *testing.T) {
	if len(Encode(nil)) != 0 || len(Decode(nil)) != 0 {
		t.Fatal("empty")
	}
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	if !bytes.Equal(Decode(Encode(all)), all) {
		t.Fatal("all bytes")
	}
}

func TestRLE1Roundtrip(t *testing.T) {
	cases := [][]byte{
		nil,
		{1},
		{1, 1, 1},
		{1, 1, 1, 1},
		{1, 1, 1, 1, 1},
		bytes.Repeat([]byte{7}, 259),
		bytes.Repeat([]byte{7}, 260),
		bytes.Repeat([]byte{7}, 600),
		bytes.Repeat([]byte{0xFF}, 262), // count byte collides with data byte
		append(bytes.Repeat([]byte{3}, 10), bytes.Repeat([]byte{4}, 10)...),
		[]byte("abcabcabc"),
	}
	for _, c := range cases {
		enc := RLE1(c)
		if n := RLE1Len(c); n != len(enc) {
			t.Fatalf("case len %d: RLE1Len %d, RLE1 wrote %d", len(c), n, len(enc))
		}
		back, err := UnRLE1Limit(enc, 0)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if !bytes.Equal(back, c) {
			t.Fatalf("case len %d: got len %d", len(c), len(back))
		}
	}
}

func TestRLE1Quick(t *testing.T) {
	f := func(s []byte) bool {
		back, err := UnRLE1Limit(RLE1(s), 0)
		return err == nil && bytes.Equal(back, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// rle1PerByte is RLE1 as it was before the shared run finder: it reads
// every run, literal ones included, byte by byte. It is the oracle for
// RLE1's output.
func rle1PerByte(src []byte) []byte {
	var out []byte
	for i := 0; i < len(src); {
		run := rle1Run(src[i:])
		if run >= 4 {
			b := src[i]
			out = append(out, b, b, b, b, byte(run-4))
		} else {
			out = append(out, src[i:i+run]...)
		}
		i += run
	}
	return out
}

// TestRLE1MatchesPerByte: RLE1 and RLE1Len agree with the per-byte coder
// on strings over 1-4 byte values with runs of every length up to 300,
// and on random bytes.
func TestRLE1MatchesPerByte(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 2000; i++ {
		var s []byte
		alphabet, target := 1+rng.Intn(4), rng.Intn(2000)
		for len(s) < target {
			s = append(s, bytes.Repeat([]byte{byte(rng.Intn(alphabet))}, 1+rng.Intn(300>>rng.Intn(8)))...)
		}
		if i%4 == 0 {
			rng.Read(s)
		}
		want := rle1PerByte(s)
		if got := RLE1(s); !bytes.Equal(got, want) {
			t.Fatalf("case %d (%d bytes): RLE1 %x, per-byte %x", i, len(s), got, want)
		}
		if n := RLE1Len(s); n != len(want) {
			t.Fatalf("case %d (%d bytes): RLE1Len %d, per-byte %d", i, len(s), n, len(want))
		}
	}
}

func TestRLE1RunHeavy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := make([]byte, 0, 100000)
	for len(s) < 100000 {
		b := byte(rng.Intn(4))
		run := rng.Intn(1000) + 1
		for i := 0; i < run; i++ {
			s = append(s, b)
		}
	}
	enc := RLE1(s)
	if len(enc) >= len(s) {
		t.Fatalf("RLE1 did not shrink run-heavy data: %d -> %d", len(s), len(enc))
	}
	if n := RLE1Len(s); n != len(enc) {
		t.Fatalf("RLE1Len %d, RLE1 wrote %d", n, len(enc))
	}
	back, err := UnRLE1Limit(enc, 0)
	if err != nil || !bytes.Equal(back, s) {
		t.Fatal("roundtrip failed")
	}
}

func TestUnRLE1Truncated(t *testing.T) {
	if _, err := UnRLE1Limit([]byte{5, 5, 5, 5}, 0); err == nil {
		t.Fatal("truncated run accepted")
	}
}

// decodeZeroRunsLimit inverts EncodeZeroRuns alone, with DecodeRunsMTFLimit's
// output bound and error classes. Composed with Decode it is the unfused
// pair that DecodeRunsMTFLimit replaces, and the oracle for it.
func decodeZeroRunsLimit(src []uint16, maxOut int) ([]byte, error) {
	out := make([]byte, 0, len(src))
	i := 0
	for i < len(src) {
		s := src[i]
		if s > 1 {
			if s > 256 {
				return nil, compress.Errorf(compress.ErrCorrupt, "mtf: symbol %d out of range", s)
			}
			if maxOut > 0 && len(out) >= maxOut {
				return nil, compress.Errorf(compress.ErrLimitExceeded, "mtf: zero-run output exceeds %d bytes", maxOut)
			}
			out = append(out, byte(s-1))
			i++
			continue
		}
		run, ni, err := zeroRunLen(src, i)
		if err != nil {
			return nil, err
		}
		i = ni
		if maxOut > 0 && len(out)+run > maxOut {
			return nil, compress.Errorf(compress.ErrLimitExceeded, "mtf: zero-run output exceeds %d bytes", maxOut)
		}
		out = appendRepeat(out, 0, run)
	}
	return out, nil
}

func TestZeroRunsKnown(t *testing.T) {
	// run=3 zeros -> RUNA RUNA; value 5 -> symbol 6.
	got := EncodeZeroRuns([]byte{0, 0, 0, 5})
	want := []uint16{RunA, RunA, 6}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	back, err := decodeZeroRunsLimit(got, 0)
	if err != nil || !bytes.Equal(back, []byte{0, 0, 0, 5}) {
		t.Fatalf("decode %v %v", back, err)
	}
}

func TestZeroRunsLengths(t *testing.T) {
	for run := 0; run < 600; run++ {
		src := make([]byte, run, run+1)
		src = append(src, 9)
		enc := EncodeZeroRuns(src)
		back, err := decodeZeroRunsLimit(enc, 0)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if !bytes.Equal(back, src) {
			t.Fatalf("run %d: got len %d", run, len(back))
		}
	}
}

func TestZeroRunsQuick(t *testing.T) {
	f := func(s []byte) bool {
		back, err := decodeZeroRunsLimit(EncodeZeroRuns(s), 0)
		return err == nil && bytes.Equal(back, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroRunsBadSymbol(t *testing.T) {
	if _, err := decodeZeroRunsLimit([]uint16{300}, 0); err == nil {
		t.Fatal("symbol out of range accepted")
	}
}

func TestZeroRunsOverflowGuard(t *testing.T) {
	// 64 RUNB digits would decode to an astronomically long run.
	bad := make([]uint16, 64)
	for i := range bad {
		bad[i] = RunB
	}
	if _, err := decodeZeroRunsLimit(bad, 0); err == nil {
		t.Fatal("overflowing run accepted")
	}
}

func BenchmarkMTFEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	s := make([]byte, 1<<20)
	for i := range s {
		s[i] = byte(rng.Intn(8)) // post-BWT-like locality
	}
	b.SetBytes(int64(len(s)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(s)
	}
}

func TestUnRLE1Limit(t *testing.T) {
	enc := RLE1(bytes.Repeat([]byte{9}, 200))
	if _, err := UnRLE1Limit(enc, 50); !errors.Is(err, compress.ErrLimitExceeded) {
		t.Fatalf("want ErrLimitExceeded, got %v", err)
	}
	out, err := UnRLE1Limit(enc, 200)
	if err != nil || len(out) != 200 {
		t.Fatalf("in-bounds decode: %d bytes, %v", len(out), err)
	}
}

func TestDecodeZeroRunsLimit(t *testing.T) {
	// ~30 RUNB digits declare a zero run of about 2^31 bytes.
	syms := make([]uint16, 30)
	for i := range syms {
		syms[i] = RunB
	}
	if _, err := decodeZeroRunsLimit(syms, 1<<16); !errors.Is(err, compress.ErrLimitExceeded) {
		t.Fatalf("want ErrLimitExceeded, got %v", err)
	}
	enc := EncodeZeroRuns(make([]byte, 1000))
	out, err := decodeZeroRunsLimit(enc, 1000)
	if err != nil || len(out) != 1000 {
		t.Fatalf("in-bounds decode: %d bytes, %v", len(out), err)
	}
}

// encodeByteLoop is the byte-at-a-time rank search Encode replaces.
func encodeByteLoop(src []byte) []byte {
	var table [256]byte
	for i := range table {
		table[i] = byte(i)
	}
	out := make([]byte, len(src))
	for i, b := range src {
		var j int
		for table[j] != b {
			j++
		}
		out[i] = byte(j)
		copy(table[1:j+1], table[:j])
		table[0] = b
	}
	return out
}

// TestEncodeMatchesByteLoop: the IndexByte search gives the byte loop's
// ranks on random bytes, on few-symbol and constant runs, on a sweep that
// moves every rank through the front, and on what bzip2 feeds it: the BWT
// of every study input at 4096 values in both encodings.
func TestEncodeMatchesByteLoop(t *testing.T) {
	const seed = 20261022
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	var inputs [][]byte
	for _, n := range []int{0, 1, 2, 255, 256, 4096} {
		random, few := make([]byte, n), make([]byte, n)
		rng.Read(random)
		for i := range few {
			few[i] = byte(rng.Intn(3)) * 85
		}
		inputs = append(inputs, random, few, bytes.Repeat([]byte{0xA5}, n))
	}
	var sweep []byte
	for i := 0; i < 3*256; i++ {
		sweep = append(sweep, byte(255-i%256), byte(i%256))
	}
	inputs = append(inputs, sweep)
	for _, spec := range sdrbench.Inputs() {
		floats := spec.Generate(4096)
		for _, enc := range [][]byte{
			posit.EncodeFloat32LE(floats),
			posit.EncodeWordsLE(posit.Posit32e3.FromFloat32SliceWorkers(nil, floats, 1)),
		} {
			last, _ := bwt.Transform(RLE1(enc))
			inputs = append(inputs, last)
		}
	}
	for i, src := range inputs {
		if got, want := Encode(src), encodeByteLoop(src); !bytes.Equal(got, want) {
			t.Fatalf("input %d (%d bytes): Encode differs from the byte loop", i, len(src))
		}
	}
}

// errClass names the compress error classes an mtf decoder can return.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, compress.ErrLimitExceeded):
		return "limit"
	case errors.Is(err, compress.ErrTruncated):
		return "truncated"
	case errors.Is(err, compress.ErrCorrupt):
		return "corrupt"
	}
	return "other: " + err.Error()
}

// TestDecodeRunsMTFMatchesUnfused: the fused decoder equals Decode after
// decodeZeroRunsLimit, output and error class alike, on random and
// zero-heavy symbol streams, on the ranks either side of its register-loop
// cut (symbols 16 and 17), on out-of-range symbols and RUNA/RUNB overflow,
// each at maxOut 0, at the exact output length and one below it.
func TestDecodeRunsMTFMatchesUnfused(t *testing.T) {
	const seed = 20261018
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	var streams [][]uint16
	for _, n := range []int{0, 1, 2, 17, 300, 5000} {
		random := make([]uint16, n)
		for i := range random {
			random[i] = uint16(rng.Intn(257))
		}
		zeroHeavy := make([]byte, n)
		for i := range zeroHeavy {
			if rng.Intn(8) == 0 {
				zeroHeavy[i] = byte(rng.Intn(256))
			}
		}
		streams = append(streams, random, EncodeZeroRuns(Encode(zeroHeavy)))
	}
	cut := []uint16{16, 17, 16, 17, 17, 16, RunA, 17, RunB, 16, 2, 17, 256}
	for i := 0; i < 200; i++ {
		cut = append(cut, cut[rng.Intn(len(cut))])
	}
	overflow := make([]uint16, 64)
	for i := range overflow {
		overflow[i] = RunB
	}
	streams = append(streams, cut,
		[]uint16{5, RunA, 257},          // above 256 after output
		[]uint16{RunB, RunA, 0xFFFF, 3}, // far above 256 after a run
		append([]uint16{7, RunA}, overflow...),
	)
	for i, src := range streams {
		// The unbounded unfused decode gives the exact output length.
		n := 0
		if z, err := decodeZeroRunsLimit(src, 0); err == nil {
			n = len(z)
		}
		for _, maxOut := range []int{0, n, n - 1} {
			got, gotErr := DecodeRunsMTFLimit(src, maxOut)
			z, wantErr := decodeZeroRunsLimit(src, maxOut)
			if g, w := errClass(gotErr), errClass(wantErr); g != w {
				t.Fatalf("stream %d, maxOut %d: fused error %q, unfused %q", i, maxOut, g, w)
			}
			if wantErr == nil && !bytes.Equal(got, Decode(z)) {
				t.Fatalf("stream %d, maxOut %d: fused output differs from Decode(decodeZeroRunsLimit)", i, maxOut)
			}
		}
	}
}
