package huffman

import (
	"math/rand"
	"testing"

	"positbench/internal/bitio"
)

// DecodeBatch's fast loop bails out once fewer than MaxBits of lookahead
// remain and hands the tail to the Peek/Consume path, which sees the
// reader's zero-padded lookahead. These tests pin the handoff: symbols
// whose codes straddle the final refill, streams that end exactly on a
// symbol boundary, and agreement with symbol-at-a-time Decode on random
// code sets near EOS.

// encodeStream writes syms with enc and returns the raw bitstream.
func encodeStream(enc *Encoder, syms []int) []byte {
	w := bitio.NewWriter(64 + len(syms))
	for _, s := range syms {
		enc.Encode(w, s)
	}
	return w.Bytes()
}

// buildSet returns an encoder/decoder pair for the given frequencies.
func buildSet(t *testing.T, freqs []int, maxBits int) (*Encoder, *Decoder) {
	t.Helper()
	lengths, err := BuildLengths(freqs, maxBits)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewEncoder(lengths)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(lengths)
	if err != nil {
		t.Fatal(err)
	}
	return enc, dec
}

// TestDecodeBatchFinalRefillStraddle decodes a stream sized so the last
// symbols sit in the final sub-MaxBits lookahead window: every prefix
// length of the symbol stream must batch-decode exactly.
func TestDecodeBatchFinalRefillStraddle(t *testing.T) {
	// Skewed frequencies give a mix of short and max-length codes, so the
	// final window can end mid-symbol for some prefix.
	freqs := []int{4096, 1024, 256, 64, 16, 4, 1, 1, 1, 1}
	enc, dec := buildSet(t, freqs, MaxBits)
	rng := rand.New(rand.NewSource(42))
	syms := make([]int, 200)
	for i := range syms {
		syms[i] = rng.Intn(len(freqs))
	}
	for n := 1; n <= len(syms); n++ {
		stream := encodeStream(enc, syms[:n])
		r := bitio.NewReader(stream)
		dst := make([]uint16, n)
		k, sawStop, err := dec.DecodeBatch(r, dst, -1) // no stop symbol
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if sawStop {
			t.Fatalf("n=%d: phantom stop symbol", n)
		}
		if k != n {
			t.Fatalf("n=%d: decoded %d symbols", n, k)
		}
		for i := range dst {
			if int(dst[i]) != syms[i] {
				t.Fatalf("n=%d: symbol %d = %d, want %d", n, i, dst[i], syms[i])
			}
		}
	}
}

// TestDecodeBatchZeroPaddedEOS checks the zero-padding hazard: after the
// real bits run out the lookahead reads as zeros, which alias the
// all-zero (shortest) canonical code. A batch asked for more symbols than
// the stream holds must either error or stop at the stop symbol — it must
// not fabricate trailing symbols past an EOS marker.
func TestDecodeBatchZeroPaddedEOS(t *testing.T) {
	// Symbol 0 gets the all-zeros code; the last alphabet slot acts as EOS.
	freqs := []int{4096, 64, 16, 4, 1}
	eos := len(freqs) - 1
	enc, dec := buildSet(t, freqs, MaxBits)
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 50; trial++ {
		// Trial 0 codes EOS alone, so the batch finds it on its first
		// symbol, in the tail.
		n := 0
		if trial > 0 {
			n = 1 + rng.Intn(60)
		}
		syms := make([]int, n)
		for i := range syms {
			syms[i] = rng.Intn(eos) // body never contains EOS
		}
		stream := encodeStream(enc, append(syms, eos))
		r := bitio.NewReader(stream)
		dst := make([]uint16, n+40) // ask for far more than the stream holds
		k, sawStop, err := dec.DecodeBatch(r, dst, eos)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !sawStop {
			t.Fatalf("trial %d: EOS not seen (decoded %d of %d+1)", trial, k, n)
		}
		if k != n {
			t.Fatalf("trial %d: decoded %d symbols before EOS, want %d", trial, k, n)
		}
		for i := 0; i < n; i++ {
			if int(dst[i]) != syms[i] {
				t.Fatalf("trial %d: symbol %d = %d, want %d", trial, i, dst[i], syms[i])
			}
		}
	}
}

// TestDecodeBatchMatchesDecode cross-checks DecodeBatch against the
// symbol-at-a-time Decode on random code sets, with stream lengths chosen
// to exercise the EOS boundary.
func TestDecodeBatchMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 200; trial++ {
		alpha := 2 + rng.Intn(300)
		freqs := make([]int, alpha)
		for i := range freqs {
			// Exponential-ish spread yields code lengths from 1 bit to the
			// limit; some symbols get zero frequency (no code).
			if rng.Intn(4) == 0 {
				continue
			}
			freqs[i] = 1 << rng.Intn(14)
		}
		// Ensure at least two coded symbols.
		freqs[0] |= 1
		freqs[alpha-1] |= 1
		enc, dec := buildSet(t, freqs, MaxBits)
		coded := make([]int, 0, alpha)
		for s, f := range freqs {
			if f > 0 {
				coded = append(coded, s)
			}
		}
		n := 1 + rng.Intn(80)
		syms := make([]int, n)
		for i := range syms {
			syms[i] = coded[rng.Intn(len(coded))]
		}
		stream := encodeStream(enc, syms)

		// Reference: one symbol at a time.
		ref := bitio.NewReader(stream)
		for i := 0; i < n; i++ {
			got, err := dec.Decode(ref)
			if err != nil {
				t.Fatalf("trial %d: Decode symbol %d: %v", trial, i, err)
			}
			if got != syms[i] {
				t.Fatalf("trial %d: Decode symbol %d = %d, want %d", trial, i, got, syms[i])
			}
		}

		// Batch, split at a random point so the second call starts inside
		// whatever lookahead state the first left behind.
		r := bitio.NewReader(stream)
		dst := make([]uint16, n)
		split := rng.Intn(n + 1)
		k1, saw1, err := dec.DecodeBatch(r, dst[:split], -1)
		if err != nil || saw1 {
			t.Fatalf("trial %d: first batch: k=%d saw=%v err=%v", trial, k1, saw1, err)
		}
		k2, saw2, err := dec.DecodeBatch(r, dst[split:], -1)
		if err != nil || saw2 {
			t.Fatalf("trial %d: second batch: k=%d saw=%v err=%v", trial, k2, saw2, err)
		}
		if k1+k2 != n {
			t.Fatalf("trial %d: decoded %d+%d symbols, want %d", trial, k1, k2, n)
		}
		for i := range dst {
			if int(dst[i]) != syms[i] {
				t.Fatalf("trial %d: batch symbol %d = %d, want %d (split %d)", trial, i, dst[i], syms[i], split)
			}
		}
	}
}
