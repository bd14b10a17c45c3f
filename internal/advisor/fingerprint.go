package advisor

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"strings"

	"positbench/internal/ieee"
)

// Fingerprint is the advisor's compact description of one sampled stream:
// the content hash that keys the decision cache, plus the float-structure
// features that travel with every decision as evidence. Features are
// computed on the little-endian 32-bit word view of the sample (the wire
// format of every study input); byte streams that are not word-aligned
// still fingerprint — the ragged tail is simply outside the word view.
type Fingerprint struct {
	// Key is the cache key: FNV-1a over the sample bytes, the sample
	// length, and the normalized candidate hints. Identical samples under
	// identical hints always collide — that is the point.
	Key string `json:"key"`
	// SampleLen is how many bytes were fingerprinted and trial-compressed.
	SampleLen int `json:"sample_len"`
	// ExpEntropy is the Shannon entropy (bits, 0..8) of the biased-exponent
	// histogram. Low entropy means the exponent plane is nearly constant —
	// the structure positpack/fpc-class codecs exploit.
	ExpEntropy float64 `json:"exp_entropy"`
	// SignFlipPct is the percentage of consecutive values whose sign bit
	// differs (oscillating fields flip often; smooth fields almost never).
	SignFlipPct float64 `json:"sign_flip_pct"`
	// MantDeltaEntropy is the Shannon entropy (bits, 0..~5) of the
	// leading-zero-count distribution of XOR deltas between consecutive
	// words: a proxy for how predictable successive mantissas are, the
	// signal FCM/DFCM predictors feed on.
	MantDeltaEntropy float64 `json:"mant_delta_entropy"`
	// RepeatPct is the percentage of 64-byte blocks in the sample whose
	// exact content occurred earlier in the sample (LZ-class fuel).
	RepeatPct float64 `json:"repeat_pct"`
	// FloatLike reports whether the sample is word-aligned and nearly free
	// of NaN/Inf patterns, i.e. plausibly float32 (or posit) data at all.
	FloatLike bool `json:"float_like"`
}

// sampleSeed seeds the deterministic window placement in Sample. It is a
// constant on purpose: identical input must always yield the identical
// sample, and therefore the identical fingerprint and decision.
const sampleSeed = 1

// sampleWindows is how many regions Sample cuts from an over-budget input.
const sampleWindows = 4

// Sample extracts the advisor's deterministic sample from data: the whole
// input when it fits the budget, otherwise sampleWindows windows of
// budget/sampleWindows bytes, one per equal segment of the input, each
// placed inside its segment by a seeded RNG. The placement depends only on
// len(data) and the constant seed, so identical inputs sample identically.
func Sample(data []byte, budget int) []byte {
	if budget <= 0 {
		budget = DefaultSampleBytes
	}
	if len(data) <= budget {
		return data
	}
	window := budget / sampleWindows
	if window == 0 {
		window = 1
	}
	rng := rand.New(rand.NewSource(sampleSeed))
	out := make([]byte, 0, budget)
	segment := len(data) / sampleWindows
	for i := 0; i < sampleWindows; i++ {
		segStart := i * segment
		slack := segment - window
		if slack < 0 {
			slack = 0
		}
		off := segStart
		if slack > 0 {
			off += rng.Intn(slack)
		}
		// Word-align the window start so the float32 view of the sample
		// stays in phase with the underlying stream.
		off &^= 3
		end := off + window
		if end > len(data) {
			end = len(data)
		}
		out = append(out, data[off:end]...)
	}
	return out
}

// sampleKey is the decision-cache key of sample under the normalized
// hints: FNV-1a over the sample, its length, and the hints.
func sampleKey(sample []byte, norm []string) string {
	h := fnv.New64a()
	h.Write(sample)
	key := fmt.Sprintf("%016x-%d", h.Sum64(), len(sample))
	if len(norm) > 0 {
		key += "|" + strings.Join(norm, ",")
	}
	return key
}

// fingerprintSample computes the features of sample, whose cache key is
// key.
func fingerprintSample(sample []byte, key string) Fingerprint {
	fp := Fingerprint{Key: key, SampleLen: len(sample)}

	words := len(sample) / 4
	if words == 0 {
		return fp
	}

	var hist ieee.Histogram
	var signFlips, specials int
	var lzcBins [33]int
	prev := leWord(sample, 0)
	hist.Add(math.Float32frombits(prev))
	if cls := ieee.Classify(math.Float32frombits(prev)); cls == ieee.Inf || cls == ieee.NaN {
		specials++
	}
	for i := 1; i < words; i++ {
		w := leWord(sample, i)
		f := math.Float32frombits(w)
		hist.Add(f)
		if cls := ieee.Classify(f); cls == ieee.Inf || cls == ieee.NaN {
			specials++
		}
		if (w^prev)>>31 != 0 {
			signFlips++
		}
		lzcBins[bits.LeadingZeros32(w^prev)]++
		prev = w
	}
	fp.ExpEntropy = entropy(hist.Bins[:], words)
	if words > 1 {
		fp.SignFlipPct = 100 * float64(signFlips) / float64(words-1)
		fp.MantDeltaEntropy = entropy(lzcBins[:], words-1)
	}
	fp.RepeatPct = repeatedBlockPct(sample)
	fp.FloatLike = len(sample)%4 == 0 && specials*20 < words // < 5% NaN/Inf
	return fp
}

// leWord reads the i-th little-endian 32-bit word of b.
func leWord(b []byte, i int) uint32 {
	off := 4 * i
	return uint32(b[off]) | uint32(b[off+1])<<8 | uint32(b[off+2])<<16 | uint32(b[off+3])<<24
}

// entropy is the Shannon entropy in bits of a count histogram with total
// observations.
func entropy(bins []int, total int) float64 {
	if total <= 0 {
		return 0
	}
	var e float64
	for _, n := range bins {
		if n == 0 {
			continue
		}
		p := float64(n) / float64(total)
		e -= p * math.Log2(p)
	}
	return e
}

// repeatBlockSize is the granularity of the repeated-block scan.
const repeatBlockSize = 64

// repeatedBlockPct reports what percentage of repeatBlockSize-byte blocks
// repeat an earlier block exactly (by content hash; a collision overcounts
// by at most a rounding error on real data).
func repeatedBlockPct(sample []byte) float64 {
	blocks := len(sample) / repeatBlockSize
	if blocks < 2 {
		return 0
	}
	seen := make(map[uint64]struct{}, blocks)
	repeats := 0
	for i := 0; i < blocks; i++ {
		h := fnv.New64a()
		h.Write(sample[i*repeatBlockSize : (i+1)*repeatBlockSize])
		sum := h.Sum64()
		if _, dup := seen[sum]; dup {
			repeats++
		} else {
			seen[sum] = struct{}{}
		}
	}
	return 100 * float64(repeats) / float64(blocks)
}

// normalizeHints lowercases, trims, dedupes, and sorts hint names so hint
// order never splits the cache.
func normalizeHints(hints []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, h := range hints {
		h = strings.ToLower(strings.TrimSpace(h))
		if h == "" || seen[h] {
			continue
		}
		seen[h] = true
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}
