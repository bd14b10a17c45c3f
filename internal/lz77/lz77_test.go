package lz77

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"positbench/internal/compress"
)

func TestFindsObviousMatch(t *testing.T) {
	src := []byte("abcdefgh--abcdefgh")
	m := NewMatcher(src, 1<<16, 32)
	for i := 0; i < 10; i++ {
		m.Insert(i)
	}
	dist, length := m.FindMatch(10, len(src)-10)
	if dist != 10 || length != 8 {
		t.Fatalf("got dist=%d len=%d, want 10,8", dist, length)
	}
}

func TestNoMatchOnRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := make([]byte, 256)
	rng.Read(src)
	m := NewMatcher(src, 1<<16, 32)
	misses := 0
	for i := 0; i < len(src)-MinMatch; i++ {
		if d, l := m.FindMatch(i, len(src)-i); d == 0 && l == 0 {
			misses++
		}
		m.Insert(i)
	}
	if misses < 200 {
		t.Fatalf("random data should rarely match: %d misses", misses)
	}
}

func TestWindowLimit(t *testing.T) {
	pattern := []byte("0123456789ABCDEF")
	src := append(append([]byte{}, pattern...), make([]byte, 100)...)
	for i := 16; i < 116; i++ {
		src[i] = byte(i * 7)
	}
	src = append(src, pattern...)
	m := NewMatcher(src, 32, 64) // window too small to reach the first copy
	for i := 0; i+MinMatch <= len(src)-16; i++ {
		m.Insert(i)
	}
	if d, l := m.FindMatch(len(src)-16, 16); d != 0 || l != 0 {
		t.Fatalf("match beyond window reported: dist=%d len=%d", d, l)
	}
	m2 := NewMatcher(src, 1<<16, 64)
	for i := 0; i+MinMatch <= len(src)-16; i++ {
		m2.Insert(i)
	}
	if d, l := m2.FindMatch(len(src)-16, 16); d != 116 || l != 16 {
		t.Fatalf("wide window: dist=%d len=%d, want 116,16", d, l)
	}
}

func TestPrefersCloserOnTies(t *testing.T) {
	src := []byte("wxyz--wxyz--wxyz")
	m := NewMatcher(src, 1<<16, 64)
	for i := 0; i < 12; i++ {
		m.Insert(i)
	}
	dist, length := m.FindMatch(12, 4)
	if length != 4 || dist != 6 {
		t.Fatalf("got dist=%d len=%d, want 6,4", dist, length)
	}
}

func TestMatchLen(t *testing.T) {
	src := []byte("aaaaabaaaa")
	if got := MatchLen(src, 0, 6, 4); got != 4 {
		t.Fatalf("got %d", got)
	}
	if got := MatchLen(src, 0, 5, 5); got != 0 {
		t.Fatalf("got %d", got)
	}
}

func TestMatchesAreValid(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Compressible data: random phrases repeated.
	var src []byte
	phrases := make([][]byte, 16)
	for i := range phrases {
		phrases[i] = make([]byte, rng.Intn(30)+4)
		rng.Read(phrases[i])
	}
	for len(src) < 20000 {
		src = append(src, phrases[rng.Intn(16)]...)
	}
	m := NewMatcher(src, 1<<16, 32)
	found := 0
	for i := 0; i < len(src); i++ {
		if d, l := m.FindMatch(i, len(src)-i); l > 0 {
			if d <= 0 || i-d < 0 {
				t.Fatalf("invalid dist %d at %d", d, i)
			}
			if !bytes.Equal(src[i:i+l], src[i-d:i-d+l]) {
				t.Fatalf("reported match does not match at %d (d=%d l=%d)", i, d, l)
			}
			if l < MinMatch {
				t.Fatalf("short match %d", l)
			}
			found++
		}
		m.Insert(i)
	}
	if found < 1000 {
		t.Fatalf("too few matches on compressible data: %d", found)
	}
}

func TestTailPositions(t *testing.T) {
	src := []byte("abc")
	m := NewMatcher(src, 1<<16, 8)
	m.Insert(0) // no-op: too close to end
	if d, l := m.FindMatch(0, 3); d != 0 || l != 0 {
		t.Fatal("tail position must not match")
	}
	empty := NewMatcher(nil, 0, 0)
	if d, l := empty.FindMatch(0, 0); d != 0 || l != 0 {
		t.Fatal("empty source")
	}
}

func BenchmarkFindMatch(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	var src []byte
	phrase := make([]byte, 64)
	rng.Read(phrase)
	for len(src) < 1<<20 {
		if rng.Intn(2) == 0 {
			src = append(src, phrase...)
		} else {
			chunk := make([]byte, 64)
			rng.Read(chunk)
			src = append(src, chunk...)
		}
	}
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewMatcher(src, 1<<20, 16)
		for p := 0; p < len(src); p++ {
			m.FindMatch(p, len(src)-p)
			m.Insert(p)
		}
	}
}

func TestAppendMatch(t *testing.T) {
	out := []byte("abcd")
	out, err := AppendMatch(out, 4, 8, 0) // overlapping copy: abcdabcdabcd
	if err != nil || string(out) != "abcdabcdabcd" {
		t.Fatalf("overlap copy: %q, %v", out, err)
	}
	if _, err := AppendMatch([]byte("ab"), 3, 4, 0); !errors.Is(err, compress.ErrCorrupt) {
		t.Fatalf("distance past start: %v", err)
	}
	if _, err := AppendMatch([]byte("ab"), 0, 4, 0); !errors.Is(err, compress.ErrCorrupt) {
		t.Fatalf("zero distance: %v", err)
	}
	if _, err := AppendMatch([]byte("ab"), 1, 100, 50); !errors.Is(err, compress.ErrLimitExceeded) {
		t.Fatalf("capped output: %v", err)
	}
}

// TestResetMatchesFresh reuses one matcher across sources of different
// lengths, releasing each with Reset(nil, ...) as lz4c does before pooling
// it, and requires every FindMatch and FindMatches result on each source
// to equal a fresh NewMatcher's: no chain entry may survive from an
// earlier source.
func TestResetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5e7))
	const window, maxLen = 1 << 12, 64
	reused := NewMatcher(nil, window, 16)
	var got, want []Match
	for _, tc := range []struct{ n, depth int }{{4096, 16}, {3, 16}, {6000, 4}, {1, 8}, {2048, 32}, {5000, 16}} {
		src := make([]byte, tc.n)
		for i := range src {
			src[i] = byte(rng.Intn(4)) // a small alphabet keeps the chains long
		}
		reused.Reset(src, window, tc.depth)
		fresh := NewMatcher(src, window, tc.depth)
		for pos := range src {
			gd, gl := reused.FindMatch(pos, maxLen)
			wd, wl := fresh.FindMatch(pos, maxLen)
			if gd != wd || gl != wl {
				t.Fatalf("n=%d pos=%d: FindMatch after Reset = (%d,%d), fresh = (%d,%d)", tc.n, pos, gd, gl, wd, wl)
			}
			got = reused.FindMatches(pos, maxLen, got[:0])
			want = fresh.FindMatches(pos, maxLen, want[:0])
			if len(got) != len(want) {
				t.Fatalf("n=%d pos=%d: FindMatches after Reset = %v, fresh = %v", tc.n, pos, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d pos=%d: FindMatches after Reset = %v, fresh = %v", tc.n, pos, got, want)
				}
			}
			reused.Insert(pos)
			fresh.Insert(pos)
		}
		reused.Reset(nil, window, tc.depth)
		if d, l := reused.FindMatch(0, maxLen); d != 0 || l != 0 {
			t.Fatalf("FindMatch on an empty source = (%d,%d), want (0,0)", d, l)
		}
		if m := reused.FindMatches(0, maxLen, nil); len(m) != 0 {
			t.Fatalf("FindMatches on an empty source = %v, want none", m)
		}
		reused.Insert(0) // a no-op on an empty source
	}
}
