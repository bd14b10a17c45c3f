package gateway

import (
	"fmt"
	"testing"
)

// Every key gets a stable, complete permutation of the backends.
func TestRingSequenceIsStablePermutation(t *testing.T) {
	r := newRing(5)
	for i := 0; i < 200; i++ {
		key := hashString(fmt.Sprintf("key-%d", i))
		seq := r.sequence(key)
		if len(seq) != 5 {
			t.Fatalf("sequence(%d) has %d entries, want 5", key, len(seq))
		}
		seen := map[int]bool{}
		for _, b := range seq {
			if b < 0 || b >= 5 || seen[b] {
				t.Fatalf("sequence(%d) = %v is not a permutation", key, seq)
			}
			seen[b] = true
		}
		again := r.sequence(key)
		for j := range seq {
			if seq[j] != again[j] {
				t.Fatalf("sequence(%d) unstable: %v then %v", key, seq, again)
			}
		}
	}
}

// Keys spread across backends: no backend owns more than half of a large
// keyspace on a 4-node ring (perfect would be a quarter each).
func TestRingDistribution(t *testing.T) {
	const n, keys = 4, 4000
	r := newRing(n)
	counts := make([]int, n)
	for i := 0; i < keys; i++ {
		counts[r.sequence(hashString(fmt.Sprintf("key-%d", i)))[0]]++
	}
	for b, c := range counts {
		if c == 0 {
			t.Fatalf("backend %d owns no keys: %v", b, counts)
		}
		if c > keys/2 {
			t.Fatalf("backend %d owns %d of %d keys: %v", b, c, keys, counts)
		}
	}
}

func TestRingEmptyAndSingle(t *testing.T) {
	if got := newRing(0).sequence(42); len(got) != 0 {
		t.Fatalf("empty ring sequence = %v", got)
	}
	if got := newRing(1).sequence(42); len(got) != 1 || got[0] != 0 {
		t.Fatalf("single ring sequence = %v", got)
	}
}
