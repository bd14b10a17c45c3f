package gateway

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ring is a consistent-hash ring over backend indices. Each backend owns
// defaultReplicas virtual points; a key walks the ring clockwise from its
// hash and collects backends in first-encounter order, which gives every
// key a stable preference sequence: the same key always lands on the same
// backend while it is healthy, and fails over to the same second choice
// when it is not. Stability is what makes sharding useful to the backends
// (warm caches, consistent admission pressure) and what makes retries
// deterministic.
type ring struct {
	points []ringPoint // sorted by hash
	n      int         // number of distinct backends
}

type ringPoint struct {
	hash    uint64
	backend int
}

// defaultReplicas balances distribution evenness against ring size; 64
// virtual points per backend keeps the max/min load ratio near 1.2 for
// small clusters.
const defaultReplicas = 64

// newRing builds a ring over n backends.
func newRing(n int) *ring {
	r := &ring{n: n, points: make([]ringPoint, 0, n*defaultReplicas)}
	for b := 0; b < n; b++ {
		for v := 0; v < defaultReplicas; v++ {
			r.points = append(r.points, ringPoint{hash: hashString(fmt.Sprintf("backend-%d-vnode-%d", b, v)), backend: b})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].backend < r.points[j].backend
	})
	return r
}

// sequence returns all backend indices in the key's preference order: the
// owner first, then each distinct backend as the clockwise walk encounters
// it. len(result) == n always.
func (r *ring) sequence(key uint64) []int {
	order := make([]int, 0, r.n)
	if len(r.points) == 0 {
		return order
	}
	seen := make([]bool, r.n)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	for i := 0; len(order) < r.n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.backend] {
			seen[p.backend] = true
			order = append(order, p.backend)
		}
	}
	return order
}

// hashBytes is FNV-1a 64 over b.
func hashBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func hashString(s string) uint64 {
	return hashBytes([]byte(s))
}
