package bzip2c

import (
	"math/rand"
	"testing"
)

// cheapestPerTable is the per-table cost loop laneCosts replaces: sum each
// table's code lengths over the group, an unusable code (length 0) costing
// 32, and keep the first table with the lowest sum.
func cheapestPerTable(tables [][]uint8, group []uint16) int {
	bestT, bestCost := 0, int(^uint(0)>>1)
	for t := range tables {
		cost := 0
		for _, s := range group {
			l := int(tables[t][s])
			if l == 0 {
				l = 32
			}
			cost += l
		}
		if cost < bestCost {
			bestT, bestCost = t, cost
		}
	}
	return bestT
}

// TestCheapestMatchesPerTable: the packed-lane selector picks the per-table
// loop's table for 2-6 tables, on tables with zero-length entries and
// lengths up to 20, groups of 1-50 symbols, groups made only of unusable
// codes (every lane at its 1,600 maximum), and tables that tie.
func TestCheapestMatchesPerTable(t *testing.T) {
	const seed = 20261023
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	var costs laneCosts
	for trial := 0; trial < 3000; trial++ {
		nTables := 2 + rng.Intn(maxTables-1)
		tables := make([][]uint8, nTables)
		zeroFrac := rng.Intn(4) // 0: no zeros ... 3: mostly zeros
		for i := range tables {
			tables[i] = make([]uint8, alphabetSize)
			for s := range tables[i] {
				if rng.Intn(4) < zeroFrac {
					continue
				}
				tables[i][s] = uint8(1 + rng.Intn(20))
			}
		}
		if trial%5 == 0 {
			copy(tables[nTables-1], tables[rng.Intn(nTables-1)]) // a tie
		}
		if trial%7 == 0 {
			for i := range tables {
				clear(tables[i])
			}
		}
		costs.pack(tables)
		for g := 0; g < 20; g++ {
			group := make([]uint16, 1+rng.Intn(groupSize))
			for i := range group {
				group[i] = uint16(rng.Intn(alphabetSize))
			}
			if got, want := costs.cheapest(group, nTables), cheapestPerTable(tables, group); got != want {
				t.Fatalf("trial %d, %d tables, group %v: packed lanes pick table %d, per-table loop %d", trial, nTables, group, got, want)
			}
		}
	}
}
