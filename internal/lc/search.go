package lc

import (
	"fmt"
	"math"
	"sort"

	"positbench/internal/pool"
)

// Result is one pipeline's outcome on one input.
type Result struct {
	Names [PipelineDepth]string // stage names (stable identity for maps)
	Size  int                   // compressed size in bytes (incl. 4-byte header)
	Ratio float64               // original/compressed
}

// Pipeline reconstructs the pipeline for a result.
func (r Result) Pipeline() (Pipeline, error) {
	return NewPipeline(r.Names[:]...)
}

// headerBytes is the LC container overhead (stage count + IDs), charged to
// every pipeline so sizes are comparable with the other codecs.
const headerBytes = 1 + PipelineDepth

// SearchAll evaluates every 3-stage pipeline over the component library on
// data, on at most workers workers (<= 0 means GOMAXPROCS), and returns
// results sorted best (largest ratio) first. Ties break lexicographically
// on the pipeline string, so output does not depend on the worker count.
func SearchAll(data []byte, workers int) ([]Result, error) {
	lib := Components()
	nl := len(lib)
	// One pool item per first stage: it runs the first stage once and
	// every continuation of it, so a first-stage output is never recomputed.
	perFirst := make([][]Result, nl)
	errs := make([]error, nl)
	pool.Run(workers, nl, func(i int) {
		perFirst[i], errs[i] = searchFrom(lib[i], lib, data)
	})
	results := make([]Result, 0, nl*nl*nl)
	for i, err := range errs {
		if err != nil {
			return nil, err
		}
		results = append(results, perFirst[i]...)
	}
	sortResults(results)
	return results, nil
}

// searchFrom evaluates every pipeline whose first stage is s1.
func searchFrom(s1 Component, lib []Component, data []byte) ([]Result, error) {
	t1, err := s1.Forward(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s1.Name(), err)
	}
	local := make([]Result, 0, len(lib)*len(lib))
	for _, s2 := range lib {
		t2, err := s2.Forward(t1)
		if err != nil {
			return nil, fmt.Errorf("%s|%s: %w", s1.Name(), s2.Name(), err)
		}
		for _, s3 := range lib {
			t3, err := s3.Forward(t2)
			if err != nil {
				return nil, fmt.Errorf("%s|%s|%s: %w", s1.Name(), s2.Name(), s3.Name(), err)
			}
			size := len(t3) + headerBytes
			local = append(local, Result{
				Names: [PipelineDepth]string{s1.Name(), s2.Name(), s3.Name()},
				Size:  size,
				Ratio: float64(len(data)) / float64(size),
			})
		}
	}
	return local, nil
}

func sortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Size != rs[j].Size {
			return rs[i].Size < rs[j].Size
		}
		return pipeKey(rs[i].Names) < pipeKey(rs[j].Names)
	})
}

func pipeKey(names [PipelineDepth]string) string {
	return names[0] + "|" + names[1] + "|" + names[2]
}

// SearchAllMulti runs SearchAll on every input with the given worker
// bound, preserving order. The result sets can be fed to both SelectGlobal
// and SelectPerFile without re-running the (expensive) search.
func SearchAllMulti(inputs [][]byte, workers int) ([][]Result, error) {
	perInput := make([][]Result, len(inputs))
	for i, data := range inputs {
		rs, err := SearchAll(data, workers)
		if err != nil {
			return nil, err
		}
		perInput[i] = rs
	}
	return perInput, nil
}

// SelectPerFile picks each input's individually best pipeline from
// precomputed search results (the paper's Figure 6 per-file mode).
func SelectPerFile(perInput [][]Result) ([]Result, error) {
	out := make([]Result, len(perInput))
	for i, rs := range perInput {
		if len(rs) == 0 {
			return nil, fmt.Errorf("lc: input %d has no results", i)
		}
		out[i] = rs[0]
	}
	return out, nil
}

// SelectGlobal picks the single pipeline with the highest geometric-mean
// ratio across all precomputed result sets (the paper's Section 4.3
// selection rule), plus its per-input results.
func SelectGlobal(perInput [][]Result) (Pipeline, []Result, error) {
	inputs := perInput // alias: only the length is used below
	if len(inputs) == 0 {
		return Pipeline{}, nil, fmt.Errorf("lc: no inputs")
	}
	// Accumulate log-ratios per pipeline key.
	type acc struct {
		sumLog float64
		count  int
		names  [PipelineDepth]string
	}
	accs := make(map[string]*acc)
	for _, rs := range perInput {
		for _, r := range rs {
			k := pipeKey(r.Names)
			a, ok := accs[k]
			if !ok {
				a = &acc{names: r.Names}
				accs[k] = a
			}
			a.sumLog += math.Log(r.Ratio)
			a.count++
		}
	}
	bestKey := ""
	bestMean := math.Inf(-1)
	for k, a := range accs {
		if a.count != len(inputs) {
			continue // pipeline failed on some input; not eligible
		}
		mean := a.sumLog / float64(len(inputs))
		if mean > bestMean || (mean == bestMean && k < bestKey) {
			bestMean, bestKey = mean, k
		}
	}
	if bestKey == "" {
		return Pipeline{}, nil, fmt.Errorf("lc: no pipeline succeeded on all inputs")
	}
	names := accs[bestKey].names
	pipe, err := NewPipeline(names[:]...)
	if err != nil {
		return Pipeline{}, nil, err
	}
	// Collect this pipeline's per-input results.
	results := make([]Result, len(inputs))
	for i, rs := range perInput {
		for _, r := range rs {
			if pipeKey(r.Names) == bestKey {
				results[i] = r
				break
			}
		}
	}
	return pipe, results, nil
}

// PipelineCount reports the size of the search space.
func PipelineCount() int {
	n := len(Components())
	return n * n * n
}
