package lc

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"

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
// It is SearchAllMulti on one input.
func SearchAll(data []byte, workers int) ([]Result, error) {
	perInput, err := SearchAllMulti([][]byte{data}, workers)
	if err != nil {
		return nil, err
	}
	return perInput[0], nil
}

// searchFrom evaluates every pipeline whose first stage is s1 into dst,
// one row per (second, last) stage pair in library order. The last stage
// only reports its output's size: nothing reads its bytes.
func searchFrom(dst []Result, s1 Component, lib []Component, data []byte) error {
	t1, err := s1.Forward(data)
	if err != nil {
		return fmt.Errorf("%s: %w", s1.Name(), err)
	}
	for j, s2 := range lib {
		t2, err := s2.Forward(t1)
		if err != nil {
			return fmt.Errorf("%s|%s: %w", s1.Name(), s2.Name(), err)
		}
		for k, s3 := range lib {
			n3, err := s3.size(t2)
			if err != nil {
				return fmt.Errorf("%s|%s|%s: %w", s1.Name(), s2.Name(), s3.Name(), err)
			}
			size := n3 + headerBytes
			dst[j*len(lib)+k] = Result{
				Names: [PipelineDepth]string{s1.Name(), s2.Name(), s3.Name()},
				Size:  size,
				Ratio: float64(len(data)) / float64(size),
			}
		}
	}
	return nil
}

// sortResults orders rs by size, then by pipeline string.
func sortResults(rs []Result) {
	slices.SortFunc(rs, func(a, b Result) int {
		if c := cmp.Compare(a.Size, b.Size); c != 0 {
			return c
		}
		return comparePipes(&a.Names, &b.Names)
	})
}

// comparePipes compares the pipeline strings of a and b ("DIFFMS|RARE|RAZE",
// as Pipeline.String renders them) without building either. At the first
// stage where the names differ, either their common prefix decides, or one
// name is a prefix of the other; then the shorter name's pipeline string
// continues with '|' (which no name contains) or, at the last stage, ends.
func comparePipes(a, b *[PipelineDepth]string) int {
	for i := range a {
		x, y := a[i], b[i]
		if x == y {
			continue
		}
		n := min(len(x), len(y))
		if c := strings.Compare(x[:n], y[:n]); c != 0 {
			return c
		}
		switch {
		case i == PipelineDepth-1:
			return cmp.Compare(len(x), len(y))
		case len(x) < len(y):
			return cmp.Compare('|', y[n])
		default:
			return cmp.Compare(x[n], '|')
		}
	}
	return 0
}

// SearchAllMulti returns SearchAll's result set for every input, in input
// order, with the given worker bound. The result sets can be fed to both
// SelectGlobal and SelectPerFile without re-running the (expensive) search.
//
// Every input shares one pool run, with one item per (input, first stage)
// pair: the item runs the first stage once and every continuation of it,
// so a first-stage output is never recomputed, and no worker waits for
// the rest of an input before starting the next one. Each item writes its
// own rows of its input's result set, and the input's last item to finish
// sorts the set.
func SearchAllMulti(inputs [][]byte, workers int) ([][]Result, error) {
	lib := Components()
	nl := len(lib)
	perInput := make([][]Result, len(inputs))
	pending := make([]atomic.Int32, len(inputs))
	for i := range perInput {
		perInput[i] = make([]Result, nl*nl*nl)
		pending[i].Store(int32(nl))
	}
	errs := make([]error, len(inputs)*nl)
	pool.Run(workers, len(errs), func(item int) {
		in, s1 := item/nl, item%nl
		errs[item] = searchFrom(perInput[in][s1*nl*nl:(s1+1)*nl*nl], lib[s1], lib, inputs[in])
		if pending[in].Add(-1) == 0 {
			sortResults(perInput[in])
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
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
	// Accumulate log-ratios per pipeline.
	type acc struct {
		sumLog float64
		count  int
	}
	accs := make(map[[PipelineDepth]string]*acc)
	for _, rs := range perInput {
		for _, r := range rs {
			a, ok := accs[r.Names]
			if !ok {
				a = &acc{}
				accs[r.Names] = a
			}
			a.sumLog += math.Log(r.Ratio)
			a.count++
		}
	}
	var best [PipelineDepth]string
	found := false
	bestMean := math.Inf(-1)
	for names, a := range accs {
		if a.count != len(inputs) {
			continue // pipeline failed on some input; not eligible
		}
		mean := a.sumLog / float64(len(inputs))
		if mean > bestMean || (found && mean == bestMean && comparePipes(&names, &best) < 0) {
			best, found, bestMean = names, true, mean
		}
	}
	if !found {
		return Pipeline{}, nil, fmt.Errorf("lc: no pipeline succeeded on all inputs")
	}
	pipe, err := NewPipeline(best[:]...)
	if err != nil {
		return Pipeline{}, nil, err
	}
	// Collect this pipeline's per-input results.
	results := make([]Result, len(inputs))
	for i, rs := range perInput {
		for _, r := range rs {
			if r.Names == best {
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
