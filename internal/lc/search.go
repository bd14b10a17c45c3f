package lc

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
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

// searchFrom sizes every pipeline whose first stage is lib[s1] on data:
// the size of pipeline (s1, s2, s3), charged headerBytes, goes to
// sizes[(s1*n+s2)*n+s3] for a library of n components. The last stage
// only reports its output's size: nothing reads its bytes.
//
// NUL is the identity, so NUL|X|* sizes the bytes X|NUL|* does, X's
// output on data: item X writes both rows, and NUL's own item writes only
// NUL|NUL|*. A NUL stage passes its input on as is, since no Forward or
// size writes to its src.
func searchFrom(sizes []int, s1 int, lib []Component, data []byte) error {
	nl := len(lib)
	t1 := data
	if s1 != nulID {
		var err error
		if t1, err = lib[s1].Forward(data); err != nil {
			return fmt.Errorf("%s: %w", lib[s1].Name(), err)
		}
	}
	for s2, c2 := range lib {
		if s1 == nulID && s2 != nulID {
			continue // NUL|X|* is item X's
		}
		t2 := t1
		if s2 != nulID {
			var err error
			if t2, err = c2.Forward(t1); err != nil {
				return fmt.Errorf("%s|%s: %w", lib[s1].Name(), c2.Name(), err)
			}
		}
		row := sizes[(s1*nl+s2)*nl:][:nl]
		for s3, c3 := range lib {
			n3, err := c3.size(t2)
			if err != nil {
				return fmt.Errorf("%s|%s|%s: %w", lib[s1].Name(), c2.Name(), c3.Name(), err)
			}
			row[s3] = n3 + headerBytes
		}
		if s2 == nulID && s1 != nulID {
			copy(sizes[(nulID*nl+s1)*nl:][:nl], row)
		}
	}
	return nil
}

// pipelineOrder ranks pipelines in the order of their strings
// ("DIFFMS|RARE|RAZE", as Pipeline.String renders them) without building
// any. No name contains '|', so two pipeline strings first differ inside
// the first stage whose names differ, where a first or middle stage
// compares as its name followed by '|' and the last stage as its name.
// Pipeline (s1, s2, s3) of a library of n components is index
// (s1*n+s2)*n+s3, as searchFrom and SelectGlobal number them.
type pipelineOrder struct {
	mid, last []int // each component's place in the library by name+"|" and by name
}

func newPipelineOrder(lib []Component) pipelineOrder {
	o := pipelineOrder{make([]int, len(lib)), make([]int, len(lib))}
	for i, a := range lib {
		for _, b := range lib {
			o.mid[i] += int(b2u8(b.Name()+"|" < a.Name()+"|"))
			o.last[i] += int(b2u8(b.Name() < a.Name()))
		}
	}
	return o
}

// rank is pipeline p's place, from 0, among all the library's pipelines in
// string order.
func (o pipelineOrder) rank(p int) int {
	nl := len(o.mid)
	return (o.mid[p/(nl*nl)]*nl+o.mid[p/nl%nl])*nl + o.last[p%nl]
}

// rankResults builds an input's result set from its sizes, indexed as
// searchFrom writes them: smallest first, ties in pipeline-string order.
// It sorts packed size<<rankBits | rank keys, with no comparator.
func rankResults(sizes []int, lib []Component, order pipelineOrder, dataLen int) []Result {
	nl := len(lib)
	rankBits := uint(bits.Len(uint(len(sizes) - 1)))
	keys := make([]uint64, len(sizes))
	for p, size := range sizes {
		keys[p] = uint64(size)<<rankBits | uint64(order.rank(p))
	}
	slices.Sort(keys)
	byMid, byLast := make([]string, nl), make([]string, nl)
	for i, c := range lib {
		byMid[order.mid[i]], byLast[order.last[i]] = c.Name(), c.Name()
	}
	out := make([]Result, len(keys))
	for i, key := range keys {
		r, size := int(key&(1<<rankBits-1)), int(key>>rankBits)
		out[i] = Result{
			Names: [PipelineDepth]string{byMid[r/(nl*nl)], byMid[r/nl%nl], byLast[r%nl]},
			Size:  size,
			Ratio: float64(dataLen) / float64(size),
		}
	}
	return out
}

// SearchAllMulti returns SearchAll's result set for every input, in input
// order, with the given worker bound. The result sets can be fed to both
// SelectGlobal and SelectPerFile without re-running the (expensive) search.
//
// Every input shares one pool run, with one item per (input, first stage)
// pair: the item runs the first stage once and every continuation of it,
// so a first-stage output is never recomputed, and no worker waits for
// the rest of an input before starting the next one. Each item writes its
// rows of its input's size table, and the input's last item to finish
// builds the input's result set from the whole table: the atomic count of
// the input's pending items orders every item's writes before that.
func SearchAllMulti(inputs [][]byte, workers int) ([][]Result, error) {
	lib := Components()
	nl := len(lib)
	order := newPipelineOrder(lib)
	sizes := make([][]int, len(inputs))
	perInput := make([][]Result, len(inputs))
	pending := make([]atomic.Int32, len(inputs))
	for i := range sizes {
		sizes[i] = make([]int, nl*nl*nl)
		pending[i].Store(int32(nl))
	}
	errs := make([]error, len(inputs)*nl)
	pool.Run(workers, len(errs), func(item int) {
		in, s1 := item/nl, item%nl
		errs[item] = searchFrom(sizes[in], s1, lib, inputs[in])
		if pending[in].Add(-1) == 0 {
			perInput[in] = rankResults(sizes[in], lib, order, len(inputs[in]))
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
// selection rule), plus its per-input results. Ties go to the pipeline
// whose string sorts first.
func SelectGlobal(perInput [][]Result) (Pipeline, []Result, error) {
	if len(perInput) == 0 {
		return Pipeline{}, nil, fmt.Errorf("lc: no inputs")
	}
	lib := Components()
	nl := len(lib)
	ids := make(map[string]int, nl)
	for i, c := range lib {
		ids[c.Name()] = i
	}
	// Accumulate log-ratios per pipeline index.
	sumLog := make([]float64, nl*nl*nl)
	count := make([]int, nl*nl*nl)
	for _, rs := range perInput {
		for _, r := range rs {
			p := 0
			for _, name := range r.Names {
				id, ok := ids[name]
				if !ok {
					return Pipeline{}, nil, fmt.Errorf("lc: unknown component %q", name)
				}
				p = p*nl + id
			}
			sumLog[p] += math.Log(r.Ratio)
			count[p]++
		}
	}
	order := newPipelineOrder(lib)
	best := -1
	bestMean := math.Inf(-1)
	for p, n := range count {
		if n != len(perInput) {
			continue // pipeline failed on some input; not eligible
		}
		mean := sumLog[p] / float64(len(perInput))
		if mean > bestMean || (best >= 0 && mean == bestMean && order.rank(p) < order.rank(best)) {
			best, bestMean = p, mean
		}
	}
	if best < 0 {
		return Pipeline{}, nil, fmt.Errorf("lc: no pipeline succeeded on all inputs")
	}
	pipe := Pipeline{Stages: []Component{lib[best/(nl*nl)], lib[best/nl%nl], lib[best%nl]}}
	names := [PipelineDepth]string{pipe.Stages[0].Name(), pipe.Stages[1].Name(), pipe.Stages[2].Name()}
	// Collect this pipeline's per-input results.
	results := make([]Result, len(perInput))
	for i, rs := range perInput {
		for _, r := range rs {
			if r.Names == names {
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
