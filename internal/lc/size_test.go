package lc

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"positbench/internal/sdrbench"
)

// checkSize fails unless c.size(src) is len(c.Forward(src)) and the two
// return the same error.
func checkSize(t testing.TB, c Component, src []byte, what string) {
	t.Helper()
	fwd, ferr := c.Forward(src)
	n, serr := c.size(src)
	if fmt.Sprint(ferr) != fmt.Sprint(serr) {
		t.Fatalf("%s on %s (%d bytes): Forward error %v, size error %v", c.Name(), what, len(src), ferr, serr)
	}
	if ferr == nil && n != len(fwd) {
		t.Fatalf("%s on %s (%d bytes): size %d, Forward wrote %d", c.Name(), what, len(src), n, len(fwd))
	}
}

// studyInputs is every study input at the given number of values, in both
// encodings: IEEE-754 first, then posit, per input.
func studyInputs(values int) (names []string, data [][]byte) {
	for _, spec := range sdrbench.Inputs() {
		ieee, pos := studyInput(spec, values)
		names = append(names, spec.Name+"/ieee", spec.Name+"/posit")
		data = append(data, ieee, pos)
	}
	return names, data
}

// sizeCases is the case set of TestSizeMatchesForward and
// TestKernelsMatchOracles: the empty input; random, all-zero, constant and
// sparse (about one byte in eight nonzero) bytes of every length 1-67
// (every ragged tail) and 476-516 (RZE's, RARE's and RAZE's word bitmaps of
// 15 and 16 bytes, either side of encodeBitmapBody's cutoff); and the study
// inputs at 2048 values in both encodings and every first-stage output of
// them, which are the inputs the search hands its middle and last stages.
func sizeCases(t testing.TB) (names []string, cases [][]byte) {
	const seed = 18
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	names, cases = []string{"empty"}, [][]byte{nil}
	add := func(name string, src []byte) {
		names, cases = append(names, name), append(cases, src)
	}
	lengths := make([]int, 0, 67+41)
	for n := 1; n <= 67; n++ {
		lengths = append(lengths, n)
	}
	for n := 4*8*15 - 4; n <= 4*8*16+4; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		random := make([]byte, n)
		rng.Read(random)
		add(fmt.Sprintf("random%d", n), random)
		add(fmt.Sprintf("zero%d", n), make([]byte, n))
		add(fmt.Sprintf("const%d", n), bytes.Repeat([]byte{0xA5}, n))
		sparse := make([]byte, n)
		for i := range sparse {
			if rng.Intn(8) == 0 {
				sparse[i] = byte(1 + rng.Intn(255))
			}
		}
		add(fmt.Sprintf("sparse%d", n), sparse)
	}
	inputNames, inputs := studyInputs(2048)
	for i, in := range inputs {
		add(inputNames[i], in)
		for _, s1 := range Components() {
			t1, err := s1.Forward(in)
			if err != nil {
				t.Fatalf("%s on %s: %v", s1.Name(), inputNames[i], err)
			}
			add(inputNames[i]+"|"+s1.Name(), t1)
		}
	}
	return names, cases
}

// TestSizeMatchesForward checks the size-only path against Forward for
// every component on sizeCases.
func TestSizeMatchesForward(t *testing.T) {
	names, cases := sizeCases(t)
	for _, c := range Components() {
		for i, src := range cases {
			checkSize(t, c, src, names[i])
		}
	}
}

// TestSizeAllocs pins what each component's size allocates on a study
// input at 2048 values in both encodings: nothing but HUF's code lengths.
// RZE, RARE and RAZE keep their per-word scratch on the stack at this
// size.
func TestSizeAllocs(t *testing.T) {
	want := map[string]float64{"HUF": 1}
	ieee, pos := goldenStudyInput()
	for _, c := range Components() {
		for enc, src := range map[string][]byte{"ieee": ieee, "posit": pos} {
			got := testing.AllocsPerRun(20, func() {
				if _, err := c.size(src); err != nil {
					t.Fatal(err)
				}
			})
			if got != want[c.Name()] {
				t.Errorf("%s size on %s: %v allocations per call, want %v", c.Name(), enc, got, want[c.Name()])
			}
		}
	}
}

// FuzzSize is TestSizeMatchesForward on arbitrary bytes.
func FuzzSize(f *testing.F) {
	f.Add(goldenStreamInput())
	lib := Components()
	f.Fuzz(func(t *testing.T, src []byte) {
		for _, c := range lib {
			checkSize(t, c, src, "fuzz input")
		}
	})
}

// searchMaterializing is SearchAll as it was before the size-only last
// stage: every stage runs Forward, and the last output's length is the
// size. It is serial, and the oracle for SearchAll's results.
func searchMaterializing(data []byte) ([]Result, error) {
	lib := Components()
	var results []Result
	for _, s1 := range lib {
		t1, err := s1.Forward(data)
		if err != nil {
			return nil, err
		}
		for _, s2 := range lib {
			t2, err := s2.Forward(t1)
			if err != nil {
				return nil, err
			}
			for _, s3 := range lib {
				t3, err := s3.Forward(t2)
				if err != nil {
					return nil, err
				}
				size := len(t3) + headerBytes
				results = append(results, Result{
					Names: [PipelineDepth]string{s1.Name(), s2.Name(), s3.Name()},
					Size:  size,
					Ratio: float64(len(data)) / float64(size),
				})
			}
		}
	}
	slices.SortFunc(results, func(a, b Result) int {
		if c := cmp.Compare(a.Size, b.Size); c != 0 {
			return c
		}
		return strings.Compare(strings.Join(a.Names[:], "|"), strings.Join(b.Names[:], "|"))
	})
	return results, nil
}

// TestSearchMatchesMaterializing: SearchAll's full result list, names,
// sizes, ratios and order, equals the materializing search's on every study
// input at 2048 values, and on one input per encoding at 32768 values,
// where word counts of 16,384 and up take a 3-byte uvarint.
func TestSearchMatchesMaterializing(t *testing.T) {
	names, inputs := studyInputs(2048)
	spec, err := sdrbench.ByName("CLOUDf48.bin.f32")
	if err != nil {
		t.Fatal(err)
	}
	ieee, pos := studyInput(spec, 32768)
	names = append(names, spec.Name+"/ieee/32768", spec.Name+"/posit/32768")
	inputs = append(inputs, ieee, pos)
	for i, data := range inputs {
		data := data
		t.Run(names[i], func(t *testing.T) {
			t.Parallel()
			want, err := searchMaterializing(data)
			if err != nil {
				t.Fatal(err)
			}
			got, err := SearchAll(data, 0)
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(got, want) {
				return
			}
			if len(got) != len(want) {
				t.Fatalf("SearchAll: %d rows, materializing %d", len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("row %d: SearchAll %+v, materializing %+v", j, got[j], want[j])
				}
			}
		})
	}
}
