package main

import (
	"bytes"
	"strings"
	"time"

	"positbench/internal/advisor"
	"positbench/internal/bitio"
	"positbench/internal/bwt"
	"positbench/internal/huffman"
	"positbench/internal/lc"
	"positbench/internal/lz77"
	"positbench/internal/mtf"
	"positbench/internal/posit"
	"positbench/internal/rangecoder"
)

// primBusy is the busy time each primitive accumulates before its rate is
// taken; every primitive runs at least twice.
const primBusy = 200 * time.Millisecond

// primitives times isolated calls into each primitive's public API on a
// fixed slice of the study inputs: the 14 inputs at the study's scale,
// concatenated, in both encodings. Every inverse is checked against its
// input.
func primitives(rec *recorder) *pass {
	p := newPass()
	c := makeCorpus(studyValues)
	var slices [2][]byte
	for enc := range slices {
		for _, in := range c.enc[enc] {
			slices[enc] = append(slices[enc], in...)
		}
	}
	floats, _ := posit.DecodeFloat32LE(slices[0])
	words, _ := posit.DecodeWordsLE(slices[1])

	// rateOn runs fn(enc) for each given encoding until primBusy has
	// passed and reports raw MB per busy second.
	rateOn := func(name string, encs []int, fn func(enc int)) {
		var n int
		var busy time.Duration
		for reps := 0; reps < 2 || busy < primBusy; reps++ {
			for _, enc := range encs {
				t0 := time.Now()
				fn(enc)
				t1 := time.Now()
				rec.add(name, "", 0, t0, t1, int64(len(slices[enc])))
				n += len(slices[enc])
				busy += t1.Sub(t0)
			}
		}
		p.layers[name+"_mb_s"] = float64(n) / 1e6 / busy.Seconds()
	}
	rate := func(name string, fn func(enc int)) { rateOn(name, []int{0, 1}, fn) }
	check := func(what string, ok bool) {
		p.attempted++
		if !ok {
			p.fail(true, "primitive %s: inverse does not reproduce its input", what)
		}
	}

	rate("lz77.match", func(enc int) {
		src := slices[enc]
		m := lz77.NewMatcher(src, 1<<20, 96) // the zstd-class codec's window and depth
		for pos := range src {
			m.FindMatch(pos, len(src)-pos)
			m.Insert(pos)
		}
	})

	var bwtOut [2][]byte
	var bwtPrimary [2]int
	for enc, src := range slices {
		bwtOut[enc], bwtPrimary[enc] = bwt.Transform(src)
		back, err := bwt.Inverse(bwtOut[enc], bwtPrimary[enc])
		check("bwt", err == nil && bytes.Equal(back, src))
	}
	rate("bwt.transform", func(enc int) { bwt.Transform(slices[enc]) })
	rate("bwt.inverse", func(enc int) { bwt.Inverse(bwtOut[enc], bwtPrimary[enc]) })

	var mtfOut [2][]byte
	for enc, src := range slices {
		mtfOut[enc] = mtf.Encode(src)
		check("mtf", bytes.Equal(mtf.Decode(mtfOut[enc]), src))
	}
	rate("mtf.encode", func(enc int) { mtf.Encode(slices[enc]) })
	rate("mtf.decode", func(enc int) { mtf.Decode(mtfOut[enc]) })

	var huf [2]struct {
		enc  *huffman.Encoder
		dec  *huffman.Decoder
		bits []byte
	}
	for enc, src := range slices {
		freqs := make([]int, 256)
		for _, b := range src {
			freqs[b]++
		}
		lengths, err := huffman.BuildLengths(freqs, huffman.MaxBits)
		if err == nil {
			huf[enc].enc, err = huffman.NewEncoder(lengths)
		}
		if err == nil {
			huf[enc].dec, err = huffman.NewDecoder(lengths)
		}
		if err != nil {
			p.fail(true, "primitive huffman: %v", err)
			return p
		}
		w := bitio.NewWriter(len(src))
		for _, b := range src {
			huf[enc].enc.Encode(w, int(b))
		}
		huf[enc].bits = w.Bytes()
		r := bitio.NewReader(huf[enc].bits)
		ok := true
		for _, b := range src {
			if s, err := huf[enc].dec.Decode(r); err != nil || s != int(b) {
				ok = false
				break
			}
		}
		check("huffman", ok)
	}
	rate("huffman.encode", func(enc int) {
		w := bitio.NewWriter(len(slices[enc]))
		for _, b := range slices[enc] {
			huf[enc].enc.Encode(w, int(b))
		}
	})
	rate("huffman.decode", func(enc int) {
		r := bitio.NewReader(huf[enc].bits)
		for range slices[enc] {
			huf[enc].dec.Decode(r)
		}
	})

	var rcOut [2][]byte
	for enc, src := range slices {
		rcOut[enc] = rangeEncode(src)
		check("rangecoder", bytes.Equal(rangeDecode(rcOut[enc], len(src)), src))
	}
	rate("rangecoder.encode", func(enc int) { rangeEncode(slices[enc]) })
	rate("rangecoder.decode", func(enc int) { rangeDecode(rcOut[enc], len(slices[enc])) })

	dstWords := make([]uint32, len(floats))
	dstFloats := make([]float32, len(words))
	check("posit", bytes.Equal(posit.EncodeWordsLE(posit.Posit32e3.FromFloat32Slice(nil, floats)), slices[1]))
	// The posit kernel converts float32 to posit words and back, so each
	// direction has one encoding as its input.
	rateOn("posit.encode", []int{0}, func(int) { posit.Posit32e3.FromFloat32Slice(dstWords, floats) })
	rateOn("posit.decode", []int{1}, func(int) { posit.Posit32e3.ToFloat32Slice(dstFloats, words) })

	pipe, err := lc.NewPipeline(strings.Split(advisor.DefaultLCPipelines()[0], "|")...)
	if err != nil {
		p.fail(true, "primitive lc: %v", err)
		return p
	}
	for _, src := range slices {
		comp, err := pipe.Apply(src)
		var back []byte
		if err == nil {
			back, err = pipe.Invert(comp)
		}
		check("lc.pipeline", err == nil && bytes.Equal(back, src))
	}
	rate("lc.pipeline", func(enc int) { pipe.Apply(slices[enc]) })
	return p
}

// rangeEncode codes each byte as eight adaptive binary decisions along a
// bit tree, the way the xz-class codec codes literals.
func rangeEncode(src []byte) []byte {
	e := rangecoder.NewEncoder(len(src))
	probs := rangecoder.NewProbs(256)
	for _, b := range src {
		node := 1
		for i := 7; i >= 0; i-- {
			bit := int(b>>uint(i)) & 1
			e.EncodeBit(&probs[node], bit)
			node = node<<1 | bit
		}
	}
	return e.Finish()
}

func rangeDecode(comp []byte, n int) []byte {
	d := rangecoder.NewDecoder(comp)
	probs := rangecoder.NewProbs(256)
	out := make([]byte, n)
	for i := range out {
		node := 1
		for node < 256 {
			node = node<<1 | d.DecodeBit(&probs[node])
		}
		out[i] = byte(node)
	}
	return out
}
