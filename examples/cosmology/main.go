// Cosmology: HACC-like particle data is nearly incompressible for
// general-purpose codecs; this example runs the LC pipeline search on it
// (and on its posit re-encoding) to find the custom transform pipeline the
// framework synthesizes — the paper's Figure 6 workflow for one file.
//
//	go run ./examples/cosmology
package main

import (
	"fmt"
	"log"

	"positbench/internal/compress"
	"positbench/internal/compress/xzc"
	"positbench/internal/lc"
	"positbench/internal/posit"
	"positbench/internal/sdrbench"
)

func main() {
	const n = 1 << 16
	spec, err := sdrbench.ByName("vx.f32")
	if err != nil {
		log.Fatal(err)
	}
	values := spec.Generate(n)
	ieeeBytes := posit.EncodeFloat32LE(values)
	positBytes := posit.EncodeWordsLE(posit.Posit32e3.FromFloat32Slice(nil, values))

	fmt.Printf("searching %d LC pipelines on %s (%d bytes)\n",
		lc.PipelineCount(), spec.Name, len(ieeeBytes))
	for _, enc := range []struct {
		name string
		data []byte
	}{{"ieee", ieeeBytes}, {"posit", positBytes}} {
		results, err := lc.SearchAll(enc.data, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s encoding, top 5 pipelines:\n", enc.name)
		for _, r := range results[:5] {
			fmt.Printf("  %-22s %7d bytes  ratio %.3f\n",
				r.Names[0]+"|"+r.Names[1]+"|"+r.Names[2], r.Size, r.Ratio)
		}
		// The best pipeline is a full codec: self-describing and lossless.
		pipe, err := results[0].Pipeline()
		if err != nil {
			log.Fatal(err)
		}
		if _, err := compress.Roundtrip(lc.NewCodec(pipe), enc.data); err != nil {
			log.Fatal(err)
		}
		xzLen, err := compress.Roundtrip(xzc.New(), enc.data)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  best LC pipeline verified lossless; xz ratio for comparison: %.3f\n",
			compress.Ratio(len(enc.data), xzLen))
	}
}
