// Command lcsearch enumerates every 3-stage LC pipeline on one or more
// files and prints the leaderboard, mirroring the paper's Section 4.3
// methodology (global best pipeline by geometric mean, or per-file bests).
//
// Usage:
//
//	lcsearch [-top 10] [-per-file] file1 [file2 ...]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"positbench/internal/lc"
	"positbench/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lcsearch: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("lcsearch", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	top := fs.Int("top", 10, "pipelines to show per leaderboard")
	perFile := fs.Bool("per-file", false, "report each file's own best pipeline instead of the global leaderboard")
	if err := fs.Parse(args); err != nil {
		return err
	}
	files := fs.Args()
	if len(files) == 0 {
		return fmt.Errorf("need at least one input file")
	}
	fmt.Fprintf(stdout, "searching %d pipelines over %d components\n",
		lc.PipelineCount(), len(lc.Components()))

	inputs := make([][]byte, len(files))
	for i, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		inputs[i] = data
	}
	perInput, err := lc.SearchAllMulti(inputs, 0)
	if err != nil {
		return err
	}

	if *perFile {
		best, err := lc.SelectPerFile(perInput)
		if err != nil {
			return err
		}
		t := stats.NewTable("File", "Best pipeline", "Ratio")
		var rs []float64
		for i, r := range best {
			t.AddRow(filepath.Base(files[i]),
				r.Names[0]+"|"+r.Names[1]+"|"+r.Names[2],
				fmt.Sprintf("%.3f", r.Ratio))
			rs = append(rs, r.Ratio)
		}
		t.AddRow("geomean", "", fmt.Sprintf("%.3f", stats.GeoMean(rs)))
		fmt.Fprint(stdout, t.String())
		return nil
	}

	pipe, results, err := lc.SelectGlobal(perInput)
	if err != nil {
		return err
	}
	var rs []float64
	for _, r := range results {
		rs = append(rs, r.Ratio)
	}
	fmt.Fprintf(stdout, "global best pipeline: %s (geomean %.3f)\n\n", pipe, stats.GeoMean(rs))
	for i, f := range files {
		fmt.Fprintf(stdout, "top pipelines for %s:\n", filepath.Base(f))
		n := *top
		if n > len(perInput[i]) {
			n = len(perInput[i])
		}
		t := stats.NewTable("Pipeline", "Bytes", "Ratio")
		for _, r := range perInput[i][:n] {
			t.AddRow(r.Names[0]+"|"+r.Names[1]+"|"+r.Names[2], r.Size,
				fmt.Sprintf("%.3f", r.Ratio))
		}
		fmt.Fprint(stdout, t.String())
		fmt.Fprintln(stdout)
	}
	return nil
}
