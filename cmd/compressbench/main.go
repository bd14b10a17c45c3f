// Command compressbench runs any subset of the study's codecs over files
// and prints a compression-ratio table plus geometric means, optionally
// verifying every roundtrip. It can also act as a framed (de)compressor:
// -z writes a self-identifying container blob, -d routes a blob to the
// right decoder by its frame header and rejects corrupt, truncated, or
// oversized input with a one-line diagnostic and a non-zero exit.
//
// Usage:
//
//	compressbench [-codecs xz,bzip2] [-p N] [-verify] [-json] file1 [file2 ...]
//	compressbench -z xz input output.pbcf
//	compressbench -d [-max-out N] input.pbcf output
//	compressbench -zs xz [-chunk N] input output.pbs     (indexed v2 stream)
//	compressbench -ds [-max-out N] input.pbs output      (decode a stream)
//	compressbench -index input.pbs                       (trailer report)
//	compressbench -range off:len [-max-out N] input.pbs output
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"positbench/internal/compress"
	"positbench/internal/compress/all"
	"positbench/internal/container"
	"positbench/internal/lc"
	"positbench/internal/pool"
	"positbench/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("compressbench: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("compressbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	names := fs.String("codecs", strings.Join(all.Names(), ","),
		"comma-separated codec subset (add 'lc' for the LC pipeline search)")
	jsonOut := fs.Bool("json", false,
		"emit the ratio report as JSON; cell failures are embedded per cell and the exit code is non-zero")
	verify := fs.Bool("verify", false, "roundtrip-verify every compression")
	workers := fs.Int("p", 0, "max concurrent file x codec runs and LC pipeline trials (0 = GOMAXPROCS)")
	zName := fs.String("z", "", "compress one file into a framed blob with the named codec")
	dFlag := fs.Bool("d", false, "decompress a framed blob, routing by its frame header")
	maxOut := fs.Int64("max-out", 0, "decode size limit in bytes for -d (0 = default)")
	zsName := fs.String("zs", "", "compress one file into an indexed (seekable) chunked stream with the named codec")
	dsFlag := fs.Bool("ds", false, "decompress a chunked stream (v1 or indexed v2), routing by its first frame header")
	chunkSize := fs.Int("chunk", 0, "chunk size in bytes for -zs (0 = default)")
	indexFlag := fs.Bool("index", false, "report the seek-index trailer of a stream: chunks, layout, overhead")
	rangeSpec := fs.String("range", "", "decode only the window off:len of an indexed stream (e.g. -range 65536:4096)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	files := fs.Args()
	if *zsName != "" || *dsFlag {
		return runStream(*zsName, *dsFlag, *chunkSize, *maxOut, files, stdout)
	}
	if *indexFlag || *rangeSpec != "" {
		return runIndexed(*indexFlag, *rangeSpec, *maxOut, files, stdout)
	}
	if *zName != "" || *dFlag {
		return runFramed(*zName, *dFlag, *maxOut, files, stdout)
	}
	if len(files) == 0 {
		return fmt.Errorf("need at least one input file")
	}

	var codecs []compress.Codec
	wantLC := false
	for _, n := range strings.Split(*names, ",") {
		n = strings.TrimSpace(n)
		if n == "lc" {
			wantLC = true
			continue
		}
		c, err := all.Get(n)
		if err != nil {
			return err
		}
		codecs = append(codecs, c)
	}

	// Every file x codec cell (plus one LC search per file) is one pool
	// item; results land in per-cell slots so the rendered table is
	// deterministic regardless of completion order.
	nFiles, nCols := len(files), len(codecs)
	if wantLC {
		nCols++
	}
	type cell struct {
		ratio float64
		label string
	}
	cells := make([]cell, nFiles*nCols)
	errs := make([]error, nFiles*nCols)
	data := make([][]byte, nFiles)
	readErrs := make([]error, nFiles)
	for i, path := range files {
		data[i], readErrs[i] = os.ReadFile(path)
		if readErrs[i] != nil && !*jsonOut {
			// Table mode fails fast; JSON mode keeps going and embeds the
			// read failure in every cell of that file's row.
			return readErrs[i]
		}
	}
	runCell := make([]func() (cell, error), nFiles*nCols) // nil: the file failed to read
	for fi := range files {
		if readErrs[fi] != nil {
			for ci := 0; ci < nCols; ci++ {
				errs[fi*nCols+ci] = readErrs[fi]
			}
			continue
		}
		for ci, c := range codecs {
			runCell[fi*nCols+ci] = func() (cell, error) {
				var compLen int
				var err error
				if *verify {
					compLen, err = compress.Roundtrip(c, data[fi])
				} else {
					var comp []byte
					comp, err = c.Compress(data[fi])
					compLen = len(comp)
				}
				if err != nil {
					return cell{}, err
				}
				r := compress.Ratio(len(data[fi]), compLen)
				return cell{ratio: r, label: fmt.Sprintf("%.3f", r)}, nil
			}
		}
		if wantLC {
			runCell[fi*nCols+len(codecs)] = func() (cell, error) {
				rs, err := lc.SearchAll(data[fi], *workers)
				if err != nil {
					return cell{}, err
				}
				best := rs[0]
				if *verify {
					pipe, err := best.Pipeline()
					if err != nil {
						return cell{}, err
					}
					if _, err := compress.Roundtrip(lc.NewCodec(pipe), data[fi]); err != nil {
						return cell{}, err
					}
				}
				return cell{ratio: best.Ratio, label: fmt.Sprintf("%.3f (%s|%s|%s)",
					best.Ratio, best.Names[0], best.Names[1], best.Names[2])}, nil
			}
		}
	}
	pool.Run(*workers, len(runCell), func(i int) {
		if runCell[i] != nil {
			cells[i], errs[i] = runCell[i]()
		}
	})
	colName := func(ci int) string {
		if ci < len(codecs) {
			return codecs[ci].Name()
		}
		return "lc"
	}

	// JSON mode renders every cell — including the failed ones — and then
	// fails the run if anything failed, so CI gets both the full picture and
	// a red exit.
	if *jsonOut {
		var rep stats.RatioReport
		for ci := 0; ci < nCols; ci++ {
			rep.Codecs = append(rep.Codecs, colName(ci))
		}
		for fi, path := range files {
			rf := stats.RatioFile{File: filepath.Base(path), SizeBytes: len(data[fi])}
			for ci := 0; ci < nCols; ci++ {
				idx := fi*nCols + ci
				rc := stats.RatioCell{Codec: colName(ci)}
				if errs[idx] != nil {
					rc.Error = errs[idx].Error()
				} else {
					rc.Ratio = cells[idx].ratio
					if colName(ci) == "lc" {
						rc.Detail = cells[idx].label
					}
				}
				rf.Cells = append(rf.Cells, rc)
			}
			rep.Files = append(rep.Files, rf)
		}
		rep.Finish()
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&rep); err != nil {
			return err
		}
		if rep.Errors > 0 {
			return fmt.Errorf("%d of %d cells failed", rep.Errors, len(files)*nCols)
		}
		return nil
	}

	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	table := stats.NewTable(append([]string{"File", "Size"}, codecNames(codecs, wantLC)...)...)
	ratios := map[string][]float64{}
	for fi, path := range files {
		row := []interface{}{filepath.Base(path), len(data[fi])}
		for ci := 0; ci < nCols; ci++ {
			cl := cells[fi*nCols+ci]
			ratios[colName(ci)] = append(ratios[colName(ci)], cl.ratio)
			row = append(row, cl.label)
		}
		table.AddRow(row...)
	}
	geoRow := []interface{}{"geomean", ""}
	for _, c := range codecs {
		geoRow = append(geoRow, fmt.Sprintf("%.3f", stats.GeoMean(ratios[c.Name()])))
	}
	if wantLC {
		geoRow = append(geoRow, fmt.Sprintf("%.3f", stats.GeoMean(ratios["lc"])))
	}
	table.AddRow(geoRow...)
	fmt.Fprint(stdout, table.String())
	return nil
}

// runFramed implements the -z / -d single-file modes over the container
// frame. Decode failures surface as one-line errors, never panics: the
// framed codec path validates magic, codec identity, declared length
// (against the -max-out cap), and both checksums.
func runFramed(zName string, dFlag bool, maxOut int64, files []string, stdout io.Writer) error {
	if zName != "" && dFlag {
		return fmt.Errorf("pick one of -z or -d")
	}
	if len(files) != 2 {
		return fmt.Errorf("need input and output paths")
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		return err
	}
	if zName != "" {
		c, err := all.Get(zName)
		if err != nil {
			return err
		}
		blob, err := c.Compress(data)
		if err != nil {
			return err
		}
		if err := os.WriteFile(files[1], blob, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s: %d -> %d bytes (%s frame)\n", files[1], len(data), len(blob), c.Name())
		return nil
	}
	name, bare, err := container.Sniff(data)
	if err != nil {
		return fmt.Errorf("%s: %w", files[0], err)
	}
	if !bare {
		return fmt.Errorf("%s: a chunked stream, not a bare frame; decode it with -ds", files[0])
	}
	c, err := all.Get(name)
	if err != nil {
		return fmt.Errorf("%s: frame names codec %q: %w", files[0], name, err)
	}
	out, err := compress.DecompressLimits(c, data, compress.DecodeLimits{MaxOutputBytes: maxOut})
	if err != nil {
		return fmt.Errorf("%s: %w", files[0], err)
	}
	if err := os.WriteFile(files[1], out, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s: %d bytes (%s frame verified)\n", files[1], len(out), name)
	return nil
}

// runStream implements -zs / -ds over the chunked stream wire format.
// -zs always writes the indexed v2 layout: every chunk is recorded in the
// trailer the ReaderAt seeks by, and a v1 reader never notices it.
func runStream(zsName string, dsFlag bool, chunkSize int, maxOut int64, files []string, stdout io.Writer) error {
	if zsName != "" && dsFlag {
		return fmt.Errorf("pick one of -zs or -ds")
	}
	if len(files) != 2 {
		return fmt.Errorf("need input and output paths")
	}
	if zsName != "" {
		c, err := all.Get(zsName)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(files[0])
		if err != nil {
			return err
		}
		f, err := os.Create(files[1])
		if err != nil {
			return err
		}
		b := container.NewIndexBuilder()
		w := compress.NewWriter(context.Background(), c, f, chunkSize, 1)
		w.SetIndexSink(b)
		if _, err := w.Write(data); err != nil {
			f.Close()
			return err
		}
		if err := w.Close(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		ix := b.Index()
		fmt.Fprintf(stdout, "wrote %s: %d -> %d bytes, %d chunks, %d-byte trailer (%s indexed stream)\n",
			files[1], len(data), ix.DataLen+ix.TrailerLen, len(ix.Chunks), ix.TrailerLen, c.Name())
		return nil
	}

	data, err := os.ReadFile(files[0])
	if err != nil {
		return err
	}
	name, err := sniffStream(files[0], data)
	if err != nil {
		return err
	}
	c, err := all.Get(name)
	if err != nil {
		return fmt.Errorf("%s: stream names codec %q: %w", files[0], name, err)
	}
	r := compress.NewReader(context.Background(), c, bytes.NewReader(data), compress.DecodeLimits{MaxOutputBytes: maxOut}, 1)
	out, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("%s: %w", files[0], err)
	}
	if err := os.WriteFile(files[1], out, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s: %d bytes (%s stream verified)\n", files[1], len(out), name)
	return nil
}

// sniffStream names the codec of the chunked stream data read from path,
// rejecting a bare frame.
func sniffStream(path string, data []byte) (string, error) {
	name, bare, err := container.Sniff(data)
	if err != nil {
		return "", fmt.Errorf("%s: %w", path, err)
	}
	if bare {
		return "", fmt.Errorf("%s: a bare frame, not a chunked stream; decode it with -d", path)
	}
	return name, nil
}

// runIndexed implements -index and -range over an indexed stream: the
// trailer report, and windowed decodes that fetch only the overlapping
// chunks.
func runIndexed(indexFlag bool, rangeSpec string, maxOut int64, files []string, stdout io.Writer) error {
	if len(files) == 0 {
		return fmt.Errorf("need an indexed stream path")
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		return err
	}
	name, err := sniffStream(files[0], data)
	if err != nil {
		return err
	}
	ix, err := container.ParseTrailer(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return fmt.Errorf("%s: %w", files[0], err)
	}

	if indexFlag {
		total := ix.DataLen + ix.TrailerLen
		fmt.Fprintf(stdout, "%s: %d chunks, %d raw bytes -> %d stream bytes\n",
			files[0], len(ix.Chunks), ix.RawLen, total)
		fmt.Fprintf(stdout, "  data %d bytes, trailer %d bytes (%.4f%% overhead, %.1f bytes/chunk)\n",
			ix.DataLen, ix.TrailerLen,
			100*float64(ix.TrailerLen)/float64(total),
			float64(ix.TrailerLen)/float64(max(len(ix.Chunks), 1)))
		if len(ix.Chunks) > 0 {
			fmt.Fprintf(stdout, "  chunk raw size %d bytes (first), %d bytes (last)\n",
				ix.Chunks[0].RawLen, ix.Chunks[len(ix.Chunks)-1].RawLen)
		}
		if rangeSpec == "" {
			return nil
		}
	}

	var off, length int64
	if _, err := fmt.Sscanf(rangeSpec, "%d:%d", &off, &length); err != nil {
		return fmt.Errorf("-range %q: want off:len", rangeSpec)
	}
	if len(files) != 2 {
		return fmt.Errorf("need input and output paths for -range")
	}
	c, err := all.Get(name)
	if err != nil {
		return fmt.Errorf("%s: stream names codec %q: %w", files[0], name, err)
	}
	ra := container.NewReaderAtIndex(bytes.NewReader(data), ix, c, container.ReaderAtOptions{
		Limits: compress.DecodeLimits{MaxOutputBytes: maxOut},
	})
	rr, err := ra.Range(off, length)
	if err != nil {
		return err
	}
	out, err := io.ReadAll(rr)
	if err != nil {
		return fmt.Errorf("%s: range %d:%d: %w", files[0], off, length, err)
	}
	if err := os.WriteFile(files[1], out, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s: %d of %d raw bytes via %d of %d chunks (%d of %d compressed bytes fetched)\n",
		files[1], len(out), ix.RawLen, rr.Chunks(), len(ix.Chunks),
		rr.CompBytes(), ix.CompBytes(0, len(ix.Chunks)))
	return nil
}

func codecNames(codecs []compress.Codec, withLC bool) []string {
	var names []string
	for _, c := range codecs {
		names = append(names, c.Name())
	}
	if withLC {
		names = append(names, "lc (best pipeline)")
	}
	return names
}
