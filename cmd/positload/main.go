// Command positload is the open-loop traffic generator and soak-test
// driver for positd. It fires a mixed compress/decompress/convert workload
// built from the sdrbench-shaped synthetic inputs at a target rate,
// verifies every compress response by decompressing it back, and prints a
// JSON report (per-codec byte bookkeeping, status counts, latency
// percentiles) to stdout.
//
// Usage:
//
//	positload -url http://127.0.0.1:8080 [-qps N] [-duration D] [-grace D]
//	          [-inflight N] [-codecs a,b] [-convert-every N] [-auto N]
//	          [-values N] [-seed N] [-retry-429 N]
//	positload -addr-file PATH ...   # read the target from a positd addr file
//
// -auto N mixes one POST /v1/compress/auto roundtrip in per N direct codec
// operations: the server's advisor picks the codec, and the report books
// those bytes per chosen codec (the X-Positd-Codec response header) under
// "auto", reconcilable against the server's codecs.<name>.auto metrics.
//
// -grace lets operations already in flight at the end of -duration finish
// instead of being cut off, which a soak needs when it reconciles this
// report's status counts exactly against a server's /metrics. -retry-429
// re-sends shed requests that carry a Retry-After header, honoring the
// advertised delay; retries are reported under retried_429.
//
// Exit status is 0 when the run saw no server errors, transport errors, or
// roundtrip mismatches; 1 otherwise (shed load — 429s and dropped ticks —
// is expected under deliberate overload and does not fail the run).
//
// The process-level soaks in internal/e2e (make e2e) run positload against
// real positd processes and decode its report into load.Report.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"positbench/internal/load"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("positload", flag.ContinueOnError)
	var (
		url      = fs.String("url", "", "positd base URL, e.g. http://127.0.0.1:8080")
		addrFile = fs.String("addr-file", "", "read the target address from this positd -addr-file instead of -url")
		qps      = fs.Float64("qps", 50, "target operation start rate (open loop)")
		duration = fs.Duration("duration", 5*time.Second, "run length")
		grace    = fs.Duration("grace", 0, "extra time for in-flight operations to finish after the last tick")
		retry429 = fs.Int("retry-429", 0, "max re-sends per operation after a 429 with Retry-After; 0 selects the default, <0 disables")
		inflight = fs.Int("inflight", 16, "max concurrently running operations; excess ticks are dropped")
		codecs   = fs.String("codecs", "gzip,bzip2", "comma-separated codec mix for compress/decompress traffic")
		convert  = fs.Int("convert-every", 4, "mix one /v1/convert op per N codec ops; <0 disables")
		auto     = fs.Int("auto", 0, "mix one /v1/compress/auto roundtrip per N codec ops; <=0 disables")
		values   = fs.Int("values", 16384, "float32 values per generated request body")
		seed     = fs.Int64("seed", 1, "workload RNG seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	base := *url
	if base == "" && *addrFile != "" {
		raw, err := os.ReadFile(*addrFile)
		if err != nil {
			log.Printf("positload: read addr-file: %v", err)
			return 2
		}
		addr := strings.TrimSpace(string(raw))
		if strings.HasPrefix(addr, ":") {
			addr = "127.0.0.1" + addr
		}
		base = "http://" + addr
	}
	if base == "" {
		log.Printf("positload: -url or -addr-file required")
		return 2
	}

	rep, err := load.Run(context.Background(), load.Config{
		BaseURL:      strings.TrimRight(base, "/"),
		QPS:          *qps,
		Duration:     *duration,
		Grace:        *grace,
		Retry429:     *retry429,
		MaxInflight:  *inflight,
		Codecs:       strings.Split(*codecs, ","),
		ConvertEvery: *convert,
		AutoEvery:    *auto,
		Values:       *values,
		Seed:         *seed,
	})
	if err != nil {
		log.Printf("positload: %v", err)
		return 2
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(rep)
	if rep.Failed() {
		fmt.Fprintf(os.Stderr, "positload: FAILED: 5xx=%d transport=%d mismatches=%d\n",
			rep.Status5xx, rep.Transport, rep.Mismatches)
		return 1
	}
	return 0
}
