// Command positgw fronts a fleet of positd backends with a resilient,
// sharding reverse proxy: consistent-hash routing, idempotency-aware
// retries with capped exponential backoff, latency-triggered hedging, a
// circuit breaker and active health checks per backend, and a graceful
// drain that flips /readyz before the listener closes.
//
// Usage:
//
//	positgw -backends host:port,host:port,... [-addr :8090]
//	        [-max-tries N] [-per-try-timeout D] [-hedge-after D]
//	        [-max-buffer N] [-breaker-threshold N] [-breaker-cooldown D]
//	        [-probe-interval D] [-fail-threshold N] [-rise-threshold N]
//	        [-drain D] [-drain-grace D] [-traces N] [-addr-file PATH] [-quiet]
//
// Health probes GET each backend's /readyz, each bounded by 2 s.
//
// On SIGINT/SIGTERM the gateway first flips its own /readyz to 503, waits
// -drain-grace so upstream balancers observe the flip while the listener
// still answers, then drains in-flight requests for up to -drain. The exit
// code reports whether the drain completed (0) or was cut off (1).
package main

import (
	"context"
	"flag"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"positbench/internal/gateway"
	"positbench/internal/httpshell"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("positgw", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8090", "listen address (host:port; port 0 picks a free port)")
		addrFile   = fs.String("addr-file", "", "write the bound listen address to this file once serving (for scripts)")
		backends   = fs.String("backends", "", "comma-separated positd backends (host:port or http://host:port); required")
		maxTries   = fs.Int("max-tries", 0, "max backends one request may be tried against; 0 selects the default")
		perTry     = fs.Duration("per-try-timeout", 0, "deadline for each individual try; 0 selects the default, <0 disables")
		hedgeAfter = fs.Duration("hedge-after", 0, "launch a hedge try when the current one stalls this long; 0 selects the default, <0 disables")
		maxBuffer  = fs.Int64("max-buffer", 0, "request/response buffering cap, bytes; larger bodies stream once, unretried; 0 selects the default")
		brkThresh  = fs.Int("breaker-threshold", 0, "consecutive failures that open a backend's circuit breaker; 0 selects the default")
		brkCool    = fs.Duration("breaker-cooldown", 0, "time a breaker stays open before a half-open probe; 0 selects the default")
		probeEvery = fs.Duration("probe-interval", 0, "active health-check period; 0 selects the default, <0 disables")
		failThresh = fs.Int("fail-threshold", 0, "consecutive probe failures that eject a backend; 0 selects the default")
		riseThresh = fs.Int("rise-threshold", 0, "consecutive probe successes that recover a backend; 0 selects the default")
		drain      = fs.Duration("drain", 30*time.Second, "graceful shutdown budget for in-flight requests")
		drainGrace = fs.Duration("drain-grace", time.Second, "pause between flipping /readyz unready and closing the listener")
		traces     = fs.Int("traces", 0, "gateway-trace ring size; 0 selects the default, <0 disables tracing")
		quiet      = fs.Bool("quiet", false, "silence the per-request access log")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *backends == "" {
		log.Printf("positgw: -backends is required")
		return 2
	}
	var list []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			list = append(list, b)
		}
	}

	var accessLog io.Writer
	if *quiet {
		accessLog = io.Discard
	}
	gw, err := gateway.New(gateway.Config{
		Backends:         list,
		MaxTries:         *maxTries,
		PerTryTimeout:    *perTry,
		HedgeAfter:       *hedgeAfter,
		MaxBufferBytes:   *maxBuffer,
		BreakerThreshold: *brkThresh,
		BreakerCooldown:  *brkCool,
		ProbeInterval:    *probeEvery,
		FailThreshold:    *failThresh,
		RiseThreshold:    *riseThresh,
		TraceCapacity:    *traces,
		AccessLog:        accessLog,
	})
	if err != nil {
		log.Printf("positgw: %v", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Printf("positgw: listen %s: %v", *addr, err)
		return 1
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := httpshell.WriteAddrFile(*addrFile, bound); err != nil {
			log.Printf("positgw: write addr-file: %v", err)
			return 1
		}
		defer os.Remove(*addrFile)
	}

	probeCtx, stopProbes := context.WithCancel(context.Background())
	defer stopProbes()
	gw.StartProbes(probeCtx)

	log.Printf("positgw: serving on %s, backends %s", bound, strings.Join(gw.Backends(), ", "))
	return httpshell.Serve("positgw", &http.Server{Handler: gw.Handler()}, ln,
		func() { gw.SetDraining(true) }, *drainGrace, *drain)
}
