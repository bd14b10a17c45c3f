// Command positd serves the positbench codec registry and conversion
// pipeline over HTTP: streaming compression and decompression, float32 <->
// posit batch conversion, and IEEE-754 field analysis, with the production
// posture (body caps, decode limits, admission control, request deadlines,
// graceful drain) configured from flags.
//
// Usage:
//
//	positd [-addr :8080] [-max-body N] [-max-out N] [-inflight N]
//	       [-timeout D] [-chunk N] [-workers N] [-drain D] [-drain-grace D]
//	       [-addr-file PATH] [-pprof ADDR] [-traces N]
//	       [-store-bytes N] [-cache-bytes N]
//
// -pprof exposes net/http/pprof and GET /debug/traces (the recent-request
// trace ring) on its own listener, never on the serving mux: profiling and
// trace endpoints leak heap contents and request shapes, and must not
// share the public address. Bind it to loopback (e.g. -pprof
// 127.0.0.1:6060).
//
// The process runs until SIGINT or SIGTERM, then drains the way positgw
// does (httpshell.Serve): /readyz flips to 503, the listener keeps
// answering for -drain-grace, in-flight requests get up to -drain to
// finish, and the exit code reports whether the drain completed (0) or was
// cut off (1).
package main

import (
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"positbench/internal/httpshell"
	"positbench/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("positd", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		addrFile   = fs.String("addr-file", "", "write the bound listen address to this file once serving (for scripts)")
		maxBody    = fs.Int64("max-body", server.DefaultMaxBodyBytes, "hard cap on any request body, bytes")
		maxOut     = fs.Int64("max-out", 0, "cap on decoded bytes per chunk; 0 selects the compress package default")
		inflight   = fs.Int("inflight", server.DefaultMaxInflight, "max concurrently served API requests; excess load is shed with 429")
		timeout    = fs.Duration("timeout", server.DefaultRequestTimeout, "per-request deadline; <0 disables")
		chunk      = fs.Int("chunk", 0, "streaming chunk size, bytes; 0 selects the compress package default")
		workers    = fs.Int("workers", 0, "worker pool size per request; 0 selects GOMAXPROCS")
		drain      = fs.Duration("drain", 30*time.Second, "graceful shutdown budget for in-flight requests")
		drainGrace = fs.Duration("drain-grace", 0, "pause between flipping /readyz unready and closing the listener, so balancers stop routing here first")
		pprofAt    = fs.String("pprof", "", "expose net/http/pprof and /debug/traces on this separate address (empty disables; keep it on loopback)")
		traces     = fs.Int("traces", 0, "request-trace ring size; 0 selects the default, <0 disables tracing")
		storeBytes = fs.Int64("store-bytes", server.DefaultMaxStoreBytes, "object store budget, bytes; PUTs past it are refused with 507")
		cacheBytes = fs.Int64("cache-bytes", server.DefaultChunkCacheBytes, "decoded chunk cache budget, bytes; <0 disables the cache")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	srv, err := server.New(server.Config{
		MaxBodyBytes:    *maxBody,
		MaxOutputBytes:  *maxOut,
		MaxInflight:     *inflight,
		RequestTimeout:  *timeout,
		ChunkSize:       *chunk,
		Workers:         *workers,
		TraceCapacity:   *traces,
		MaxStoreBytes:   *storeBytes,
		ChunkCacheBytes: *cacheBytes,
	})
	if err != nil {
		log.Printf("positd: %v", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Printf("positd: listen %s: %v", *addr, err)
		return 1
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := httpshell.WriteAddrFile(*addrFile, bound); err != nil {
			log.Printf("positd: write addr-file: %v", err)
			return 1
		}
		defer os.Remove(*addrFile)
	}

	if *pprofAt != "" {
		// A dedicated mux on a dedicated listener: the serving mux never
		// learns these routes, so a misconfigured proxy cannot reach them
		// through the public address.
		pln, err := net.Listen("tcp", *pprofAt)
		if err != nil {
			log.Printf("positd: pprof listen %s: %v", *pprofAt, err)
			return 1
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		// Request traces ride the debug listener for the same reason as
		// pprof: span trees carry request paths and sizes.
		pmux.Handle("/debug/traces", srv.DebugTracesHandler())
		ps := &http.Server{Handler: pmux}
		defer ps.Close() // debug-only: no drain, just stop with the process
		go func() {
			if err := ps.Serve(pln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("positd: pprof serve: %v", err)
			}
		}()
		if *addrFile != "" {
			// Scripts resolving a :0 pprof port read <addr-file>.pprof.
			if err := httpshell.WriteAddrFile(*addrFile+".pprof", pln.Addr().String()); err != nil {
				log.Printf("positd: write pprof addr-file: %v", err)
				return 1
			}
			defer os.Remove(*addrFile + ".pprof")
		}
		log.Printf("positd: pprof on %s", pln.Addr())
	}

	log.Printf("positd: serving on %s", bound)
	return httpshell.Serve("positd", &http.Server{Handler: srv.Handler()}, ln,
		func() { srv.SetReady(false) }, *drainGrace, *drain)
}
