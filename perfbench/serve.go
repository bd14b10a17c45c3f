package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"positbench/internal/advisor"
	"positbench/internal/chunkcache"
	"positbench/internal/compress"
	"positbench/internal/gateway"
	"positbench/internal/server"
)

// service is one in-process HTTP server on a loopback listener, hosted the
// way cmd/positd and cmd/positgw host theirs: an http.Server over the
// handler the package builds.
type service struct {
	url  string
	hs   *http.Server
	done chan error
	stop func() // extra shutdown work (the gateway's probes)
}

func serve(h http.Handler) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &service{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// close drains the server and waits until its serve loop has returned.
func (s *service) close() {
	if s.stop != nil {
		s.stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	<-s.done
}

// startPositd hosts one positd. codecs nil selects the registry defaults,
// exactly as cmd/positd does; the traced pass passes wrapped codecs.
// cacheBytes 0 keeps the default chunk-cache budget.
func startPositd(codecs []compress.Codec, cacheBytes int64, rec *recorder) (*service, error) {
	srv, err := server.New(server.Config{Codecs: codecs, AccessLog: io.Discard, ChunkCacheBytes: cacheBytes})
	if err != nil {
		return nil, fmt.Errorf("positd: %w", err)
	}
	svc, err := serve(handlerSpans(rec, "server", srv.Handler()))
	if err != nil {
		return nil, fmt.Errorf("positd: %w", err)
	}
	return svc, nil
}

// startPositgw hosts one positgw in front of backends, with active health
// probes running as cmd/positgw runs them.
func startPositgw(backends []string, rec *recorder) (*service, error) {
	gw, err := gateway.New(gateway.Config{Backends: backends, AccessLog: io.Discard})
	if err != nil {
		return nil, fmt.Errorf("positgw: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	gw.StartProbes(ctx)
	svc, err := serve(handlerSpans(rec, "gateway", gw.Handler()))
	if err != nil {
		cancel()
		return nil, fmt.Errorf("positgw: %w", err)
	}
	svc.stop = cancel
	return svc, nil
}

// client is one connection's worth of HTTP client: the load generators
// give each client or worker its own, so requests never share a socket.
type client struct {
	tr  *http.Transport
	hc  *http.Client
	rec *recorder
}

func newClient(rec *recorder) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{tr: tr, hc: &http.Client{Transport: tr}, rec: rec}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// reply is one finished HTTP exchange.
type reply struct {
	status int
	header http.Header
	body   []byte
	err    error
	lat    time.Duration // send to last body byte
}

func (r reply) ok() bool { return r.err == nil && r.status >= 200 && r.status < 300 }

// describe says why a reply failed, for the mismatch log.
func (r reply) describe() string {
	if r.err != nil {
		return r.err.Error()
	}
	return fmt.Sprintf("status %d: %s", r.status, bytes.TrimSpace(r.body))
}

// do sends one request carrying X-Request-ID reqID and reads the whole
// reply. The traced pass records it as a "client.<route>" span.
func (c *client) do(method, url, reqID string, body []byte, header map[string]string) reply {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("X-Request-ID", reqID)
	for k, v := range header {
		req.Header.Set(k, v)
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{err: err, lat: time.Since(start)}
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	c.rec.add("client."+routeOf(req), reqID, 0, start, end, int64(len(body)))
	return reply{status: resp.StatusCode, header: resp.Header, body: out, err: err, lat: end.Sub(start)}
}

// positdMetrics is the part of positd's GET /metrics the benchmark reads,
// decoded into the program's own stats types.
type positdMetrics struct {
	Advisor    *advisor.Stats    `json:"advisor"`
	ChunkCache *chunkcache.Stats `json:"chunk_cache"`
}

// positgwMetrics is the part of positgw's GET /metrics the benchmark reads:
// the tries sent to each backend, retries and hedges included.
type positgwMetrics struct {
	Backends map[string]struct {
		Requests int64 `json:"requests"`
	} `json:"backends"`
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func positdStats(svc *service) (positdMetrics, error) {
	var m positdMetrics
	if err := getJSON(svc.url+"/metrics", &m); err != nil {
		return m, err
	}
	if m.Advisor == nil || m.ChunkCache == nil {
		return m, errors.New("positd /metrics lacks the advisor or chunk_cache section")
	}
	return m, nil
}

func positgwTries(svc *service) (int64, error) {
	var m positgwMetrics
	if err := getJSON(svc.url+"/metrics", &m); err != nil {
		return 0, err
	}
	var n int64
	for _, b := range m.Backends {
		n += b.Requests
	}
	return n, nil
}
