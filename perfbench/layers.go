package main

import (
	"runtime"
	"time"

	"positbench/internal/compress"
	"positbench/internal/compress/all"
)

// layerMetric is one per-layer metric as BENCHMARK.json declares it.
type layerMetric struct{ name, unit string }

// layerMetrics is every metric the traced run prints. A layer that does no
// work on a workload reports 0 there. BENCHMARK.json lists the same names
// and units; TestMetricsMatchBenchmarkJSON keeps the two in step.
var layerMetrics = func() []layerMetric {
	ms := []layerMetric{
		{"core.prepare_s", "s"}, {"core.codecs_s", "s"}, {"lc.search_s", "s"}, {"lc.pipelines_per_s", "1/s"},
		{"alloc_mb", "MB"}, {"gc_cycles", "count"},
	}
	for _, c := range all.Names() {
		ms = append(ms, layerMetric{"codec." + c + ".compress_mb_s", "MB/s"}, layerMetric{"codec." + c + ".decompress_mb_s", "MB/s"})
	}
	ms = append(ms, []layerMetric{
		{"client.overhead_p50_ms", "ms"},
		{"server.compress.p50_ms", "ms"}, {"server.decompress.p50_ms", "ms"},
		{"server.auto.p50_ms", "ms"}, {"server.convert.p50_ms", "ms"},
		{"engine.chunks", "count"}, {"engine.queue_wait_us", "us"}, {"engine.steal_pct", "%"}, {"engine.busy_pct", "%"},
		{"advisor.hit_pct", "%"}, {"advisor.coalesced", "count"},
		{"advisor.decide_miss_ms", "ms"}, {"advisor.decide_hit_ms", "ms"},
		{"server.rejected_429", "count"},
		{"gateway.self_p50_ms", "ms"}, {"gateway.tries_per_req", "x"},
		{"server.read.p50_ms", "ms"}, {"server.put_object.p50_ms", "ms"},
		{"chunkcache.hit_pct", "%"}, {"chunkcache.evictions", "count"}, {"chunkcache.coalesced", "count"},
		{"container.read_amp", "x"}, {"container.chunks_per_read", "count"},
		{"loadgen.lag_p99_ms", "ms"},
		{"lz77.match_mb_s", "MB/s"}, {"bwt.transform_mb_s", "MB/s"}, {"bwt.inverse_mb_s", "MB/s"},
		{"mtf.encode_mb_s", "MB/s"}, {"mtf.decode_mb_s", "MB/s"},
		{"huffman.encode_mb_s", "MB/s"}, {"huffman.decode_mb_s", "MB/s"},
		{"rangecoder.encode_mb_s", "MB/s"}, {"rangecoder.decode_mb_s", "MB/s"},
		{"posit.encode_mb_s", "MB/s"}, {"posit.decode_mb_s", "MB/s"}, {"lc.pipeline_mb_s", "MB/s"},
		// The workloads' own end-to-end metrics, from the untraced pass.
		{"study_s", "s"}, {"ingest_mb_s", "MB/s"},
		{"compress_p50_ms", "ms"}, {"compress_p99_ms", "ms"},
		{"decompress_p50_ms", "ms"}, {"decompress_p99_ms", "ms"},
		{"auto_miss_p50_ms", "ms"}, {"auto_hit_p50_ms", "ms"},
		{"read_p50_ms", "ms"}, {"read_p99_ms", "ms"}, {"put_p50_ms", "ms"},
		// Traced minus untraced end-to-end metrics.
		{"trace_overhead.p50_ms", "ms"}, {"trace_overhead.mb_s", "MB/s"},
	}...)
	return ms
}()

// engineLayers reports the chunk engine's counters over the timed phase:
// chunks run, queue wait per scheduled chunk, steals per scheduled chunk,
// and codec busy time over wall time x GOMAXPROCS.
func engineLayers(a, b compress.EngineStats, wall time.Duration, p *pass) {
	submitted := float64(b.SchedSubmitted - a.SchedSubmitted)
	p.layers["engine.chunks"] = float64(b.CompressChunks - a.CompressChunks + b.DecompressChunks - a.DecompressChunks)
	if submitted > 0 {
		p.layers["engine.queue_wait_us"] = float64(b.QueueWaitNS-a.QueueWaitNS) / submitted / 1e3
		p.layers["engine.steal_pct"] = 100 * float64(b.SchedSteals-a.SchedSteals) / submitted
	}
	busy := float64(b.CompressBusyNS - a.CompressBusyNS + b.DecompressBusyNS - a.DecompressBusyNS)
	p.layers["engine.busy_pct"] = 100 * busy / (float64(wall) * float64(runtime.GOMAXPROCS(0)))
}

// requestLayers joins the spans of the requests sent since start by
// request ID. outer names the first hop ("server" for positd, "gateway"
// for positgw). It reports each backend route's handler p50, the client's
// overhead over the outer handler, and the gateway's self time over the
// backend handlers it called.
func requestLayers(rec *recorder, start time.Time, outer string, p *pass) {
	since := start.Sub(rec.epoch).Nanoseconds()
	routes := map[string][]float64{}
	var overhead, self []float64
	for _, rs := range rec.byRequest() {
		if len(rs.client) != 1 || rs.client[0].Start < since {
			continue
		}
		var backend time.Duration
		for _, s := range rs.server {
			routes[s.Name] = append(routes[s.Name], ms(s.dur()))
			backend += s.dur()
		}
		hop := rs.server
		if outer == "gateway" {
			hop = rs.gateway
			if len(hop) == 1 && len(rs.server) > 0 {
				self = append(self, ms(hop[0].dur()-backend))
			}
		}
		if len(hop) == 1 {
			overhead = append(overhead, ms(rs.client[0].dur()-hop[0].dur()))
		}
	}
	for name, xs := range routes {
		p.layers[name+".p50_ms"] = median(xs)
	}
	p.layers["client.overhead_p50_ms"] = median(overhead)
	if outer == "gateway" {
		p.layers["gateway.self_p50_ms"] = median(self)
	}
}
