package compress

import "sync/atomic"

// Process-wide engine gauges and counters. The serving layer polls these
// for /metrics, so they are always on: every update is one atomic add (no
// allocation, no lock), which is noise against compressing even the
// smallest permitted chunk. Gauges (queue depth, busy/alive workers)
// aggregate across every live engine in the process — per-request pools
// included — which is exactly the fleet-level view a saturation question
// needs.
type engineCounters struct {
	queueDepth   atomic.Int64 // chunks submitted to a pool, not yet picked up
	workersAlive atomic.Int64 // pool goroutines currently running
	workersBusy  atomic.Int64 // pool goroutines currently inside a codec call

	queueWaitNS atomic.Int64 // cumulative submit -> worker-pickup time

	// Pool counters. Every item handed to an engine pool runs exactly once
	// on one of its workers, so after any engine drains schedSubmitted ==
	// schedLocalHits, an invariant the positload soak reconciles end to
	// end.
	schedSubmitted atomic.Int64 // items handed to an engine pool
	schedLocalHits atomic.Int64 // items an engine pool worker ran

	compressChunks   atomic.Int64
	compressBusyNS   atomic.Int64
	compressBytesIn  atomic.Int64
	compressBytesOut atomic.Int64

	decompressChunks   atomic.Int64
	decompressBusyNS   atomic.Int64
	decompressBytesIn  atomic.Int64
	decompressBytesOut atomic.Int64

	// Range-read counters live apart from the stream decompress counters so
	// the existing soak reconciliations (which equate decompress_chunks with
	// frames fetched) stay exact: a random-access window decodes chunks the
	// stream path never saw. rangeChunks counts chunks actually decoded —
	// cache hits are visible only in the chunk-cache stats.
	rangeReads    atomic.Int64
	rangeChunks   atomic.Int64
	rangeBytesIn  atomic.Int64 // compressed bytes fetched for range decodes
	rangeBytesOut atomic.Int64 // raw bytes produced by range decodes
}

var engine engineCounters

// EngineStats is one consistent-enough snapshot of the engine counters
// (fields are read individually; the engine keeps running underneath).
type EngineStats struct {
	QueueDepth   int64 `json:"queue_depth"`
	WorkersAlive int64 `json:"workers_alive"`
	WorkersBusy  int64 `json:"workers_busy"`

	QueueWaitNS int64 `json:"queue_wait_ns_total"`

	SchedSubmitted int64 `json:"sched_submitted"`
	SchedLocalHits int64 `json:"sched_local_hits"`
	// SchedSteals and WorkerQueueDepths always read zero: the engines' one
	// FIFO queue neither steals nor keeps per-worker queues. They keep the
	// /metrics key set fixed until the benchmark stops reading them.
	SchedSteals       int64   `json:"sched_steals"`
	WorkerQueueDepths []int64 `json:"worker_queue_depths"`

	CompressChunks   int64 `json:"compress_chunks"`
	CompressBusyNS   int64 `json:"compress_busy_ns_total"`
	CompressBytesIn  int64 `json:"compress_bytes_in"`
	CompressBytesOut int64 `json:"compress_bytes_out"`

	DecompressChunks   int64 `json:"decompress_chunks"`
	DecompressBusyNS   int64 `json:"decompress_busy_ns_total"`
	DecompressBytesIn  int64 `json:"decompress_bytes_in"`
	DecompressBytesOut int64 `json:"decompress_bytes_out"`

	RangeReads    int64 `json:"range_reads"`
	RangeChunks   int64 `json:"range_chunks"`
	RangeBytesIn  int64 `json:"range_bytes_in"`
	RangeBytesOut int64 `json:"range_bytes_out"`
}

// EngineSnapshot reads the current counter values.
func EngineSnapshot() EngineStats {
	return EngineStats{
		QueueDepth:         engine.queueDepth.Load(),
		WorkersAlive:       engine.workersAlive.Load(),
		WorkersBusy:        engine.workersBusy.Load(),
		QueueWaitNS:        engine.queueWaitNS.Load(),
		SchedSubmitted:     engine.schedSubmitted.Load(),
		SchedLocalHits:     engine.schedLocalHits.Load(),
		WorkerQueueDepths:  make([]int64, 8), // the old per-worker slot count
		CompressChunks:     engine.compressChunks.Load(),
		CompressBusyNS:     engine.compressBusyNS.Load(),
		CompressBytesIn:    engine.compressBytesIn.Load(),
		CompressBytesOut:   engine.compressBytesOut.Load(),
		DecompressChunks:   engine.decompressChunks.Load(),
		DecompressBusyNS:   engine.decompressBusyNS.Load(),
		DecompressBytesIn:  engine.decompressBytesIn.Load(),
		DecompressBytesOut: engine.decompressBytesOut.Load(),
		RangeReads:         engine.rangeReads.Load(),
		RangeChunks:        engine.rangeChunks.Load(),
		RangeBytesIn:       engine.rangeBytesIn.Load(),
		RangeBytesOut:      engine.rangeBytesOut.Load(),
	}
}
