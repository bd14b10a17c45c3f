package compress

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"positbench/internal/pool"
	"positbench/internal/trace"
)

// Parallel execution engine for the streaming layer. ParallelWriter and
// ParallelReader speak exactly the chunked container of Writer/Reader
// (uvarint compressed-chunk length prefixes, zero-length terminator), so the
// serial and parallel paths are interchangeable on the wire: a stream
// written by either is read by either, byte for byte.
//
// Ordering guarantee: chunks are compressed out of order across a bounded
// worker pool but frames are emitted strictly in submission order, so for a
// deterministic codec the parallel output is byte-identical to the serial
// output at the same chunk size.
//
// Memory bound: at most workers+1 chunks are in flight on either side (one
// filling/draining plus the pool's queue), so peak buffering is
// O(workers x chunkSize) plus the compressed copies of those same chunks.
//
// Scheduling: both engines and RunParallel run their chunks on a
// pool.Pool, one FIFO queue drained by a fixed set of workers. With at
// most workers+1 chunks pending, an idle worker always takes the oldest
// one, which is the chunk the in-order emitter or reader waits on next.
//
// Error semantics: first error in stream order wins and is sticky,
// matching the serial path; ErrCorrupt/ErrTruncated/ErrLimitExceeded
// surface identically because both paths share the same frame parser and
// per-chunk DecompressLimits call.

// enginePool is the pool.Pool the chunk engines and RunParallel run on,
// plus the accounting /metrics reads: sched_submitted counts items handed
// to it, sched_local_hits items its workers ran, and workers_alive its
// workers from start until close has joined them.
type enginePool[T any] struct {
	p       *pool.Pool[T]
	workers int
	once    sync.Once
}

// startEnginePool starts workers goroutines running exec. The queue holds
// workers+1 items, the stream engines' in-flight bound, so their submits
// never block.
func startEnginePool[T any](workers int, exec func(worker int, t T)) *enginePool[T] {
	engine.workersAlive.Add(int64(workers))
	return &enginePool[T]{workers: workers, p: pool.New(workers, workers+1, func(w int, t T) {
		engine.schedLocalHits.Add(1)
		exec(w, t)
	})}
}

func (e *enginePool[T]) submit(t T) {
	engine.schedSubmitted.Add(1)
	e.p.Submit(t)
}

// close returns once every submitted item has run and the workers have
// exited. It is idempotent.
func (e *enginePool[T]) close() {
	e.once.Do(func() {
		e.p.Close()
		engine.workersAlive.Add(-int64(e.workers))
	})
}

// pwJob is one chunk moving through the writer's pool: src is the raw
// chunk, comp/err the compression result. ready (capacity 1) receives one
// token when comp is set; jobs are recycled through a pool, carrying both
// their src and comp buffers with them so steady-state compression reuses
// them. Pooling the buffers inside the job (a pointer) rather than as bare
// slices keeps the recycle path allocation-free: boxing a slice header into
// an interface would itself allocate per chunk.
type pwJob struct {
	src       []byte
	comp      []byte
	err       error
	ready     chan struct{}
	submitted time.Time   // when submit() enqueued the job (queue-wait metric)
	span      *trace.Span // per-chunk span; nil when the stream is untraced
}

// ParallelWriter compresses a stream chunk by chunk on a worker pool,
// emitting frames in order. It is not safe for concurrent Write
// calls (like any io.Writer); the parallelism is internal.
type ParallelWriter struct {
	codec   Codec
	dst     io.Writer
	chunk   int
	workers int
	ctx     context.Context

	span *trace.Span // request span from the context; parents the chunk spans
	seq  int         // chunk index, for span labels

	cur     *pwJob              // chunk currently being filled by Write
	order   chan *pwJob         // submission order; capacity bounds in-flight chunks
	sched   *enginePool[*pwJob] // compressors
	done    chan struct{}
	jobPool sync.Pool                   // pwJob shells with their ready channel and buffers
	hdr     [binary.MaxVarintLen64]byte // frame-header scratch for the emitter

	mu     sync.Mutex
	err    error
	closed bool

	// Index sink (opt-in). pos is the absolute stream offset of the next
	// frame; it is touched only by the emitter goroutine while the stream
	// flows and read by Close after <-w.done, which is the happens-before
	// edge that makes the handoff safe.
	sink IndexSink
	pos  int64

	// serial, when non-nil, replaces the whole pool: on a host where the
	// engine cannot overlap chunk compression with anything (one worker,
	// or one CPU), the pool only adds handoffs over the buffer-reusing
	// serial Writer, so construction falls back to it and every method
	// delegates. See NewParallelWriterContext.
	serial *Writer
}

// NewParallelWriter returns a parallel streaming compressor writing to dst.
// chunkSize <= 0 selects DefaultChunkSize; workers <= 0 selects
// runtime.GOMAXPROCS(0). With one worker, or on a one-CPU host, it
// delegates to the serial Writer; the output is byte-identical either way.
// Close must be called to terminate the stream and release the pool's
// goroutines.
func NewParallelWriter(codec Codec, dst io.Writer, chunkSize, workers int) *ParallelWriter {
	return NewParallelWriterContext(context.Background(), codec, dst, chunkSize, workers)
}

// NewParallelWriterContext is NewParallelWriter bound to a context: once ctx
// is cancelled, pending chunks are skipped instead of compressed, the
// context error becomes the writer's sticky error, and Close still reclaims
// every goroutine. Serving paths use this so an abandoned request cannot
// leave a worker pool compressing for nobody.
func NewParallelWriterContext(ctx context.Context, codec Codec, dst io.Writer, chunkSize, workers int) *ParallelWriter {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	workers = pool.Workers(workers)
	if workers == 1 {
		// One worker — or one CPU, however many workers were asked for —
		// cannot overlap chunk compression with anything: the pool only
		// adds handoffs, goroutine switches, and per-chunk buffer copies
		// over the serial path, a measured regression on the 1-CPU
		// reference box. Delegate to the serial Writer, which reuses its
		// buffers across chunks; output is byte-identical.
		sw := NewWriter(codec, dst, chunkSize)
		sw.SetSpan(trace.FromContext(ctx))
		return &ParallelWriter{ctx: ctx, serial: sw}
	}
	w := &ParallelWriter{
		codec:   codec,
		dst:     dst,
		chunk:   chunkSize,
		workers: workers,
		ctx:     ctx,
		span:    trace.FromContext(ctx),
		order:   make(chan *pwJob, workers),
		done:    make(chan struct{}),
	}
	w.jobPool.New = func() interface{} { return &pwJob{ready: make(chan struct{}, 1)} }
	w.sched = startEnginePool(workers, w.runJob)
	go w.emitter()
	return w
}

// SerialFallback reports whether the writer delegates to the serial path
// instead of running a pool — true with one worker or on a 1-CPU host,
// where parallelism cannot pay for its own handoffs.
func (w *ParallelWriter) SerialFallback() bool { return w.serial != nil }

// SetIndexSink attaches sink to receive the frame layout as it is emitted;
// Close then appends the sink's trailer after the stream terminator. Call
// it before the first Write. A nil sink (the default) leaves the output
// byte-identical to an unindexed stream. On CloseWithError or context
// cancellation no trailer is written — a poisoned stream must not grow a
// tail that makes it look seekable.
func (w *ParallelWriter) SetIndexSink(sink IndexSink) {
	if w.serial != nil {
		w.serial.SetIndexSink(sink)
		return
	}
	w.sink = sink
}

// runJob compresses one chunk on a pool worker.
func (w *ParallelWriter) runJob(worker int, job *pwJob) {
	engine.queueDepth.Add(-1)
	wait := time.Since(job.submitted)
	engine.queueWaitNS.Add(int64(wait))
	job.span.AddStage("queue-wait", wait, 0, 0)
	if job.span != nil {
		job.span.Annotate("worker", strconv.Itoa(worker))
	}
	if err := w.ctx.Err(); err != nil {
		job.err = err
	} else {
		engine.workersBusy.Add(1)
		t0 := time.Now()
		cs := job.span.Child("compress")
		job.comp, job.err = CompressAppendTrace(w.codec, job.comp[:0], job.src, cs)
		cs.SetBytes(int64(len(job.src)), int64(len(job.comp)))
		cs.End()
		engine.workersBusy.Add(-1)
		engine.compressBusyNS.Add(int64(time.Since(t0)))
		if job.err == nil {
			engine.compressChunks.Add(1)
			engine.compressBytesIn.Add(int64(len(job.src)))
			engine.compressBytesOut.Add(int64(len(job.comp)))
		}
	}
	job.ready <- struct{}{}
}

// emitter writes frames in submission order. After the first error it keeps
// draining so blocked producers and compressors always make progress, but
// emits nothing further.
func (w *ParallelWriter) emitter() {
	defer close(w.done)
	for job := range w.order {
		<-job.ready
		if err := w.firstErr(); err == nil {
			if job.err != nil {
				w.setErr(job.err)
			} else {
				var t0 time.Time
				if job.span != nil {
					t0 = time.Now()
				}
				n, err := writeFrame(w.dst, w.hdr[:], job.comp)
				if job.span != nil {
					job.span.AddStage("frame-write", time.Since(t0), 0, int64(len(job.comp)))
				}
				if err == nil {
					w.pos += n
					if w.sink != nil {
						w.sink.AddChunk(w.pos-int64(len(job.comp)), job.comp, len(job.src))
					}
				}
				w.setErr(err)
			}
		}
		if job.span != nil {
			if job.err != nil {
				job.span.Annotate("error", job.err.Error())
			}
			job.span.SetBytes(int64(len(job.src)), int64(len(job.comp)))
			job.span.End()
		}
		job.src, job.err, job.span = job.src[:0], nil, nil
		w.jobPool.Put(job)
	}
}

// writeFrame emits one chunk frame: uvarint(len+1) then the payload,
// returning the total bytes written so the writers can track absolute frame
// offsets for an IndexSink. hdr is the caller's persistent scratch (len >=
// binary.MaxVarintLen64): a local array would escape through the io.Writer
// interface and cost an allocation per frame.
func writeFrame(dst io.Writer, hdr, comp []byte) (int64, error) {
	n := binary.PutUvarint(hdr, uint64(len(comp))+1) // +1: 0 is the terminator
	if _, err := dst.Write(hdr[:n]); err != nil {
		return 0, err
	}
	if _, err := dst.Write(comp); err != nil {
		return int64(n), err
	}
	return int64(n) + int64(len(comp)), nil
}

func (w *ParallelWriter) setErr(err error) {
	if err == nil {
		return
	}
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
}

func (w *ParallelWriter) firstErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Write implements io.Writer. A compression or sink error from an earlier
// chunk surfaces on the next Write (or at Close) and is sticky.
func (w *ParallelWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("compress: write after Close")
	}
	if err := w.ctx.Err(); err != nil {
		w.setErr(err)
		return 0, err
	}
	if err := w.firstErr(); err != nil {
		return 0, err
	}
	if w.serial != nil {
		n, err := w.serial.Write(p)
		w.setErr(err)
		return n, err
	}
	if w.cur == nil {
		w.cur = w.jobPool.Get().(*pwJob)
	}
	total := len(p)
	for len(p) > 0 {
		room := w.chunk - len(w.cur.src)
		if room > len(p) {
			room = len(p)
		}
		w.cur.src = append(w.cur.src, p[:room]...)
		p = p[room:]
		if len(w.cur.src) == w.chunk {
			w.submit()
			if len(p) > 0 {
				w.cur = w.jobPool.Get().(*pwJob)
			}
		}
	}
	return total, nil
}

// submit hands the current chunk to the pool. Sending on order first
// preserves emission order; its capacity is the back-pressure bound.
func (w *ParallelWriter) submit() {
	job := w.cur
	w.cur = nil
	if w.span.Enabled() {
		job.span = w.span.Child("chunk")
		job.span.Annotate("idx", strconv.Itoa(w.seq))
	}
	w.seq++
	job.submitted = time.Now()
	w.order <- job
	engine.queueDepth.Add(1)
	w.sched.submit(job)
}

// Close flushes the final chunk, waits for the pool to drain, writes the
// stream terminator, and releases all goroutines. It is idempotent.
func (w *ParallelWriter) Close() error {
	if w.closed {
		return w.firstErr()
	}
	w.closed = true
	if w.serial != nil {
		if err := w.ctx.Err(); err != nil {
			w.setErr(err)
		}
		if err := w.firstErr(); err != nil {
			// Poisoned (CloseWithError or an earlier failure): the pending
			// partial chunk and the terminator are NOT emitted, exactly as
			// on the pool path.
			return err
		}
		err := w.serial.Close()
		w.setErr(err)
		return err
	}
	if w.cur != nil && len(w.cur.src) > 0 {
		w.submit()
	}
	close(w.order)
	w.sched.close()
	<-w.done
	if err := w.ctx.Err(); err != nil {
		w.setErr(err)
	}
	if err := w.firstErr(); err != nil {
		return err
	}
	_, err := w.dst.Write([]byte{0})
	if err == nil && w.sink != nil {
		_, err = w.sink.WriteTrailer(w.dst)
	}
	w.setErr(err)
	return err
}

// CloseWithError poisons the writer with err and then closes it: the
// pending partial chunk and the stream terminator are NOT emitted, and the
// pool is released. Serving paths use it to abandon a stream whose source
// failed, so a broken upload cannot flush a tail that masquerades as a
// valid stream. Frames already emitted before the error stay on the wire —
// the caller owns signalling the abort downstream.
func (w *ParallelWriter) CloseWithError(err error) error {
	if err == nil {
		return w.Close()
	}
	w.setErr(err)
	return w.Close()
}

// prSlot is one chunk moving through the reader's pool, in stream order.
// ready (capacity 1) receives one token when out is resolved. Slots are
// recycled once Read has fully drained them, carrying their comp and out
// buffers so steady-state streaming reuses both.
type prSlot struct {
	comp    []byte
	out     []byte
	err     error // io.EOF marks the clean end of stream
	ready   chan struct{}
	fetched time.Time   // when the fetcher enqueued the slot (queue-wait metric)
	span    *trace.Span // per-chunk span; nil when the stream is untraced
}

// ParallelReader decompresses a chunked stream with read-ahead workers:
// frames are fetched and decompressed concurrently while Read returns
// bytes strictly in stream order. It is not safe for concurrent Read
// calls; the parallelism is internal.
type ParallelReader struct {
	ctx      context.Context
	span     *trace.Span // request span from the context; parents the chunk spans
	seq      int         // chunk index, for span labels
	slots    chan *prSlot
	sched    *enginePool[*prSlot] // decompressors
	stop     chan struct{}
	once     sync.Once
	finished chan struct{} // closed once the pool has fully drained
	finOnce  sync.Once
	wg       sync.WaitGroup // the fetcher; pool workers have their own

	buf      []byte
	cur      *prSlot // slot whose out buffer buf aliases; recycled when drained
	slotPool sync.Pool
	err      error

	// serial, when non-nil, replaces the whole pool: with one worker the
	// pipeline cannot overlap anything, so construction falls back to the
	// buffer-reusing serial Reader and every method delegates to it. See
	// NewParallelReaderContext.
	serial *Reader
}

// NewParallelReader returns a parallel streaming decompressor over src with
// default decode limits. workers <= 0 selects runtime.GOMAXPROCS(0).
func NewParallelReader(codec Codec, src io.Reader, workers int) *ParallelReader {
	return NewParallelReaderLimits(codec, src, DecodeLimits{}, workers)
}

// NewParallelReaderLimits returns a parallel streaming decompressor that
// enforces lim on every chunk, exactly as the serial Reader does. The
// reader shuts its pool down on EOF or first error; call Close to release
// it early when abandoning a stream mid-read.
func NewParallelReaderLimits(codec Codec, src io.Reader, lim DecodeLimits, workers int) *ParallelReader {
	return NewParallelReaderContext(context.Background(), codec, src, lim, workers)
}

// NewParallelReaderContext is NewParallelReaderLimits bound to a context:
// once ctx is cancelled the read-ahead pool stops fetching and decoding,
// Read surfaces the context error, and the pool's goroutines exit without
// waiting for EOF. Serving paths use this so request cancellation cannot
// leak in-flight decode workers.
func NewParallelReaderContext(ctx context.Context, codec Codec, src io.Reader, lim DecodeLimits, workers int) *ParallelReader {
	workers = pool.Workers(workers)
	if workers == 1 {
		// One worker cannot overlap fetch with decode: the pool only adds
		// handoffs, goroutine switches, and per-chunk buffer copies over
		// the serial path. The same holds on a 1-CPU host
		// (GOMAXPROCS=1) no matter how many workers were requested, for
		// EVERY codec: extra workers cannot add CPU, so the ready-channel
		// round-trip and prSlot churn are pure overhead — a measured
		// regression for bzip2/fpc32/fpc-posit at workers=4, not just the
		// light lz4/zstd class the old policy special-cased. Delegate to
		// the serial Reader, which reuses its buffers across chunks. Error
		// taxonomy and limits are identical — both paths share
		// readFrameInto.
		sr := NewReaderLimits(codec, src, lim)
		sr.SetSpan(trace.FromContext(ctx))
		return &ParallelReader{ctx: ctx, serial: sr}
	}
	r := &ParallelReader{
		ctx:      ctx,
		span:     trace.FromContext(ctx),
		slots:    make(chan *prSlot, workers),
		stop:     make(chan struct{}),
		finished: make(chan struct{}),
	}
	r.slotPool.New = func() interface{} { return &prSlot{ready: make(chan struct{}, 1)} }
	r.sched = startEnginePool(workers, func(worker int, slot *prSlot) {
		r.runSlot(codec, lim, worker, slot)
	})
	r.wg.Add(1)
	go r.fetch(bufio.NewReader(src), lim)
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				r.once.Do(func() { close(r.stop) })
			case <-r.finished:
			}
		}()
	}
	return r
}

// fetch parses frames in stream order, queueing each chunk for
// decompression. The terminal condition (terminator, truncation, limit
// trip, or I/O error) travels as a final pre-resolved slot so Read
// surfaces it after every earlier chunk, matching the serial path.
func (r *ParallelReader) fetch(src *bufio.Reader, lim DecodeLimits) {
	defer r.wg.Done()
	defer close(r.slots)
	for {
		slot := r.slotPool.Get().(*prSlot)
		slot.err, slot.span = nil, nil
		var t0 time.Time
		if r.span.Enabled() {
			t0 = time.Now()
		}
		comp, err := readFrameInto(src, lim, slot.comp[:0])
		if err != nil || comp == nil {
			if err == nil {
				err = io.EOF // clean terminator
			}
			slot.comp = nil
			slot.err = err
			slot.ready <- struct{}{}
			select {
			case r.slots <- slot:
			case <-r.stop:
			}
			return
		}
		slot.comp = comp
		if r.span.Enabled() {
			slot.span = r.span.Child("chunk")
			slot.span.Annotate("idx", strconv.Itoa(r.seq))
			slot.span.AddStage("frame-read", time.Since(t0), int64(len(comp)), 0)
		}
		r.seq++
		slot.fetched = time.Now()
		select {
		case r.slots <- slot:
		case <-r.stop:
			return
		}
		// The pool runs every submitted slot — resolving it with the
		// shutdown error if r.stop closed first — so no slot on r.slots is
		// left that no worker will touch: submit never blocks (the queue
		// holds the whole in-flight bound) and never drops.
		engine.queueDepth.Add(1)
		r.sched.submit(slot)
	}
}

// SerialFallback reports whether the reader delegates to the serial path
// instead of running a pool — true with one worker or on a 1-CPU host,
// where parallelism cannot pay for its own handoffs.
func (r *ParallelReader) SerialFallback() bool { return r.serial != nil }

// runSlot decompresses one chunk on a pool worker.
func (r *ParallelReader) runSlot(codec Codec, lim DecodeLimits, worker int, slot *prSlot) {
	engine.queueDepth.Add(-1)
	wait := time.Since(slot.fetched)
	engine.queueWaitNS.Add(int64(wait))
	slot.span.AddStage("queue-wait", wait, 0, 0)
	if slot.span != nil {
		slot.span.Annotate("worker", strconv.Itoa(worker))
	}
	select {
	case <-r.stop:
		slot.err = r.closedErr()
	default:
		engine.workersBusy.Add(1)
		t0 := time.Now()
		ds := slot.span.Child("decompress")
		slot.out, slot.err = DecompressAppendLimitsTrace(codec, slot.out[:0], slot.comp, lim, ds)
		ds.SetBytes(int64(len(slot.comp)), int64(len(slot.out)))
		ds.End()
		engine.workersBusy.Add(-1)
		engine.decompressBusyNS.Add(int64(time.Since(t0)))
		if slot.err == nil {
			engine.decompressChunks.Add(1)
			engine.decompressBytesIn.Add(int64(len(slot.comp)))
			engine.decompressBytesOut.Add(int64(len(slot.out)))
		}
	}
	if slot.span != nil {
		if slot.err != nil {
			slot.span.Annotate("error", slot.err.Error())
		}
		slot.span.SetBytes(int64(len(slot.comp)), int64(len(slot.out)))
		slot.span.End()
	}
	slot.ready <- struct{}{}
}

// readFrameInto reads one chunk frame into buf (reusing its capacity),
// returning the compressed payload or (nil, nil) at the stream terminator.
// Errors carry the same taxonomy as the serial path.
func readFrameInto(src *bufio.Reader, lim DecodeLimits, buf []byte) ([]byte, error) {
	length, err := binary.ReadUvarint(src)
	if err != nil {
		if err == io.EOF {
			return nil, Errorf(ErrTruncated, "compress: missing stream terminator")
		}
		return nil, err
	}
	if length == 0 {
		return nil, nil
	}
	compLen := length - 1
	// A compressed chunk cannot usefully exceed the output cap by more than
	// the worst-case incompressible overhead; a tampered prefix past that is
	// rejected before any proportional allocation.
	maxOut := lim.MaxOutputBytes
	if maxOut <= 0 {
		maxOut = DefaultMaxOutputBytes
	}
	if compLen > uint64(maxOut)+uint64(expansionSlack) {
		return nil, Errorf(ErrLimitExceeded, "compress: chunk declares %d compressed bytes, limit %d", compLen, maxOut)
	}
	// The buffer grows geometrically with the bytes actually read, never all
	// at once from the declared length, so a tampered prefix on a short
	// stream costs nothing. A pooled buffer that has reached the steady-state
	// chunk size reads in one ReadFull with no allocation.
	need := int(compLen)
	buf = buf[:0]
	for len(buf) < need {
		if len(buf) == cap(buf) {
			grow := 2 * cap(buf)
			if grow < 4096 {
				grow = 4096
			}
			if grow > need {
				grow = need
			}
			nb := make([]byte, len(buf), grow)
			copy(nb, buf)
			buf = nb
		}
		end := cap(buf)
		if end > need {
			end = need
		}
		n, err := io.ReadFull(src, buf[len(buf):end])
		buf = buf[:len(buf)+n]
		if err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return nil, Errorf(ErrTruncated, "compress: chunk body: %d of %d bytes", len(buf), need)
			}
			return nil, fmt.Errorf("compress: chunk body: %w", err)
		}
	}
	return buf, nil
}

// closedErr is the sticky error for reads that raced pool shutdown: the
// context error when cancellation triggered it, a generic message when
// Close did.
func (r *ParallelReader) closedErr() error {
	if err := r.ctx.Err(); err != nil {
		return err
	}
	return fmt.Errorf("compress: parallel reader closed")
}

// Read implements io.Reader. The first error in stream order is sticky and
// shuts the pool down; a clean end of stream returns io.EOF likewise.
func (r *ParallelReader) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	if r.serial != nil {
		// Single-worker fallback. The pool path surfaces cancellation and
		// keeps the first error sticky; mirror both so callers cannot tell
		// the modes apart.
		if err := r.ctx.Err(); err != nil {
			r.err = err
			return 0, r.err
		}
		n, err := r.serial.Read(p)
		if err != nil {
			r.err = err
		}
		return n, err
	}
	for len(r.buf) == 0 {
		if r.cur != nil {
			// The previous chunk is fully drained; its buffers go back to
			// the fetcher for reuse. Callers only ever saw copies.
			r.cur.span = nil // the span was ended by the decompressor
			r.slotPool.Put(r.cur)
			r.cur = nil
		}
		// Check before every chunk, as the serial fallback does on every
		// Read: the watcher that closes r.stop on cancellation can run late
		// while decoded slots keep arriving.
		if err := r.ctx.Err(); err != nil {
			r.err = err
			r.shutdown()
			return 0, r.err
		}
		slot, ok := <-r.slots
		if !ok { // only after Close or context cancellation
			if err := r.ctx.Err(); err != nil {
				r.err = err
				r.shutdown()
			} else {
				r.err = fmt.Errorf("compress: read after Close")
			}
			return 0, r.err
		}
		<-slot.ready
		if slot.err != nil {
			r.err = slot.err
			r.shutdown()
			return 0, r.err
		}
		r.cur = slot
		r.buf = slot.out
	}
	n := copy(p, r.buf)
	r.buf = r.buf[n:]
	return n, nil
}

func (r *ParallelReader) shutdown() {
	r.once.Do(func() { close(r.stop) })
	// Unblock any pending slots so the fetcher can exit, then wait for it;
	// only then is the pool quiescent (no more submits) and safe to close,
	// which drains every submitted slot. After shutdown returns, no
	// goroutines remain.
	go func() {
		for range r.slots {
		}
	}()
	r.wg.Wait()
	r.sched.close()
	r.finOnce.Do(func() { close(r.finished) })
}

// Close releases the read-ahead pool without consuming the rest of the
// stream. It is safe after EOF or an error, and idempotent.
func (r *ParallelReader) Close() error {
	if r.err == nil {
		r.err = fmt.Errorf("compress: read after Close")
	}
	if r.serial != nil {
		return nil
	}
	r.shutdown()
	return nil
}

var (
	_ io.WriteCloser = (*ParallelWriter)(nil)
	_ io.ReadCloser  = (*ParallelReader)(nil)
)
