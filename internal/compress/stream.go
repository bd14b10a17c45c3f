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

// The chunk engine: Writer and Reader wrap any block Codec in an
// io.WriteCloser / io.ReadCloser pair over a chunked container (uvarint
// compressed-chunk length prefixes, zero-length terminator), so
// multi-gigabyte files can be processed without holding them in memory.
//
// A chunk is one job at any worker count, and each of its steps is written
// once: compress (Writer.compress), emit (Writer.emit), read a frame
// (Reader.readChunk) and decompress (Reader.decompress). What the worker
// count decides is who runs them. With one worker, or on a one-CPU host
// (pool.Workers resolves both to 1), Write and Read run every step inline
// on buffers reused from chunk to chunk: a pool there could overlap
// nothing and would only add handoffs. Otherwise a pool.Pool runs the
// codec steps while one goroutine emits frames (writer) or fetches them
// (reader) in stream order.
//
// Ordering guarantee: on the pool, chunks are compressed out of order but
// frames are emitted strictly in submission order, so for a deterministic
// codec the output is byte-identical at every worker count.
//
// Memory bound: at most workers+1 chunks are in flight on either side (one
// filling/draining plus the pool's queue), so peak buffering is
// O(workers x chunkSize) plus the compressed copies of those same chunks.
//
// Scheduling: both engines run their chunks on a pool.Pool, one FIFO
// queue drained by a fixed set of workers. With at most workers+1 chunks
// pending, an idle worker always takes the oldest one, which is the chunk
// the in-order emitter or reader waits on next.
//
// Error semantics: the first error in stream order wins and is sticky;
// ErrCorrupt/ErrTruncated/ErrLimitExceeded surface identically at every
// worker count because every path shares the same frame parser and
// per-chunk decode call.

// DefaultChunkSize is the streaming granularity; large enough that the
// block codecs reach their full ratios, small enough to bound memory.
const DefaultChunkSize = 4 << 20

// enginePool is the pool.Pool the chunk engines run on,
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

// chunkJob is one chunk moving through the writer: src is the raw chunk,
// comp/err the compression result. On the pool, ready (capacity 1)
// receives one token when comp is set, and the emitter returns each
// emitted job, with its src and comp buffers, to the writer's free list,
// so steady-state compression reuses them. Inline, one job serves every
// chunk.
type chunkJob struct {
	src       []byte
	comp      []byte
	err       error
	ready     chan struct{}
	submitted time.Time   // when submit enqueued the job (queue-wait metric)
	span      *trace.Span // per-chunk span; nil when the stream is untraced
}

// Writer compresses a stream chunk by chunk, emitting frames in order. It
// is not safe for concurrent Write calls (like any io.Writer); any
// parallelism is internal.
type Writer struct {
	codec Codec
	dst   io.Writer
	chunk int
	ctx   context.Context

	span *trace.Span // request span from the context; parents the chunk spans
	seq  int         // chunk index, for span labels

	cur *chunkJob                   // chunk currently being filled by Write
	hdr [binary.MaxVarintLen64]byte // frame-header scratch for emit

	// The pool path; sched is nil when Write runs every chunk inline.
	order chan *chunkJob         // submission order; capacity bounds in-flight chunks
	free  chan *chunkJob         // emitted jobs, with their buffers, for Write to refill
	sched *enginePool[*chunkJob] // compressors
	done  chan struct{}          // closed when the emitter exits

	mu     sync.Mutex
	err    error
	closed bool

	// Index sink (opt-in). pos is the absolute stream offset of the next
	// frame. On the pool it is touched only by the emitter goroutine while
	// the stream flows and read by Close after <-w.done, which is the
	// happens-before edge that makes the handoff safe.
	sink IndexSink
	pos  int64
}

// NewWriter returns a streaming compressor writing to dst. chunkSize <= 0
// selects DefaultChunkSize; workers <= 0 selects runtime.GOMAXPROCS(0).
// With one worker, or on a one-CPU host, Write compresses each chunk
// inline; otherwise a pool of workers does. The output is byte-identical
// either way. Once ctx is cancelled, pending chunks are skipped instead of
// compressed and the context error becomes the writer's sticky error, so
// an abandoned request cannot leave a pool compressing for nobody. The
// chunk spans take their parent from trace.FromContext(ctx). Close must be
// called to terminate the stream and release the pool's goroutines.
func NewWriter(ctx context.Context, codec Codec, dst io.Writer, chunkSize, workers int) *Writer {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	w := &Writer{codec: codec, dst: dst, chunk: chunkSize, ctx: ctx, span: trace.FromContext(ctx)}
	if workers = pool.Workers(workers); workers > 1 {
		w.order = make(chan *chunkJob, workers)
		w.free = make(chan *chunkJob, workers+2)
		w.done = make(chan struct{})
		w.sched = startEnginePool(workers, w.runJob)
		go w.emitter()
	}
	return w
}

// SetIndexSink attaches sink to receive the frame layout as it is emitted;
// Close then appends the sink's trailer after the stream terminator. Call
// it before the first Write. A nil sink (the default) leaves the output
// byte-identical to an unindexed stream. On CloseWithError or context
// cancellation no trailer is written — a poisoned stream must not grow a
// tail that makes it look seekable.
func (w *Writer) SetIndexSink(sink IndexSink) { w.sink = sink }

// compress is a chunk's first step: it compresses job.src into job.comp,
// or records the context error instead once ctx is cancelled.
func (w *Writer) compress(job *chunkJob) {
	if err := w.ctx.Err(); err != nil {
		job.err = err
		return
	}
	t0 := time.Now()
	cs := job.span.Child("compress")
	job.comp, job.err = CompressAppendTrace(w.codec, job.comp[:0], job.src, cs)
	cs.SetBytes(int64(len(job.src)), int64(len(job.comp)))
	cs.End()
	engine.compressBusyNS.Add(int64(time.Since(t0)))
	if job.err == nil {
		engine.compressChunks.Add(1)
		engine.compressBytesIn.Add(int64(len(job.src)))
		engine.compressBytesOut.Add(int64(len(job.comp)))
	}
}

// emit is a compressed chunk's last step, run in stream order. Unless the
// stream is already poisoned it writes the chunk's frame and records it in
// the index sink, making the chunk's error or the write's sticky; either
// way it ends the chunk span and empties job.src for the next chunk. It
// returns the stream's error, nil while the stream is healthy.
func (w *Writer) emit(job *chunkJob) error {
	err := w.firstErr()
	if err == nil {
		if err = job.err; err == nil {
			var t0 time.Time
			if job.span != nil {
				t0 = time.Now()
			}
			var n int64
			n, err = writeFrame(w.dst, w.hdr[:], job.comp)
			if job.span != nil {
				job.span.AddStage("frame-write", time.Since(t0), 0, int64(len(job.comp)))
			}
			if err == nil {
				w.pos += n
				if w.sink != nil {
					w.sink.AddChunk(w.pos-int64(len(job.comp)), job.comp, len(job.src))
				}
			}
		}
		w.setErr(err)
	}
	endChunk(job.span, job.err, len(job.src), len(job.comp))
	job.src, job.err, job.span = job.src[:0], nil, nil
	return err
}

// runJob runs a chunk's compress step on a pool worker.
func (w *Writer) runJob(worker int, job *chunkJob) {
	engine.queueDepth.Add(-1)
	wait := time.Since(job.submitted)
	engine.queueWaitNS.Add(int64(wait))
	job.span.AddStage("queue-wait", wait, 0, 0)
	if job.span != nil {
		job.span.Annotate("worker", strconv.Itoa(worker))
	}
	engine.workersBusy.Add(1)
	w.compress(job)
	engine.workersBusy.Add(-1)
	job.ready <- struct{}{}
}

// emitter runs emit on the pool's chunks in submission order. After the
// first error it keeps draining so blocked producers and compressors
// always make progress, but emits nothing further.
func (w *Writer) emitter() {
	defer close(w.done)
	for job := range w.order {
		<-job.ready
		w.emit(job)
		recycle(w.free, job)
	}
}

// The free lists. At most workers+2 jobs (or slots) exist on the pool
// path: workers queued in order (or slots), one held by the emitter (or
// the fetcher) and one being filled by Write (or drained by Read). So a
// free list of that capacity takes back every one of them, and after the
// first workers+2 chunks take never allocates. A sync.Pool would miss
// now and then: its Put runs on the emitter's or Read's P and its Get on
// another goroutine's, and a miss costs an allocation per buffer.

// take returns an item from free, or a new one when free is empty (or
// nil, on the inline path).
func take[T any](free chan *T, fresh func() *T) *T {
	select {
	case x := <-free:
		return x
	default:
		return fresh()
	}
}

// recycle returns x to free without blocking.
func recycle[T any](free chan *T, x *T) {
	select {
	case free <- x:
	default:
	}
}

func newJob() *chunkJob   { return &chunkJob{ready: make(chan struct{}, 1)} }
func newSlot() *chunkSlot { return &chunkSlot{ready: make(chan struct{}, 1)} }

// endChunk ends a chunk span with its byte counts, noting err when the
// chunk failed. A nil span (untraced stream) costs one branch.
func endChunk(sp *trace.Span, err error, in, out int) {
	if sp == nil {
		return
	}
	if err != nil {
		sp.Annotate("error", err.Error())
	}
	sp.SetBytes(int64(in), int64(out))
	sp.End()
}

// writeFrame emits one chunk frame: uvarint(len+1) then the payload,
// returning the total bytes written so the writer can track absolute frame
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

func (w *Writer) setErr(err error) {
	if err == nil {
		return
	}
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
}

func (w *Writer) firstErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Write implements io.Writer. A compression, write or sink error from an
// earlier chunk surfaces on the next Write (or at Close) and is sticky.
func (w *Writer) Write(p []byte) (int, error) {
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
	total := len(p)
	for len(p) > 0 {
		if w.cur == nil {
			w.cur = take(w.free, newJob)
		}
		room := w.chunk - len(w.cur.src)
		if room > len(p) {
			room = len(p)
		}
		w.cur.src = append(w.cur.src, p[:room]...)
		p = p[room:]
		if len(w.cur.src) == w.chunk {
			if err := w.submit(); err != nil {
				return total - len(p), err
			}
		}
	}
	return total, nil
}

// submit hands the current chunk on. Inline, it runs the chunk's steps
// here and keeps the job, buffers and all, for the next chunk, returning
// the sticky error. On the pool, sending on order first preserves emission
// order, and its capacity is the back-pressure bound; an error surfaces on
// a later Write or at Close.
func (w *Writer) submit() error {
	job := w.cur
	if w.span.Enabled() {
		job.span = w.span.Child("chunk")
		job.span.Annotate("idx", strconv.Itoa(w.seq))
	}
	w.seq++
	if w.sched == nil {
		w.compress(job)
		return w.emit(job)
	}
	w.cur = nil
	job.submitted = time.Now()
	w.order <- job
	engine.queueDepth.Add(1)
	w.sched.submit(job)
	return nil
}

// Close flushes the final chunk, waits for the pool to drain, writes the
// stream terminator, and releases all goroutines. It is idempotent. On a
// poisoned writer (CloseWithError, an earlier failure or a cancelled
// context) neither the pending partial chunk nor the terminator is
// emitted.
func (w *Writer) Close() error {
	if w.closed {
		return w.firstErr()
	}
	w.closed = true
	if w.cur != nil && len(w.cur.src) > 0 && w.firstErr() == nil {
		w.submit() // its error is sticky: firstErr below returns it
	}
	if w.sched != nil {
		close(w.order)
		w.sched.close()
		<-w.done
	}
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
func (w *Writer) CloseWithError(err error) error {
	if err == nil {
		return w.Close()
	}
	w.setErr(err)
	return w.Close()
}

// chunkSlot is one chunk moving through the reader, in stream order. On
// the pool, ready (capacity 1) receives one token when out is resolved,
// and Read returns each slot it has fully drained, with its comp and out
// buffers, to the reader's free list, so steady-state streaming reuses
// both. Inline, one slot serves every chunk.
type chunkSlot struct {
	comp    []byte
	out     []byte
	err     error // io.EOF marks the clean end of stream
	ready   chan struct{}
	fetched time.Time   // when the fetcher enqueued the slot (queue-wait metric)
	span    *trace.Span // per-chunk span; nil when the stream is untraced
}

// Reader decompresses a stream produced by Writer, returning bytes
// strictly in stream order. On the pool, frames are fetched and
// decompressed ahead of Read. It is not safe for concurrent Read calls;
// any parallelism is internal.
type Reader struct {
	codec Codec
	src   *bufio.Reader // read by Read inline, by the fetcher on the pool
	lim   DecodeLimits
	ctx   context.Context
	span  *trace.Span // request span from the context; parents the chunk spans
	seq   int         // chunk index, for span labels

	buf []byte
	cur *chunkSlot // slot whose out buffer buf aliases; recycled when drained
	err error

	// The pool path; sched is nil when Read runs every chunk inline.
	slots    chan *chunkSlot         // stream order; capacity bounds the read-ahead
	free     chan *chunkSlot         // drained slots, with their buffers, for the fetcher
	sched    *enginePool[*chunkSlot] // decompressors
	stop     chan struct{}
	once     sync.Once
	finished chan struct{} // closed once the pool has fully drained
	finOnce  sync.Once
	wg       sync.WaitGroup // the fetcher; pool workers have their own
}

// NewReader returns a streaming decompressor over src that enforces lim
// on every chunk: a tampered chunk-length prefix cannot trigger an
// allocation past the limits, and each chunk decompresses under them. The
// codec must match the one used for writing. workers <= 0 selects
// runtime.GOMAXPROCS(0); with one worker, or on a one-CPU host, Read
// decodes each chunk inline, and otherwise a read-ahead pool does. Once
// ctx is cancelled, Read surfaces the context error and the pool's
// goroutines exit without waiting for EOF. The chunk spans take their
// parent from trace.FromContext(ctx). The reader shuts its pool down on
// EOF or first error; call Close to release it early when abandoning a
// stream mid-read.
func NewReader(ctx context.Context, codec Codec, src io.Reader, lim DecodeLimits, workers int) *Reader {
	r := &Reader{codec: codec, src: bufio.NewReader(src), lim: lim, ctx: ctx, span: trace.FromContext(ctx)}
	if workers = pool.Workers(workers); workers == 1 {
		r.cur = &chunkSlot{}
		return r
	}
	r.slots = make(chan *chunkSlot, workers)
	r.free = make(chan *chunkSlot, workers+2)
	r.stop = make(chan struct{})
	r.finished = make(chan struct{})
	r.sched = startEnginePool(workers, r.runSlot)
	r.wg.Add(1)
	go r.fetch()
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

// readChunk is a chunk's first step: it reads the next frame into
// slot.comp and opens the chunk span. It reports false at the end of the
// stream, with slot.err set to io.EOF at the terminator or to the frame
// error (truncation, limit trip, I/O error).
func (r *Reader) readChunk(slot *chunkSlot) bool {
	slot.err, slot.span = nil, nil
	var t0 time.Time
	if r.span.Enabled() {
		t0 = time.Now()
	}
	comp, err := readFrameInto(r.src, r.lim, slot.comp[:0])
	if err != nil || comp == nil {
		if err == nil {
			err = io.EOF // clean terminator
		}
		slot.err = err
		return false
	}
	slot.comp = comp
	if r.span.Enabled() {
		slot.span = r.span.Child("chunk")
		slot.span.Annotate("idx", strconv.Itoa(r.seq))
		slot.span.AddStage("frame-read", time.Since(t0), int64(len(comp)), 0)
	}
	r.seq++
	return true
}

// decompress is a chunk's last step: it decodes slot.comp into slot.out
// under the reader's limits and ends the chunk span.
func (r *Reader) decompress(slot *chunkSlot) {
	t0 := time.Now()
	ds := slot.span.Child("decompress")
	slot.out, slot.err = DecompressAppendLimitsTrace(r.codec, slot.out[:0], slot.comp, r.lim, ds)
	ds.SetBytes(int64(len(slot.comp)), int64(len(slot.out)))
	ds.End()
	engine.decompressBusyNS.Add(int64(time.Since(t0)))
	if slot.err == nil {
		engine.decompressChunks.Add(1)
		engine.decompressBytesIn.Add(int64(len(slot.comp)))
		engine.decompressBytesOut.Add(int64(len(slot.out)))
	}
	endChunk(slot.span, slot.err, len(slot.comp), len(slot.out))
}

// fetch runs readChunk in stream order on the pool path, queueing each
// chunk for decompression. The terminal condition travels as a final
// pre-resolved slot so Read surfaces it after every earlier chunk.
func (r *Reader) fetch() {
	defer r.wg.Done()
	defer close(r.slots)
	for {
		slot := take(r.free, newSlot)
		more := r.readChunk(slot)
		if more {
			slot.fetched = time.Now()
		} else {
			slot.ready <- struct{}{}
		}
		select {
		case r.slots <- slot:
		case <-r.stop:
			return
		}
		if !more {
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

// runSlot runs a chunk's decompress step on a pool worker.
func (r *Reader) runSlot(worker int, slot *chunkSlot) {
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
		endChunk(slot.span, slot.err, len(slot.comp), 0)
	default:
		engine.workersBusy.Add(1)
		r.decompress(slot)
		engine.workersBusy.Add(-1)
	}
	slot.ready <- struct{}{}
}

// readFrameInto reads one chunk frame into buf (reusing its capacity),
// returning the compressed payload or (nil, nil) at the stream terminator.
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
	if buf == nil {
		buf = []byte{} // nil means the terminator; an empty body is a chunk
	}
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

// closedErr is the error of a chunk that raced pool shutdown: the context
// error when cancellation triggered it, a generic message when Close did.
func (r *Reader) closedErr() error {
	if err := r.ctx.Err(); err != nil {
		return err
	}
	return fmt.Errorf("compress: reader closed")
}

// Read implements io.Reader. The first error in stream order is sticky and
// shuts the pool down; a clean end of stream returns io.EOF likewise.
func (r *Reader) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	for len(r.buf) == 0 {
		// Check before every chunk: on the pool the watcher that closes
		// r.stop on cancellation can run late while decoded slots keep
		// arriving.
		if err := r.ctx.Err(); err != nil {
			return 0, r.fail(err)
		}
		if r.sched == nil {
			// Inline: the previous chunk is fully drained, so its buffers
			// are free for this one. Callers only ever saw copies.
			if r.readChunk(r.cur) {
				r.decompress(r.cur)
			}
		} else {
			if r.cur != nil {
				// The previous chunk is fully drained; its buffers go back
				// to the fetcher for reuse.
				recycle(r.free, r.cur)
				r.cur = nil
			}
			slot, ok := <-r.slots
			if !ok { // only after Close or context cancellation
				err := r.ctx.Err()
				if err == nil {
					err = fmt.Errorf("compress: read after Close")
				}
				return 0, r.fail(err)
			}
			<-slot.ready
			r.cur = slot
		}
		if r.cur.err != nil {
			return 0, r.fail(r.cur.err)
		}
		r.buf = r.cur.out
	}
	n := copy(p, r.buf)
	r.buf = r.buf[n:]
	return n, nil
}

// fail makes err the reader's sticky error and releases the pool.
func (r *Reader) fail(err error) error {
	r.err = err
	r.shutdown()
	return err
}

func (r *Reader) shutdown() {
	if r.sched == nil {
		return
	}
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
func (r *Reader) Close() error {
	if r.err == nil {
		r.err = fmt.Errorf("compress: read after Close")
	}
	r.shutdown()
	return nil
}

var (
	_ io.WriteCloser = (*Writer)(nil)
	_ io.ReadCloser  = (*Reader)(nil)
)
