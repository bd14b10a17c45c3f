package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"positbench/internal/compress"
	"positbench/internal/container"
	"positbench/internal/httpshell"
	"positbench/internal/trace"
)

// The object tier: positd can hold named compressed objects and serve
// random-access reads out of them. PUT /v1/objects/{key} ingests a
// compressed stream (or a bare container frame), validates its index
// trailer once, and pins the parsed index next to the bytes;
// GET /v1/read/{key} then maps an HTTP Range (or explicit ?off=&len=)
// onto the minimal chunk set, decodes only those chunks through the
// shared content-addressed cache, and answers 206/416/200 with the
// standard semantics. A v1 object (no trailer) stays readable — range
// requests on it fall back to a full 200 sequential decode, never an
// error.

// maxObjectKeyLen bounds object key length; the charset is the URL-safe
// subset validated by validObjectKey.
const maxObjectKeyLen = 128

// validObjectKey accepts [a-zA-Z0-9._-]{1,128}: path-safe, log-safe,
// header-safe.
func validObjectKey(key string) bool {
	if key == "" || len(key) > maxObjectKeyLen {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.':
		default:
			return false
		}
	}
	return true
}

// storedObject is one ingested object: the compressed bytes exactly as
// uploaded, plus everything validated once at PUT time so reads never
// re-parse.
type storedObject struct {
	key   string
	data  []byte
	codec string
	bare  bool             // a single container frame, not a chunked stream
	index *container.Index // non-nil only for indexed (v2) streams
}

// objectStore is the bounded in-memory object tier. Overwrites of an
// existing key are allowed and re-accounted; past the byte budget a PUT
// is refused with 507 rather than evicting — objects are explicit state,
// not cache.
type objectStore struct {
	mu    sync.Mutex
	max   int64
	bytes int64
	objs  map[string]*storedObject

	puts         atomic.Int64
	putRejected  atomic.Int64
	reads        atomic.Int64 // GET /v1/read answered 2xx
	rangeReads   atomic.Int64 // of those, 206 partials
	fullReads    atomic.Int64 // of those, 200 whole-object
	fallbackSeq  atomic.Int64 // reads served by sequential fallback (no trailer)
	unsatisfied  atomic.Int64 // 416s
	bytesServed  atomic.Int64 // decoded bytes handed to read clients
	bytesFetched atomic.Int64 // compressed bytes range reads touched
}

func newObjectStore(maxBytes int64) *objectStore {
	return &objectStore{max: maxBytes, objs: make(map[string]*storedObject)}
}

// put inserts or replaces an object, enforcing the byte budget.
func (st *objectStore) put(obj *storedObject) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	next := st.bytes + int64(len(obj.data))
	if prev, ok := st.objs[obj.key]; ok {
		next -= int64(len(prev.data))
	}
	if next > st.max {
		st.putRejected.Add(1)
		return fmt.Errorf("store full: %d bytes resident + %d incoming exceeds the %d budget",
			st.bytes, len(obj.data), st.max)
	}
	st.objs[obj.key] = obj
	st.bytes = next
	st.puts.Add(1)
	return nil
}

func (st *objectStore) get(key string) (*storedObject, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	obj, ok := st.objs[key]
	return obj, ok
}

// objectStoreStats is the /metrics object_store section.
type objectStoreStats struct {
	Objects         int64 `json:"objects"`
	Bytes           int64 `json:"bytes_resident"`
	MaxBytes        int64 `json:"max_bytes"`
	Puts            int64 `json:"puts"`
	PutRejected     int64 `json:"put_rejected_507"`
	Reads           int64 `json:"reads"`
	RangeReads      int64 `json:"range_reads_206"`
	FullReads       int64 `json:"full_reads_200"`
	SequentialReads int64 `json:"sequential_fallback_reads"`
	Unsatisfiable   int64 `json:"unsatisfiable_416"`
	BytesServed     int64 `json:"bytes_served"`
	BytesFetched    int64 `json:"compressed_bytes_fetched"`
}

func (st *objectStore) snapshot() objectStoreStats {
	st.mu.Lock()
	objects, bytes := int64(len(st.objs)), st.bytes
	st.mu.Unlock()
	return objectStoreStats{
		Objects:         objects,
		Bytes:           bytes,
		MaxBytes:        st.max,
		Puts:            st.puts.Load(),
		PutRejected:     st.putRejected.Load(),
		Reads:           st.reads.Load(),
		RangeReads:      st.rangeReads.Load(),
		FullReads:       st.fullReads.Load(),
		SequentialReads: st.fallbackSeq.Load(),
		Unsatisfiable:   st.unsatisfied.Load(),
		BytesServed:     st.bytesServed.Load(),
		BytesFetched:    st.bytesFetched.Load(),
	}
}

// objectMeta is the JSON document PUT returns (201) and GET
// /v1/objects/{key} serves: what one validated ingest learned.
type objectMeta struct {
	Key        string `json:"key"`
	Bytes      int64  `json:"bytes"`
	Codec      string `json:"codec"`
	Indexed    bool   `json:"indexed"`
	Bare       bool   `json:"bare_frame,omitempty"`
	Chunks     int    `json:"chunks,omitempty"`
	RawLen     int64  `json:"raw_len,omitempty"`
	TrailerLen int64  `json:"trailer_len,omitempty"`
}

func metaFor(obj *storedObject) objectMeta {
	m := objectMeta{
		Key:     obj.key,
		Bytes:   int64(len(obj.data)),
		Codec:   obj.codec,
		Indexed: obj.index != nil,
		Bare:    obj.bare,
	}
	if obj.index != nil {
		m.Chunks = len(obj.index.Chunks)
		m.RawLen = obj.index.RawLen
		m.TrailerLen = obj.index.TrailerLen
	}
	return m
}

// handlePutObject ingests one compressed object. The trailer is parsed
// and fully validated here, once: a corrupt index is rejected at the door
// (400) instead of haunting every future read, and a trailer-less v1
// stream is accepted with the sequential-fallback flag pinned in its
// metadata.
func (s *Server) handlePutObject(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validObjectKey(key) {
		httpshell.WriteError(w, http.StatusBadRequest, "bad_key",
			fmt.Sprintf("object key %q: want 1-%d chars of [a-zA-Z0-9._-]", key, maxObjectKeyLen))
		return
	}
	if err := s.checkContentLength(r); err != nil {
		writeError(w, err)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		writeError(w, err)
		return
	}
	if len(data) == 0 {
		httpshell.WriteError(w, http.StatusBadRequest, "empty_object", "refusing to store an empty object")
		return
	}

	name, bare, err := container.Sniff(data)
	if err != nil {
		writeError(w, err)
		return
	}
	if _, ok := s.codec(name); !ok {
		httpshell.WriteError(w, http.StatusBadRequest, "unknown_codec",
			fmt.Sprintf("object names codec %q, registry has %v", name, s.names))
		return
	}
	obj := &storedObject{key: key, data: data, codec: name, bare: bare}
	if !bare {
		ix, err := container.ParseTrailer(bytes.NewReader(data), int64(len(data)))
		switch {
		case err == nil:
			obj.index = ix
		case errors.Is(err, container.ErrNoTrailer):
			// A v1 stream: store it, reads fall back to sequential decode.
		default:
			// A trailer is present but lies; reject now, while the client
			// can still tell which upload was bad.
			writeError(w, err)
			return
		}
	}
	if err := s.store.put(obj); err != nil {
		httpshell.WriteError(w, http.StatusInsufficientStorage, "store_full", err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	json.NewEncoder(w).Encode(metaFor(obj))
}

// handleStatObject serves the stored metadata for one object.
func (s *Server) handleStatObject(w http.ResponseWriter, r *http.Request) {
	obj, ok := s.store.get(r.PathValue("key"))
	if !ok {
		httpshell.WriteError(w, http.StatusNotFound, "unknown_object",
			fmt.Sprintf("no object %q", r.PathValue("key")))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if obj.index != nil {
		w.Header().Set("Accept-Ranges", "bytes")
	}
	json.NewEncoder(w).Encode(metaFor(obj))
}

// readWindow is one resolved byte window over an object's decoded space.
type readWindow struct {
	off    int64
	length int64 // -1 means "to end"
	ranged bool  // a range was requested (header or params)
}

// resolveWindow interprets ?off=&len= (which take precedence) or a Range
// header. Returns the window, or an unsatisfiable marker (ok=false), or a
// client error.
func resolveWindow(r *http.Request, size int64) (win readWindow, ok bool, err error) {
	q := r.URL.Query()
	if q.Get("off") != "" || q.Get("len") != "" {
		off, perr := intParam(r, "off", 0)
		if perr != nil {
			return win, false, fmt.Errorf("query parameter \"off\": %w", perr)
		}
		length, perr := intParam(r, "len", -1)
		if perr != nil {
			return win, false, fmt.Errorf("query parameter \"len\": %w", perr)
		}
		if off < 0 {
			return win, false, fmt.Errorf("query parameter \"off\": negative offset %d", off)
		}
		if q.Get("len") != "" && length <= 0 {
			return win, false, fmt.Errorf("query parameter \"len\": want a positive length, got %d", length)
		}
		if off >= size {
			return win, false, nil // unsatisfiable
		}
		return readWindow{off: off, length: length, ranged: true}, true, nil
	}
	return resolveRangeHeader(r.Header.Get("Range"), size)
}

// resolveRangeHeader parses a single-range `bytes=` header (RFC 9110
// §14.1.2: a-b, a-, -n). Malformed or multi-range headers are ignored —
// the RFC lets a server serve the whole representation — so only a
// well-formed range that misses the object entirely is unsatisfiable.
func resolveRangeHeader(hdr string, size int64) (win readWindow, ok bool, err error) {
	spec, found := strings.CutPrefix(hdr, "bytes=")
	if !found || strings.Contains(spec, ",") {
		return readWindow{length: -1}, true, nil
	}
	lo, hi, found := strings.Cut(strings.TrimSpace(spec), "-")
	if !found {
		return readWindow{length: -1}, true, nil
	}
	if lo == "" { // suffix form: last n bytes
		n, perr := strconv.ParseInt(hi, 10, 64)
		if perr != nil || n < 0 {
			return readWindow{length: -1}, true, nil
		}
		if n == 0 {
			return win, false, nil // "bytes=-0" names no byte
		}
		off := size - n
		if off < 0 {
			off = 0
		}
		return readWindow{off: off, length: -1, ranged: true}, true, nil
	}
	start, perr := strconv.ParseInt(lo, 10, 64)
	if perr != nil || start < 0 {
		return readWindow{length: -1}, true, nil
	}
	if start >= size {
		return win, false, nil
	}
	if hi == "" {
		return readWindow{off: start, length: -1, ranged: true}, true, nil
	}
	end, perr := strconv.ParseInt(hi, 10, 64)
	if perr != nil || end < start {
		return readWindow{length: -1}, true, nil
	}
	return readWindow{off: start, length: end - start + 1, ranged: true}, true, nil
}

// handleRead serves decoded bytes out of a stored object. Indexed objects
// honor Range/?off=&len= with 206/416 semantics and decode only the
// overlapping chunks through the shared chunk cache; objects without an
// index answer every read with a full 200 sequential decode.
func (s *Server) handleRead(w http.ResponseWriter, r *http.Request) {
	obj, ok := s.store.get(r.PathValue("key"))
	if !ok {
		httpshell.WriteError(w, http.StatusNotFound, "unknown_object",
			fmt.Sprintf("no object %q", r.PathValue("key")))
		return
	}
	codec, ok := s.codec(obj.codec)
	if !ok {
		httpshell.WriteError(w, http.StatusBadRequest, "unknown_codec",
			fmt.Sprintf("object was stored with codec %q, registry has %v", obj.codec, s.names))
		return
	}
	lim, err := s.requestLimits(r)
	if err != nil {
		badParam(w, "max_out", err)
		return
	}
	workers, err := s.requestWorkers(r)
	if err != nil {
		badParam(w, "workers", err)
		return
	}
	cw := w.(*httpshell.Writer)
	start := time.Now()

	if obj.index == nil {
		s.readSequential(cw, r, obj, codec, lim, workers, start)
		return
	}

	win, satisfiable, err := resolveWindow(r, obj.index.RawLen)
	if err != nil {
		httpshell.WriteError(w, http.StatusBadRequest, "bad_param", err.Error())
		return
	}
	if !satisfiable {
		s.store.unsatisfied.Add(1)
		w.Header().Set("Content-Range", fmt.Sprintf("bytes */%d", obj.index.RawLen))
		httpshell.WriteError(w, http.StatusRequestedRangeNotSatisfiable, "unsatisfiable_range",
			fmt.Sprintf("requested window misses the %d-byte object", obj.index.RawLen))
		return
	}

	ra := container.NewReaderAtIndex(bytes.NewReader(obj.data), obj.index, codec, container.ReaderAtOptions{
		Limits: lim,
		Cache:  s.chunkCache,
	})
	rr, err := ra.Range(win.off, win.length)
	if err != nil {
		writeError(w, err)
		return
	}
	// The window end after clamping, mirroring what Range() resolved.
	last := obj.index.RawLen
	if win.length >= 0 && win.off+win.length < last {
		last = win.off + win.length
	}

	sp := trace.FromContext(r.Context()).Child("range-read")
	sp.Annotate("key", obj.key)
	sp.Annotate("off", strconv.FormatInt(win.off, 10))
	sp.Annotate("len", strconv.FormatInt(last-win.off, 10))

	w.Header().Set("Content-Type", contentTypeBinary)
	w.Header().Set("X-Positd-Codec", obj.codec)
	w.Header().Set("Accept-Ranges", "bytes")
	w.Header().Set("Content-Length", strconv.FormatInt(last-win.off, 10))
	if win.ranged {
		w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", win.off, last-1, obj.index.RawLen))
		w.WriteHeader(http.StatusPartialContent)
	}
	n, err := io.Copy(w, rr)
	sp.Annotate("chunks", strconv.Itoa(rr.Chunks()))
	sp.Annotate("cache_hits", strconv.Itoa(rr.CacheHits()))
	sp.SetBytes(rr.CompBytes(), n)
	sp.End()
	if err != nil {
		s.abortStream(cw, r, err)
		return
	}
	s.store.reads.Add(1)
	if win.ranged {
		s.store.rangeReads.Add(1)
	} else {
		s.store.fullReads.Add(1)
	}
	s.store.bytesServed.Add(n)
	s.store.bytesFetched.Add(rr.CompBytes())
	s.metrics.recordCodec(obj.codec, "read", time.Since(start), rr.CompBytes(), n)
}

// readSequential is the fallback for objects without an index trailer:
// every read — ranged or not — decodes the whole object front to back and
// answers 200, the pinned v1 contract.
func (s *Server) readSequential(cw *httpshell.Writer, r *http.Request, obj *storedObject, codec compress.Codec, lim compress.DecodeLimits, workers int, start time.Time) {
	sp := trace.FromContext(r.Context()).Child("range-read")
	sp.Annotate("key", obj.key)
	sp.Annotate("fallback", "sequential")
	defer sp.End()

	cw.Header().Set("Content-Type", contentTypeBinary)
	cw.Header().Set("X-Positd-Codec", obj.codec)
	var n int64
	var err error
	if obj.bare {
		out, derr := compress.DecompressLimits(codec, obj.data, lim)
		if derr != nil {
			writeError(cw, derr)
			return
		}
		wn, werr := cw.Write(out)
		n, err = int64(wn), werr
	} else {
		pr := compress.NewReader(r.Context(), codec, bytes.NewReader(obj.data), lim, workers)
		defer pr.Close()
		n, err = io.Copy(cw, pr)
	}
	sp.SetBytes(int64(len(obj.data)), n)
	if err != nil {
		s.abortStream(cw, r, err)
		return
	}
	s.store.reads.Add(1)
	s.store.fullReads.Add(1)
	s.store.fallbackSeq.Add(1)
	s.store.bytesServed.Add(n)
	s.metrics.recordCodec(obj.codec, "read", time.Since(start), int64(len(obj.data)), n)
}
