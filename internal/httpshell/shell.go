// Package httpshell is the request shell and process lifecycle that positd
// and positgw share, so the two daemons cannot drift apart on either:
//
//   - Shell.Wrap, the outermost middleware on every route: the request-ID
//     policy, panic and abort handling, and one JSON access-log line per
//     request;
//   - WriteError, the JSON error body every non-2xx answer carries;
//   - WriteAddrFile and Serve, the addr-file handshake and the
//     SIGINT/SIGTERM drain.
//
// Each daemon keeps its own request accounting and reaches it through the
// finish callback given to New.
package httpshell

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Record is one structured access-log line. The daemon's finish callback
// sees the same record before it is written, so metrics and the log never
// disagree about a request.
type Record struct {
	Time      string `json:"ts"`
	RequestID string `json:"request_id"`
	Method    string `json:"method"`
	Path      string `json:"path"`
	Route     string `json:"route"`
	Status    int    `json:"status"`
	Duration  string `json:"dur"`
	BytesIn   int64  `json:"bytes_in"` // request body bytes the handler read
	BytesOut  int64  `json:"bytes_out"`
	Remote    string `json:"remote,omitempty"`
	// Aborted marks a response cut off mid-body with http.ErrAbortHandler:
	// the client never got a complete answer.
	Aborted bool `json:"aborted,omitempty"`
}

// Shell wraps every route of one daemon. Create with New.
type Shell struct {
	finish func(rec Record, elapsed time.Duration)
	mu     sync.Mutex // serializes access-log lines
	log    io.Writer
}

// New returns a Shell that writes its access log to accessLog (nil selects
// os.Stderr; io.Discard silences) and hands every finished request to
// finish, with its unrounded duration, before logging it.
func New(accessLog io.Writer, finish func(rec Record, elapsed time.Duration)) *Shell {
	if accessLog == nil {
		accessLog = os.Stderr
	}
	return &Shell{finish: finish, log: accessLog}
}

// Wrap returns next inside the shell for one route: the request ID is
// resolved, the handler gets a *Writer and a counted body, a panic becomes
// a 500 (the daemon keeps serving), and an http.ErrAbortHandler abort is
// accounted before net/http kills the connection.
func (s *Shell) Wrap(route string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &Writer{ResponseWriter: w}
		r = withRequestID(sw, r)
		body := &countingBody{ReadCloser: r.Body}
		r.Body = body
		defer func() {
			p := recover()
			aborted := p == http.ErrAbortHandler
			if p != nil && !aborted && !sw.wrote {
				WriteError(sw, http.StatusInternalServerError, "panic", "internal error")
			}
			s.done(route, sw, r, start, body.n.Load(), aborted)
			if aborted {
				panic(p)
			}
		}()
		next.ServeHTTP(sw, r)
	})
}

// done books one finished request with the daemon, then logs it.
func (s *Shell) done(route string, sw *Writer, r *http.Request, start time.Time, bytesIn int64, aborted bool) {
	status := sw.status
	if !sw.wrote {
		status = http.StatusOK // handler sent nothing; net/http will 200
	}
	elapsed := time.Since(start)
	rec := Record{
		Time:      start.UTC().Format(time.RFC3339Nano),
		RequestID: RequestID(r.Context()),
		Method:    r.Method,
		Path:      r.URL.Path,
		Route:     route,
		Status:    status,
		Duration:  elapsed.Round(time.Microsecond).String(),
		BytesIn:   bytesIn,
		BytesOut:  sw.bytes,
		Remote:    r.RemoteAddr,
		Aborted:   aborted,
	}
	s.finish(rec, elapsed)
	blob, err := json.Marshal(rec)
	if err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log.Write(append(blob, '\n'))
}

// Writer is the ResponseWriter every wrapped handler receives. It records
// the status and body bytes for the access log and the daemon's metrics,
// and lets streaming handlers know whether the status line is already on
// the wire.
type Writer struct {
	http.ResponseWriter
	status int
	bytes  int64
	wrote  bool
}

func (w *Writer) WriteHeader(status int) {
	if !w.wrote {
		w.wrote = true
		w.status = status
		w.ResponseWriter.WriteHeader(status)
	}
}

func (w *Writer) Write(p []byte) (int, error) {
	if !w.wrote {
		w.wrote = true
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush passes http.Flusher through so streamed responses are not held
// back by the wrapper.
func (w *Writer) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController, which
// deadlines and full-duplex streaming depend on.
func (w *Writer) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Wrote reports whether the status line has been sent.
func (w *Writer) Wrote() bool { return w.wrote }

// BytesOut is the number of body bytes written so far.
func (w *Writer) BytesOut() int64 { return w.bytes }

// countingBody counts the request body bytes the handler reads. The count
// is atomic because a proxy's transport may still be reading the body on
// its own goroutine when the handler returns.
type countingBody struct {
	io.ReadCloser
	n atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// Request IDs tie the observability surfaces together: the client sees
// X-Request-ID echoed on the response, the access log carries it per line,
// the trace ring keys each trace by it, and positgw forwards it, so both
// hops of a proxied request log the same ID. A well-formed inbound header
// is kept (so a caller can stitch the daemons into its own distributed
// trace); anything else gets a fresh random ID.

type ridKey struct{}

// maxRequestIDLen bounds what is accepted from the wire; longer IDs are
// replaced, not truncated, so an ID in the log always matches the client's.
const maxRequestIDLen = 64

// validRequestID accepts the unreserved URL characters, which covers
// UUIDs, ULIDs, and hex IDs while keeping log lines and JSON clean.
func validRequestID(id string) bool {
	if id == "" || len(id) > maxRequestIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.':
		default:
			return false
		}
	}
	return true
}

// newRequestID returns a 16-hex-char random ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "rid-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// withRequestID resolves r's ID, sets it on the request header (which a
// proxy forwards upstream) and the response, and stores it in the context.
func withRequestID(w http.ResponseWriter, r *http.Request) *http.Request {
	id := r.Header.Get("X-Request-ID")
	if !validRequestID(id) {
		id = newRequestID()
	}
	r.Header.Set("X-Request-ID", id)
	w.Header().Set("X-Request-ID", id)
	return r.WithContext(context.WithValue(r.Context(), ridKey{}, id))
}

// RequestID returns the ID the shell resolved for the request ctx belongs
// to, or "" outside the shell.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(ridKey{}).(string)
	return id
}

// ErrorBody is the JSON body of every non-2xx answer either daemon
// writes, so a client sees one error contract whichever hop answered.
type ErrorBody struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

// StatusClientClosedRequest is nginx's conventional status for a client
// that went away before the answer. It never reaches the wire but keeps
// logs and metrics honest about whose fault the abort was.
const StatusClientClosedRequest = 499

// WriteError sends status with an ErrorBody of kind and msg.
func WriteError(w http.ResponseWriter, status int, kind, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	blob, _ := json.Marshal(ErrorBody{Error: msg, Kind: kind})
	w.Write(append(blob, '\n'))
}
