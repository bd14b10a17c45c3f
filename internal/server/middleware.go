package server

import (
	"context"
	"net/http"
	"strconv"
	"time"

	"positbench/internal/httpshell"
)

// admit applies the bounded admission semaphore: requests beyond
// MaxInflight are shed immediately with 429 + Retry-After rather than
// queued, so saturation produces fast, explicit feedback instead of
// timeout pile-ups.
func (s *Server) admit(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
			s.metrics.inflight.Add(1)
			defer s.metrics.inflight.Add(-1)
			next.ServeHTTP(w, r)
		default:
			s.metrics.rejected.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
			httpshell.WriteError(w, http.StatusTooManyRequests, "saturated",
				"server is at its in-flight request limit")
		}
	})
}

// retryAfterSeconds is the back-off hint on 429 responses.
const retryAfterSeconds = 1

// writeDeadlineSlack keeps the connection writable briefly after the read
// deadline fires, long enough to flush an error body.
const writeDeadlineSlack = 5 * time.Second

// deadline bounds the request end to end: the context deadline cancels
// worker pools (compress.NewWriter and compress.NewReader), and the
// connection read deadline unblocks handlers stuck in Body.Read on a
// stalled client.
func (s *Server) deadline(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.RequestTimeout <= 0 {
			next.ServeHTTP(w, r)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		// Best-effort: httptest and HTTP/1 support read deadlines; if the
		// transport does not, the context still bounds pool work. The write
		// deadline gets headroom past the read deadline so the error response
		// for a stalled upload can still reach the client.
		rc := http.NewResponseController(w)
		_ = rc.SetReadDeadline(time.Now().Add(s.cfg.RequestTimeout))
		_ = rc.SetWriteDeadline(time.Now().Add(s.cfg.RequestTimeout + writeDeadlineSlack))
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}
