package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"

	"positbench/internal/compress"
	"positbench/internal/httpshell"
	"positbench/internal/sdrbench"
)

// HTTP mapping of the decode error taxonomy. Corruption in all its
// refinements is the client's fault (400); resource-limit trips are 413
// because the request entity — or what it inflates to — is too large for
// the policy in force; everything unrecognized is a 500.
//
//	ErrBadMagic / ErrVersion / ErrTruncated / ErrCorrupt -> 400
//	ErrLimitExceeded, body over cap                       -> 413
//	request deadline expired                              -> 408
//	client disconnected                                   -> 499 (logged only)

// statusFor triages an error into an HTTP status and a stable machine-
// readable kind. Order matters: the most specific sentinels are tested
// before their ErrCorrupt parent.
func statusFor(err error) (int, string) {
	var maxBytes *http.MaxBytesError
	switch {
	case errors.Is(err, compress.ErrLimitExceeded):
		return http.StatusRequestEntityTooLarge, "limit_exceeded"
	case errors.As(err, &maxBytes):
		return http.StatusRequestEntityTooLarge, "body_too_large"
	case errors.Is(err, compress.ErrBadMagic):
		return http.StatusBadRequest, "bad_magic"
	case errors.Is(err, compress.ErrVersion):
		return http.StatusBadRequest, "unsupported_version"
	case errors.Is(err, compress.ErrTruncated):
		return http.StatusBadRequest, "truncated"
	case errors.Is(err, compress.ErrCorrupt):
		return http.StatusBadRequest, "corrupt"
	case errors.Is(err, sdrbench.ErrEmptyInput):
		return http.StatusBadRequest, "empty_input"
	case errors.Is(err, sdrbench.ErrMisaligned):
		return http.StatusBadRequest, "misaligned_input"
	case errors.Is(err, sdrbench.ErrTooLarge):
		return http.StatusRequestEntityTooLarge, "body_too_large"
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, os.ErrDeadlineExceeded):
		return http.StatusRequestTimeout, "deadline_exceeded"
	case errors.Is(err, context.Canceled):
		return httpshell.StatusClientClosedRequest, "client_closed_request"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// writeError sends the JSON error body for err, triaged by statusFor.
func writeError(w http.ResponseWriter, err error) {
	status, kind := statusFor(err)
	httpshell.WriteError(w, status, kind, err.Error())
}

// badParam reports an unusable query parameter.
func badParam(w http.ResponseWriter, name string, err error) {
	httpshell.WriteError(w, http.StatusBadRequest, "bad_param", fmt.Sprintf("query parameter %q: %v", name, err))
}

// intParam parses an optional integer query parameter, returning def when
// absent.
func intParam(r *http.Request, name string, def int64) (int64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("not an integer: %q", raw)
	}
	return v, nil
}

// requestLimits resolves the decode limits for one request: the server's
// configured cap, lowered — never raised — by an explicit ?max_out=N.
func (s *Server) requestLimits(r *http.Request) (compress.DecodeLimits, error) {
	ceiling := s.cfg.MaxOutputBytes
	if ceiling <= 0 {
		ceiling = compress.DefaultMaxOutputBytes
	}
	maxOut, err := clampedInt64Param(r, "max_out", s.cfg.MaxOutputBytes, 1, ceiling)
	return compress.DecodeLimits{MaxOutputBytes: maxOut}, err
}

// requestWorkers resolves the worker-pool size for one request: the
// server's default, lowered — never raised — by ?workers=N.
func (s *Server) requestWorkers(r *http.Request) (int, error) {
	w, err := clampedInt64Param(r, "workers", int64(s.cfg.Workers), 1, int64(s.cfg.Workers))
	return int(w), err
}

// requestChunk resolves the streaming chunk size for one request,
// clamped to [minChunkSize, the server's configured size].
func (s *Server) requestChunk(r *http.Request) (int, error) {
	c, err := clampedInt64Param(r, "chunk", int64(s.cfg.ChunkSize), minChunkSize, int64(s.cfg.ChunkSize))
	return int(c), err
}

// minChunkSize stops a hostile ?chunk=1 from exploding a large body into
// millions of frames.
const minChunkSize = 4 << 10

// checkContentLength rejects declared-oversized bodies before any byte is
// read; chunked uploads (ContentLength < 0) are caught by the bounding
// reader instead.
func (s *Server) checkContentLength(r *http.Request) error {
	if r.ContentLength > s.cfg.MaxBodyBytes {
		return &http.MaxBytesError{Limit: s.cfg.MaxBodyBytes}
	}
	return nil
}
