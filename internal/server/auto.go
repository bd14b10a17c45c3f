package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"positbench/internal/compress"
	"positbench/internal/container"
	"positbench/internal/httpshell"
	"positbench/internal/trace"
)

// Auto-mode response headers: the decision's evidence, so a caller can see
// what was chosen and why without a second request.
const (
	headerAutoPipeline   = "X-Positd-Auto-Pipeline"
	headerAutoSource     = "X-Positd-Auto-Source"
	headerAutoConfidence = "X-Positd-Auto-Confidence"
	headerAutoFallback   = "X-Positd-Auto-Fallback"
)

// handleAuto is POST /v1/compress/auto: the advisor picks the codec from
// the stream's head, then the body streams through the chosen codec exactly
// like handleCompress. The sample is the head prefix (bounded by the
// advisor's budget) because the server must not buffer the body to reach
// later windows; the offline positadvise tool samples the whole file.
// ?hint=a,b restricts candidates; the chosen codec lands in X-Positd-Codec
// and the operation is accounted under the "auto" op so direct-compress
// metrics stay untouched.
func (s *Server) handleAuto(w http.ResponseWriter, r *http.Request) {
	if err := s.checkContentLength(r); err != nil {
		writeError(w, err)
		return
	}
	chunkSize, err := s.requestChunk(r)
	if err != nil {
		badParam(w, "chunk", err)
		return
	}
	workers, err := s.requestWorkers(r)
	if err != nil {
		badParam(w, "workers", err)
		return
	}
	var hints []string
	for _, raw := range r.URL.Query()["hint"] {
		hints = append(hints, strings.Split(raw, ",")...)
	}

	start := time.Now()
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)

	// The decision sample is the stream head: read up to the advisor's
	// budget, decide, then replay the prefix ahead of the rest of the body.
	prefix := make([]byte, s.advisor.SampleBytes())
	n, err := io.ReadFull(body, prefix)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		writeError(w, err)
		return
	}
	prefix = prefix[:n]

	dec, err := s.advisor.Decide(r.Context(), prefix, hints, trace.FromContext(r.Context()))
	if err != nil {
		badParam(w, "hint", err)
		return
	}
	codec, err := s.advisor.CodecFor(dec)
	if err != nil {
		writeError(w, err)
		return
	}

	cw := w.(*httpshell.Writer) // installed by shell on every route
	// See handleCompress: frames stream out while the body is still being
	// read, which needs full duplex on HTTP/1.
	_ = http.NewResponseController(w).EnableFullDuplex()
	w.Header().Set("Content-Type", contentTypeStream)
	w.Header().Set("X-Positd-Codec", dec.Codec)
	if dec.Pipeline != "" {
		w.Header().Set(headerAutoPipeline, dec.Pipeline)
	}
	w.Header().Set(headerAutoSource, dec.Source)
	w.Header().Set(headerAutoConfidence, fmt.Sprintf("%.3f", dec.Confidence))
	if dec.Fallback {
		w.Header().Set(headerAutoFallback, "true")
	}

	pw := compress.NewWriter(r.Context(), codec, w, chunkSize, workers)
	pw.SetIndexSink(container.NewIndexBuilder()) // auto streams are seekable too
	total, err := io.Copy(pw, io.MultiReader(bytes.NewReader(prefix), body))
	if err != nil {
		pw.CloseWithError(err)
		s.abortStream(cw, r, err)
		return
	}
	if err := pw.Close(); err != nil {
		s.abortStream(cw, r, err)
		return
	}
	s.metrics.recordCodec(dec.Codec, "auto", time.Since(start), total, cw.BytesOut())
}
