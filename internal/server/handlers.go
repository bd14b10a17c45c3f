package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"time"

	"positbench/internal/compress"
	"positbench/internal/container"
	"positbench/internal/httpshell"
	"positbench/internal/ieee"
	"positbench/internal/posit"
	"positbench/internal/sdrbench"
)

// Content types for the two wire formats the data plane speaks.
const (
	// contentTypeStream is the chunked stream: uvarint-framed container
	// frames with a zero terminator, exactly what compress.Writer emits.
	contentTypeStream = "application/x-positbench-stream"
	contentTypeBinary = "application/octet-stream"
)

// handleCompress streams the request body through the named codec's
// chunk engine. The response never buffers whole: frames go out
// as chunks complete, in order.
func (s *Server) handleCompress(w http.ResponseWriter, r *http.Request) {
	codec, ok := s.codec(r.PathValue("codec"))
	if !ok {
		httpshell.WriteError(w, http.StatusNotFound, "unknown_codec",
			fmt.Sprintf("unknown codec %q (have %v)", r.PathValue("codec"), s.names))
		return
	}
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

	start := time.Now()
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	cw := w.(*httpshell.Writer) // installed by shell on every route
	// The handler reads the body while frames stream out; HTTP/1 closes the
	// request body on first response write unless full duplex is on.
	_ = http.NewResponseController(w).EnableFullDuplex()
	w.Header().Set("Content-Type", contentTypeStream)
	w.Header().Set("X-Positd-Codec", codec.Name())

	pw := compress.NewWriter(r.Context(), codec, w, chunkSize, workers)
	// Every compressed stream leaves with a seek-index trailer: ~35 bytes
	// per chunk buys clients random access via PUT /v1/objects +
	// GET /v1/read, and v1 readers never see it (it sits past the stream
	// terminator).
	pw.SetIndexSink(container.NewIndexBuilder())
	n, err := io.Copy(pw, body)
	if err != nil {
		// Poison before Close so the partial tail chunk is not flushed: if
		// no frame is out yet this keeps the response clean for a proper
		// error status.
		pw.CloseWithError(err)
		s.abortStream(cw, r, err)
		return
	}
	if err := pw.Close(); err != nil {
		s.abortStream(cw, r, err)
		return
	}
	s.metrics.recordCodec(codec.Name(), "compress", time.Since(start), n, cw.BytesOut())
}

// handleDecompress inverts handleCompress: the codec is identified from
// the container frame header inside the stream, so the endpoint needs no
// codec path segment. Both wire formats decode: the chunked stream, and a
// bare container frame as written by `compressbench -z`.
func (s *Server) handleDecompress(w http.ResponseWriter, r *http.Request) {
	if err := s.checkContentLength(r); err != nil {
		writeError(w, err)
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

	start := time.Now()
	// Identify the codec from a bounded peek before committing any decode
	// resources.
	body := bufio.NewReader(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	prefix, err := body.Peek(container.SniffLen)
	if len(prefix) == 0 && err != nil && err != io.EOF {
		writeError(w, err)
		return
	}
	name, bare, err := container.Sniff(prefix)
	if err != nil {
		writeError(w, err)
		return
	}
	codec, ok := s.codec(name)
	if !ok {
		httpshell.WriteError(w, http.StatusBadRequest, "unknown_codec",
			fmt.Sprintf("stream names codec %q, registry has %v", name, s.names))
		return
	}
	cw := w.(*httpshell.Writer)
	w.Header().Set("Content-Type", contentTypeBinary)
	w.Header().Set("X-Positd-Codec", name)

	var bytesIn int64
	if bare {
		// A single frame: bounded whole-body read, one decode.
		frame, err := io.ReadAll(body)
		if err != nil {
			writeError(w, err)
			return
		}
		bytesIn = int64(len(frame))
		out, err := compress.DecompressLimits(codec, frame, lim)
		if err != nil {
			writeError(w, err)
			return
		}
		if _, err := w.Write(out); err != nil {
			return // client gone; access log records the short write
		}
	} else {
		// Read-ahead decompression writes output while frames are still
		// being fetched from the body, which needs full duplex on HTTP/1.
		// The bare-frame path above reads the whole body before its first
		// write, so it stays half duplex and keeps the server's own
		// pre-response body discard protecting connection reuse.
		_ = http.NewResponseController(w).EnableFullDuplex()
		pr := compress.NewReader(r.Context(), codec, countReads(body, &bytesIn), lim, workers)
		defer pr.Close()
		if _, err := io.Copy(w, pr); err != nil {
			s.abortStream(cw, r, err)
			return
		}
		// The stream terminator ends the copy without observing the body's
		// EOF; surface it here so the connection stays safely reusable.
		drainBody(cw, r)
	}
	s.metrics.recordCodec(name, "decompress", time.Since(start), bytesIn, cw.BytesOut())
}

// abortStream ends a request whose data plane failed. If the status line
// has not been sent the error maps to a proper status; once bytes are on
// the wire the only honest signal left is killing the connection so the
// client cannot mistake a truncated body for a complete one.
func (s *Server) abortStream(cw *httpshell.Writer, r *http.Request, err error) {
	if !cw.Wrote() {
		drainBody(cw, r)
		writeError(cw, err)
		return
	}
	status, kind := statusFor(err)
	log.Printf("positd: %s %s: aborting mid-stream: %v (kind %s, would-be status %d)",
		r.Method, r.URL.Path, err, kind, status)
	panic(http.ErrAbortHandler)
}

// maxDrainBytes bounds how much of an unread request body drainBody will
// consume to keep a connection reusable, matching net/http's own
// post-handler discard bound; past it the connection is retired instead.
const maxDrainBytes = 256 << 10

// drainBody consumes what remains of a full-duplex request body so its EOF
// is observed inside the handler. net/http coordinates its keep-alive
// background read with the handler only when the body hits EOF before the
// handler returns: with full duplex enabled the server skips its
// pre-response discard, and a body first drained inside finishRequest
// re-arms the background read after the abort handshake has already run —
// the connection's next keep-alive read then panics with "invalid
// concurrent Body.Read call". Every full-duplex handler must therefore
// route early returns through here (abortStream does) or read the body to
// EOF itself. A remainder past maxDrainBytes is not worth reading just for
// reuse: the response is marked Connection: close while the status line is
// unsent, else the connection is aborted outright.
func drainBody(cw *httpshell.Writer, r *http.Request) {
	n, err := io.Copy(io.Discard, io.LimitReader(r.Body, maxDrainBytes+1))
	if err != nil || n <= maxDrainBytes {
		// EOF reached (LimitReader masks it as a clean stop), or the body
		// read failed — a dead connection has no reuse to protect.
		return
	}
	if !cw.Wrote() {
		cw.Header().Set("Connection", "close")
		return
	}
	panic(http.ErrAbortHandler)
}

// countReads tallies bytes pulled from r into n (single-goroutine use: the
// chunk reader's one fetcher, or Read itself on the inline path).
func countReads(r io.Reader, n *int64) io.Reader {
	return &countingReader{r: r, n: n}
}

type countingReader struct {
	r io.Reader
	n *int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	*c.n += int64(n)
	return n, err
}

// convertResponseHeaders carry the roundtrip-precision statistics of a
// float32 -> posit conversion, so clients get the Section 4.2 numbers
// without a second pass.
const (
	headerValues   = "X-Positd-Values"
	headerExactPct = "X-Positd-Exact-Pct"
	headerMaxAbsE  = "X-Positd-Max-Abs-Error"
)

// handleConvert converts a raw little-endian body between IEEE-754
// binary32 and posit<n,es> words (?to=posit default, ?to=float32 for the
// inverse; ?n= and ?es= select the posit config, 32/3 default — the
// paper's configuration).
func (s *Server) handleConvert(w http.ResponseWriter, r *http.Request) {
	if err := s.checkContentLength(r); err != nil {
		writeError(w, err)
		return
	}
	n, err := intParam(r, "n", 32)
	if err != nil {
		badParam(w, "n", err)
		return
	}
	es, err := intParam(r, "es", 3)
	if err != nil {
		badParam(w, "es", err)
		return
	}
	// Negative values wrap to huge uints, which Validate refuses too.
	cfg := posit.Config{N: uint(n), ES: uint(es)}
	if err := cfg.Validate(); err != nil {
		httpshell.WriteError(w, http.StatusBadRequest, "bad_param", err.Error())
		return
	}
	workers, err := s.requestWorkers(r)
	if err != nil {
		badParam(w, "workers", err)
		return
	}
	to := r.URL.Query().Get("to")
	if to == "" {
		to = "posit"
	}

	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		writeError(w, err)
		return
	}
	if ctxErr := r.Context().Err(); ctxErr != nil {
		writeError(w, ctxErr)
		return
	}

	switch to {
	case "posit":
		floats, err := sdrbench.Parse(data)
		if err != nil {
			writeError(w, err)
			return
		}
		words := cfg.FromFloat32SliceWorkers(nil, floats, workers)
		st := cfg.RoundtripStatsWorkers(floats, workers)
		w.Header().Set("Content-Type", contentTypeBinary)
		w.Header().Set(headerValues, fmt.Sprint(st.Total))
		w.Header().Set(headerExactPct, fmt.Sprintf("%.4f", st.PrecisePct()))
		w.Header().Set(headerMaxAbsE, fmt.Sprintf("%g", st.MaxAbsE))
		w.Write(posit.EncodeWordsLE(words))
	case "float32", "float":
		if len(data) == 0 {
			writeError(w, sdrbench.ErrEmptyInput)
			return
		}
		words, err := posit.DecodeWordsLE(data)
		if err != nil {
			httpshell.WriteError(w, http.StatusBadRequest, "misaligned_input", err.Error())
			return
		}
		floats := cfg.ToFloat32SliceWorkers(nil, words, workers)
		w.Header().Set("Content-Type", contentTypeBinary)
		w.Header().Set(headerValues, fmt.Sprint(len(floats)))
		w.Write(posit.EncodeFloat32LE(floats))
	default:
		httpshell.WriteError(w, http.StatusBadRequest, "bad_param",
			fmt.Sprintf("?to=%q: want \"posit\" or \"float32\"", to))
	}
}

// analyzeResponse is the POST /v1/analyze JSON document: the paper's
// field-level view of one .f32 input.
type analyzeResponse struct {
	Values  int              `json:"values"`
	Classes map[string]int   `json:"classes"`
	Range   analyzeRange     `json:"range"`
	Expo    analyzeExponent  `json:"exponent"`
	Posit   analyzeRoundtrip `json:"posit_roundtrip"`
}

type analyzeRange struct {
	MinFinite float64 `json:"min_finite"`
	MaxFinite float64 `json:"max_finite"`
	MinAbs    float64 `json:"min_abs"`
	MaxAbs    float64 `json:"max_abs"`
}

type analyzeExponent struct {
	Mode int            `json:"mode"`
	Bins map[string]int `json:"bins"` // biased exponent -> count, populated bins only
}

type analyzeRoundtrip struct {
	Config      string  `json:"config"`
	Exact       int     `json:"exact"`
	ExactPct    float64 `json:"exact_pct"`
	MaxAbsError float64 `json:"max_abs_error"`
}

// handleAnalyze reports IEEE-754 field statistics and posit roundtrip
// precision for a raw .f32 body (?es= selects the posit config, 3
// default).
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if err := s.checkContentLength(r); err != nil {
		writeError(w, err)
		return
	}
	es, err := intParam(r, "es", 3)
	if err != nil {
		badParam(w, "es", err)
		return
	}
	cfg := posit.Config{N: 32, ES: uint(es)}
	if err := cfg.Validate(); err != nil {
		httpshell.WriteError(w, http.StatusBadRequest, "bad_param", err.Error())
		return
	}
	workers, err := s.requestWorkers(r)
	if err != nil {
		badParam(w, "workers", err)
		return
	}
	floats, err := sdrbench.Load(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), 0)
	if err != nil {
		writeError(w, err)
		return
	}
	if ctxErr := r.Context().Err(); ctxErr != nil {
		writeError(w, ctxErr)
		return
	}

	sum := ieee.Summarize(floats)
	var hist ieee.Histogram
	hist.AddSlice(floats)
	st := cfg.RoundtripStatsWorkers(floats, workers)

	bins := map[string]int{}
	for e, n := range hist.Bins {
		if n > 0 {
			bins[fmt.Sprint(e)] = n
		}
	}
	resp := analyzeResponse{
		Values: sum.Total,
		Classes: map[string]int{
			"zero":      sum.Zeros,
			"subnormal": sum.Subnormals,
			"normal":    sum.Normals,
			"inf":       sum.Infs,
			"nan":       sum.NaNs,
		},
		Range: analyzeRange{
			MinFinite: sum.MinFinite,
			MaxFinite: sum.MaxFinite,
			MinAbs:    sum.MinAbs,
			MaxAbs:    sum.MaxAbs,
		},
		Expo: analyzeExponent{Mode: hist.Mode(), Bins: bins},
		Posit: analyzeRoundtrip{
			Config:      cfg.String(),
			Exact:       st.Exact,
			ExactPct:    st.PrecisePct(),
			MaxAbsError: st.MaxAbsE,
		},
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// codecsResponse is one GET /v1/codecs entry: identity plus the capability
// hints clients and the gateway introspect instead of hard-coding names —
// whether the decoder runs at memory-bandwidth-class speed, whether
// the codec emits per-stage trace spans, and whether the auto-mode advisor
// considers it a candidate.
type codecsResponse struct {
	Name            string `json:"name"`
	Version         string `json:"version,omitempty"`
	Source          string `json:"source,omitempty"`
	LightDecoder    bool   `json:"light_decoder"`
	TracedStages    bool   `json:"traced_stages"`
	AdvisorEligible bool   `json:"advisor_eligible"`
}

// handleCodecs lists the registry in table order.
func (s *Server) handleCodecs(w http.ResponseWriter, r *http.Request) {
	out := make([]codecsResponse, 0, len(s.names))
	for _, name := range s.names {
		c := s.codecs[name]
		entry := codecsResponse{
			Name:            name,
			LightDecoder:    compress.DecodeIsLight(c),
			AdvisorEligible: s.advisor.Eligible(name),
		}
		if d, ok := c.(compress.Describer); ok {
			info := d.Info()
			entry.Version = info.Version
			entry.Source = info.Source
		}
		_, tc := c.(compress.TracedCompressor)
		_, td := c.(compress.TracedDecompressor)
		entry.TracedStages = tc || td
		out = append(out, entry)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}
