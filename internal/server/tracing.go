package server

import (
	"encoding/json"
	"net/http"

	"positbench/internal/httpshell"
	"positbench/internal/trace"
)

// traced starts a root span for the request and threads it through the
// context, where the parallel engines pick it up chunk by chunk. With
// tracing disabled (nil tracer) the span is nil and every downstream span
// call is a single branch.
func (s *Server) traced(route string, next http.Handler) http.Handler {
	if s.tracer == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := s.tracer.Start(route, httpshell.RequestID(r.Context()))
		sp.Annotate("path", r.URL.Path)
		defer sp.End()
		next.ServeHTTP(w, r.WithContext(trace.NewContext(r.Context(), sp)))
	})
}

// debugTracesResponse is the GET /debug/traces document.
type debugTracesResponse struct {
	Capacity int            `json:"capacity"`
	Traces   []*trace.Trace `json:"traces"`
}

// DebugTracesHandler dumps the trace ring buffer, most recent first. It is
// not part of Handler's mux: positd mounts it on the pprof listener so
// trace internals stay off the serving port.
func (s *Server) DebugTracesHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		resp := debugTracesResponse{}
		if s.tracer != nil {
			resp.Capacity = s.tracer.Capacity()
			resp.Traces = s.tracer.Snapshot()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(resp)
	})
}
