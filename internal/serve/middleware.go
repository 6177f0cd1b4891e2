package serve

import (
	"fmt"
	"log/slog"
	"net/http"
	"strings"

	"mnpusim/internal/obs/dtrace"
	"mnpusim/internal/obs/hostprof"
)

// RequestIDHeader carries the per-request ID every /v1 response is
// stamped with; the error envelope echoes it so failures can be
// matched to the daemon's access log.
const RequestIDHeader = "X-Request-Id"

// timingWriter wraps the ResponseWriter to capture the status code and
// inject a Server-Timing header (the server-side handling time so far)
// just before the headers flush on the first WriteHeader.
type timingWriter struct {
	http.ResponseWriter
	startNS int64
	status  int
	wrote   bool
}

func (tw *timingWriter) WriteHeader(code int) {
	if !tw.wrote {
		tw.wrote = true
		tw.status = code
		ms := float64(hostprof.Now()-tw.startNS) / 1e6
		tw.Header().Set("Server-Timing", fmt.Sprintf("total;dur=%.3f", ms))
	}
	tw.ResponseWriter.WriteHeader(code)
}

func (tw *timingWriter) Write(b []byte) (int, error) {
	if !tw.wrote {
		tw.WriteHeader(http.StatusOK)
	}
	return tw.ResponseWriter.Write(b)
}

// Flush passes through so the SSE handlers keep streaming.
func (tw *timingWriter) Flush() {
	if fl, ok := tw.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// withObservability is the middleware on every route: it assigns a
// request ID (echoed as X-Request-Id and in the error envelope),
// parses an incoming W3C traceparent header, opens the HTTP handling
// span, injects Server-Timing, and writes one structured access-log
// line with the job/sweep/trace correlation fields.
//
// Span policy: an incoming sampled traceparent always joins its trace;
// without one, a new root trace is started only for the two submission
// endpoints (POST /v1/jobs, POST /v1/sweeps) — polling and listing
// never start traces, so the bounded span store holds request
// lifecycles, not scrape noise.
func (s *Server) withObservability(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		startNS := hostprof.Now()
		reqID := s.tracer.NewRequestID()
		if reqID != "" {
			w.Header().Set(RequestIDHeader, reqID)
		}

		var span *dtrace.Active
		if sc, ok := dtrace.ParseTraceparent(r.Header.Get(dtrace.Header)); ok && sc.Sampled {
			span = s.tracer.Start(sc, "http "+r.Method+" "+routePattern(r.URL.Path))
		} else if traceRoot(r.Method, r.URL.Path) {
			span = s.tracer.Start(dtrace.SpanContext{}, "http "+r.Method+" "+routePattern(r.URL.Path))
		}
		if span != nil {
			span.SetAttr("request_id", reqID)
			r = r.WithContext(dtrace.With(r.Context(), span.Context()))
		}

		tw := &timingWriter{ResponseWriter: w, startNS: startNS, status: http.StatusOK}
		next.ServeHTTP(tw, r)

		if span != nil {
			span.SetAttr("status", fmt.Sprintf("%d", tw.status))
			span.End()
		}

		attrs := []any{
			"method", r.Method,
			"path", r.URL.Path,
			"status", tw.status,
			"dur_ms", float64(hostprof.Now()-startNS) / 1e6,
			"request_id", reqID,
		}
		if job, sweep := pathIDs(r.URL.Path); job != "" {
			attrs = append(attrs, "job", job)
		} else if sweep != "" {
			attrs = append(attrs, "sweep", sweep)
		}
		if span != nil {
			attrs = append(attrs, "trace_id", span.Context().TraceID)
		}
		// Health probes and metric scrapes arrive every few seconds from
		// load balancers and scrapers; keep them out of the Info log.
		level := slog.LevelInfo
		if r.URL.Path == "/v1/healthz" || r.URL.Path == "/metrics" {
			level = slog.LevelDebug
		}
		s.log.Log(r.Context(), level, "http request", attrs...)
	})
}

// traceRoot reports whether a request without an incoming traceparent
// should start a new root trace.
func traceRoot(method, path string) bool {
	return method == http.MethodPost && (path == "/v1/jobs" || path == "/v1/sweeps")
}

// routePattern collapses a request path to its route shape
// ("/v1/jobs/j42/events" -> "/v1/jobs/{id}/events") so span names stay
// low-cardinality.
func routePattern(path string) string {
	segs := strings.Split(path, "/")
	// ["", "v1", "jobs"|"sweeps"|"traces", "<id>", ...]
	if len(segs) >= 4 && segs[1] == "v1" {
		switch segs[2] {
		case "jobs", "sweeps", "traces":
			if segs[3] != "" && segs[3] != "metrics" {
				segs[3] = "{id}"
				return strings.Join(segs, "/")
			}
		}
	}
	return path
}

// pathIDs extracts the job or sweep ID a /v1 path addresses, for the
// access log's correlation fields.
func pathIDs(path string) (job, sweep string) {
	segs := strings.Split(path, "/")
	if len(segs) >= 4 && segs[1] == "v1" {
		switch segs[2] {
		case "jobs":
			return segs[3], ""
		case "sweeps":
			return "", segs[3]
		}
	}
	return "", ""
}
