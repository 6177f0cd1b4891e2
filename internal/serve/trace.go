package serve

import (
	"net/http"
	"sort"

	"mnpusim/internal/obs/dtrace"
	"mnpusim/internal/serve/api"
)

// handleTraceGet is GET /v1/traces/{id}: every span this daemon
// recorded for one trace, sorted by start time, with the count of spans
// the bounded store dropped. The query parameter local=true is accepted
// and ignored: every read is local.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !validTraceID(id) {
		writeError(w, errf(http.StatusBadRequest, "trace ID must be 32 lowercase hex digits, got %q", id))
		return
	}
	spans, dropped := s.spans.Get(id)
	if len(spans) == 0 {
		writeError(w, errf(http.StatusNotFound, "no spans recorded for trace %q", id))
		return
	}
	sortSpans(spans)
	writeJSON(w, http.StatusOK, api.TraceView{TraceID: id, Spans: spans, Dropped: dropped})
}

// sortSpans orders a span list deterministically: by start time, then
// span ID.
func sortSpans(spans []dtrace.Span) {
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.StartUnixNS != b.StartUnixNS {
			return a.StartUnixNS < b.StartUnixNS
		}
		return a.SpanID < b.SpanID
	})
}

// validTraceID checks the 32-lowercase-hex shape (and rejects the
// all-zero ID, which no tracer mints).
func validTraceID(id string) bool {
	if len(id) != 32 {
		return false
	}
	zero := true
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
		if c != '0' {
			zero = false
		}
	}
	return !zero
}

// handleRegistry is GET /v1/registry: the daemon's metric registry as
// one flat JSON object (the machine-readable twin of /metrics).
func (s *Server) handleRegistry(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(snapshotJSON(s.reg.Snapshot()))
}
