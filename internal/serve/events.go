package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"mnpusim/internal/obs"
	"mnpusim/internal/serve/api"
)

// sseRetryMS is the reconnect backoff hint sent at the head of every
// event stream.
const sseRetryMS = 1000

// jobProgress accumulates a running job's live counters. The simulation
// goroutine writes it through the job's probe sink; SSE streams read it
// concurrently, so every field they read is atomic.
type jobProgress struct {
	cycle         atomic.Int64 // latest observed global cycle
	iters         atomic.Int64 // completed inferences across cores
	skips         atomic.Int64 // event-driven fast-forward windows taken
	skippedCycles atomic.Int64 // global cycles covered by those windows

	// last is the writer's copy of cycle. Only Emit reads or writes it,
	// so a run of events on one cycle stores the shared cycle once.
	last int64
}

// Emit implements obs.Sink.
func (p *jobProgress) Emit(e obs.Event) {
	if c := e.Cycle.Int64(); c != p.last {
		p.last = c
		p.cycle.Store(c)
	}
	switch e.Kind {
	case obs.KindSkipWindow:
		p.skips.Add(1)
		p.skippedCycles.Add(e.A)
	case obs.KindIterDone:
		p.iters.Add(1)
	}
}

func (p *jobProgress) view(st Status) api.JobProgress {
	return api.JobProgress{
		Status:        st,
		Cycle:         p.cycle.Load(),
		Iterations:    p.iters.Load(),
		SkipWindows:   p.skips.Load(),
		SkippedCycles: p.skippedCycles.Load(),
	}
}

// snapshotJSON renders a registry snapshot as one flat JSON object.
// The snapshot is already name-sorted, so the encoding is deterministic.
func snapshotJSON(snap obs.Snapshot) []byte {
	b := []byte{'{'}
	for i, m := range snap {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, m.Name)
		b = append(b, ':')
		b = strconv.AppendInt(b, m.Value, 10)
	}
	return append(b, '}')
}

// eventStream is one open SSE response. Event ids come from the
// record's own counter, so a client that reconnects sees ids continue
// to climb (its Last-Event-ID is never reissued) and can tell replayed
// state from stale duplicates.
type eventStream struct {
	w   io.Writer
	fl  http.Flusher
	seq *atomic.Int64
}

// send writes one event. Payloads are single-line JSON (json.Marshal
// emits no newlines), so one data: line carries the exact bytes.
func (es *eventStream) send(name string, payload []byte) bool {
	if _, err := fmt.Fprintf(es.w, "id: %d\nevent: %s\ndata: %s\n\n",
		es.seq.Add(1), name, payload); err != nil {
		return false
	}
	es.fl.Flush()
	return true
}

func (es *eventStream) sendJSON(name string, v any) bool {
	b, err := json.Marshal(v)
	if err != nil {
		return false
	}
	return es.send(name, b)
}

// eventFeed is what one record's stream carries besides its lifecycle.
type eventFeed struct {
	// progress is the payload of every "progress" event.
	progress func() any
	// tick, when set, runs after the progress event of the n-th tick.
	tick func(es *eventStream, n int) bool
	// final, when set, runs after the last progress event, before the
	// terminal event.
	final func(es *eventStream) bool
}

// serveEvents is the one SSE writer behind GET /v1/jobs/{id}/events and
// GET /v1/sweeps/{id}/events. It writes the stream head (headers and a
// retry: hint), a "progress" event at once and on every EventInterval
// tick while the record runs, then, once the record is terminal, a last
// "progress" event and exactly one terminal event — "result" (the
// record's result bytes), "failed", or "cancelled" — and closes.
func (s *Server) serveEvents(w http.ResponseWriter, r *http.Request, l *lifecycle, f eventFeed) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, errf(http.StatusInternalServerError, "streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	// Reconnect hint: EventSource clients back off this many ms before
	// redialing, instead of their (often aggressive) default.
	if _, err := fmt.Fprintf(w, "retry: %d\n\n", sseRetryMS); err != nil {
		return
	}
	fl.Flush()

	es := &eventStream{w: w, fl: fl, seq: &l.eventSeq}
	if !es.sendJSON("progress", f.progress()) {
		return
	}
	ticker := time.NewTicker(s.cfg.EventInterval)
	defer ticker.Stop()
	for n := 1; ; n++ {
		select {
		case <-r.Context().Done():
			return
		case <-l.Done():
			if !es.sendJSON("progress", f.progress()) {
				return
			}
			if f.final != nil && !f.final(es) {
				return
			}
			st, result, errMsg := l.outcome()
			switch st {
			case StatusDone:
				es.send("result", result)
			case StatusFailed:
				es.sendJSON("failed", map[string]string{"error": errMsg})
			case StatusCancelled:
				es.sendJSON("cancelled", map[string]string{"error": errMsg})
			}
			return
		case <-ticker.C:
			if !es.sendJSON("progress", f.progress()) {
				return
			}
			if f.tick != nil && !f.tick(es, n) {
				return
			}
		}
	}
}

// handleEvents is GET /v1/jobs/{id}/events. Besides serveEvents'
// progress and terminal events, the job's stream carries a "snapshot"
// event (the registry as a JSON object) every snapshotEvery ticks, and
// an "attribution" event before the terminal one when a stall-cycle
// report exists. Its "result" data bytes equal GET /v1/jobs/{id}/result.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.lookup(w, r)
	if !ok {
		return
	}
	s.serveEvents(w, r, &job.lifecycle, eventFeed{
		progress: func() any { return job.progress.view(job.Status()) },
		tick: func(es *eventStream, n int) bool {
			return n%s.cfg.snapshotEvery != 0 || es.send("snapshot", snapshotJSON(s.reg.Snapshot()))
		},
		final: func(es *eventStream) bool {
			ab, ok := job.AttributionJSON()
			return !ok || es.send("attribution", ab)
		},
	})
}
