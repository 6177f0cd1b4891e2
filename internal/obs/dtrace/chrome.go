package dtrace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Span-name prefixes map to fixed thread tracks so every service's
// process renders the same row layout: HTTP handling on top, then
// queue wait, cache lookups, sweep coordination, unit dispatch, and
// simulation runs.
var chromeTracks = []string{"http", "queue", "cache", "sweep", "unit", "sim", "other"}

// trackOf buckets a span name into one of chromeTracks by its first
// token ("http GET /v1/jobs" -> http, "sim_run" -> sim).
func trackOf(name string) int {
	first, _, _ := strings.Cut(name, " ")
	switch first {
	case "http":
		return 0
	case "queue_wait":
		return 1
	case "cache_lookup":
		return 2
	case "sweep":
		return 3
	case "unit":
		return 4
	case "sim_run":
		return 5
	}
	return 6
}

// chromeEvent is one trace-event record; pointer Ts/Dur distinguish
// "absent" from zero for metadata records.
type chromeEvent struct {
	Ph   string `json:"ph"`
	Name string `json:"name"`
	Pid  int    `json:"pid"`
	Tid  int    `json:"tid"`
	Ts   *int64 `json:"ts,omitempty"`
	Dur  *int64 `json:"dur,omitempty"`
	Args any    `json:"args,omitempty"`
}

// WriteChromeTrace renders a trace as Chrome trace-event
// JSON: one process (pid) per service, one thread (tid) per span
// category, X complete events with microsecond timestamps relative to
// the trace's earliest span. The output satisfies
// obs.ValidateChromeTrace's invariants (events per track are sorted by
// timestamp), so `mnputrace -mode spans` can validate before writing.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	if len(spans) == 0 {
		return fmt.Errorf("no spans to render")
	}

	services := make([]string, 0, 4)
	seen := make(map[string]bool)
	minNS := spans[0].StartUnixNS
	for _, sp := range spans {
		if !seen[sp.Service] {
			seen[sp.Service] = true
			services = append(services, sp.Service)
		}
		if sp.StartUnixNS < minNS {
			minNS = sp.StartUnixNS
		}
	}
	sort.Strings(services)
	pidOf := make(map[string]int, len(services))
	for i, s := range services {
		pidOf[s] = i + 1
	}

	ordered := append([]Span(nil), spans...)
	sort.Slice(ordered, func(i, j int) bool {
		a, b := ordered[i], ordered[j]
		if a.Service != b.Service {
			return pidOf[a.Service] < pidOf[b.Service]
		}
		ta, tb := trackOf(a.Name), trackOf(b.Name)
		if ta != tb {
			return ta < tb
		}
		if a.StartUnixNS != b.StartUnixNS {
			return a.StartUnixNS < b.StartUnixNS
		}
		return a.SpanID < b.SpanID
	})

	var events []chromeEvent
	for _, s := range services {
		pid := pidOf[s]
		events = append(events, chromeEvent{
			Ph: "M", Name: "process_name", Pid: pid,
			Args: map[string]string{"name": s},
		})
	}
	usedTrack := make(map[[2]int]bool)
	for _, sp := range ordered {
		k := [2]int{pidOf[sp.Service], trackOf(sp.Name)}
		if !usedTrack[k] {
			usedTrack[k] = true
			events = append(events, chromeEvent{
				Ph: "M", Name: "thread_name", Pid: k[0], Tid: k[1] + 1,
				Args: map[string]string{"name": chromeTracks[k[1]]},
			})
		}
	}
	for _, sp := range ordered {
		ts := (sp.StartUnixNS - minNS) / 1000
		dur := sp.DurNS / 1000
		args := map[string]string{
			"trace_id": sp.TraceID,
			"span_id":  sp.SpanID,
		}
		if sp.ParentID != "" {
			args["parent_id"] = sp.ParentID
		}
		for k, v := range sp.Attrs {
			args[k] = v
		}
		events = append(events, chromeEvent{
			Ph: "X", Name: sp.Name,
			Pid: pidOf[sp.Service], Tid: trackOf(sp.Name) + 1,
			Ts: &ts, Dur: &dur, Args: args,
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{events})
}
