package dtrace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"mnpusim/internal/obs"
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

// WriteChromeTrace renders a trace through obs.ChromeTrace: one process
// (pid) per service, one thread (tid) per span category, one complete
// event per span with microsecond timestamps relative to the trace's
// earliest span. Events per track are sorted by timestamp, so the
// output satisfies obs.ValidateChromeTrace and `mnputrace -mode spans`
// can validate before writing.
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

	ct := obs.NewChromeTrace(w)
	for _, s := range services {
		ct.NameProcess(pidOf[s], s)
	}
	for _, sp := range ordered {
		pid, track := pidOf[sp.Service], trackOf(sp.Name)
		ct.NameThread(pid, track+1, chromeTracks[track])
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
		ct.Complete(sp.Name, pid, track+1, (sp.StartUnixNS-minNS)/1000, sp.DurNS/1000, args)
	}
	return ct.Close()
}
