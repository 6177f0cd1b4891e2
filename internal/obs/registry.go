package obs

import (
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. All methods are
// safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-value metric that also tracks its maximum. All
// methods are safe for concurrent use.
type Gauge struct{ v, max atomic.Int64 }

// Set records a new value, updating the running maximum.
func (g *Gauge) Set(v int64) {
	g.v.Store(v)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Add atomically shifts the gauge by delta and returns the new value,
// updating the running maximum. It is the read-modify-write companion
// to Set for occupancy-style gauges (queue depth, jobs in flight).
func (g *Gauge) Add(delta int64) int64 {
	v := g.v.Add(delta)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return v
		}
	}
}

// Value returns the last recorded value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Max returns the largest recorded value.
func (g *Gauge) Max() int64 { return g.max.Load() }

// Histogram counts observations into fixed upper-bound buckets
// (cumulative export, Prometheus-style: an observation lands in the
// first bucket whose bound is >= the value, plus the implicit +Inf
// bucket). All methods are safe for concurrent use.
type Histogram struct {
	bounds  []int64
	buckets []atomic.Int64 // len(bounds)+1; last is +Inf
	count   atomic.Int64
	sum     atomic.Int64
}

// DefaultLatencyBounds covers walk/queue latencies from 16 cycles to
// 16k cycles in powers of four.
func DefaultLatencyBounds() []int64 { return []int64{16, 64, 256, 1024, 4096, 16384} }

func newHistogram(bounds []int64) *Histogram {
	b := append([]int64(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Registry is a named collection of counters, gauges, and histograms.
// Metric handles are get-or-create by name; lookups are cheap but probe
// sites should resolve handles once and reuse them (RegistrySink does).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket upper bounds on first use (later calls ignore
// bounds).
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Metric is one flattened snapshot entry.
type Metric struct {
	Name  string
	Value int64
}

// Snapshot is a deterministic point-in-time export: one integer per
// metric (histograms flatten to .count/.sum/.le* entries), sorted by
// name, so identical runs produce byte-identical snapshots.
type Snapshot []Metric

// Snapshot flattens and sorts the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out Snapshot
	for name, c := range r.counters {
		out = append(out, Metric{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		out = append(out, Metric{Name: name, Value: g.Value()})
		out = append(out, Metric{Name: name + ".max", Value: g.Max()})
	}
	for name, h := range r.hists {
		out = append(out, Metric{Name: name + ".count", Value: h.Count()})
		out = append(out, Metric{Name: name + ".sum", Value: h.Sum()})
		cum := int64(0)
		for i, b := range h.bounds {
			cum += h.buckets[i].Load()
			out = append(out, Metric{Name: fmt.Sprintf("%s.le%d", name, b), Value: cum})
		}
		cum += h.buckets[len(h.bounds)].Load()
		out = append(out, Metric{Name: name + ".leinf", Value: cum})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Value returns the snapshot entry for name, or 0 if absent.
func (s Snapshot) Value(name string) int64 {
	i := sort.Search(len(s), func(i int) bool { return s[i].Name >= name })
	if i < len(s) && s[i].Name == name {
		return s[i].Value
	}
	return 0
}

// WriteText writes the snapshot as sorted "name value" lines.
func (s Snapshot) WriteText(w io.Writer) error {
	for _, m := range s {
		if _, err := fmt.Fprintf(w, "%s %d\n", m.Name, m.Value); err != nil {
			return err
		}
	}
	return nil
}

// WriteFile writes the snapshot's text form to path, or to stdout for
// "-".
func (s Snapshot) WriteFile(path string) error {
	if path == "-" {
		return s.WriteText(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteText(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
