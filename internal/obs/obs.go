// Package obs is the market observability layer: a dependency-free,
// allocation-light metrics registry (counters, gauges, fixed-bucket
// latency histograms) plus a structured round tracer (tracer.go) and an
// opt-in HTTP endpoint (http.go) exposing everything as Prometheus text
// and expvar-style JSON.
//
// Design constraints, in order:
//
//  1. Consensus safety. Nothing in this package may feed back into
//     protocol state. Metrics and traces carry wall-clock timestamps and
//     throughput numbers, but the allocation pipeline never reads them:
//     block outcomes stay byte-identical whether observability is on or
//     off, at any worker count (enforced by the determinism guard test).
//  2. Near-zero cost when off. Instrumented code holds nil bundle
//     pointers by default; every metric type is nil-receiver safe, so
//     the disabled path is a pointer compare, never an allocation or a
//     clock read.
//  3. Cheap when on. Counters and gauges are single atomics; histograms
//     do one linear scan over ≤ ~15 bucket bounds plus two atomics.
//
// The equal-width histogram behind the workload's similarity axis
// (internal/workload) is an offline analysis tool, not concurrency-safe.
// Runtime latency tracking needs cumulative "le" buckets under
// concurrent writers, which is what Histogram here provides.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The zero value is not
// usable; obtain counters from a Registry. All methods are safe for
// concurrent use and no-ops on a nil receiver.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n. Negative deltas are ignored — counters only go up.
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 value that can go up and down. Safe for concurrent
// use; no-op on a nil receiver.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds d (which may be negative) to the gauge.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket latency/size histogram with Prometheus
// "le" semantics: bucket i counts observations ≤ bounds[i], plus an
// implicit +Inf bucket. Observations also accumulate into a total sum
// and count. Safe for concurrent use; no-op on a nil receiver.
type Histogram struct {
	bounds  []float64 // ascending upper bounds, +Inf implicit
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// DefBuckets is the default latency bucket layout in seconds, spanning
// sub-millisecond mechanism phases to multi-second reveal windows.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not strictly ascending at %d: %v", i, bounds))
		}
	}
	return &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
// Buckets are CUMULATIVE counts aligned with Bounds; the final entry of
// Buckets is the +Inf bucket and equals Count.
type HistogramSnapshot struct {
	Bounds  []float64
	Buckets []int64
	Count   int64
	Sum     float64
}

// Snapshot returns the histogram's current cumulative state. Under
// concurrent writers the bucket counts may lag Count by in-flight
// observations; for offline analysis after a run they are exact.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds:  append([]float64(nil), h.bounds...),
		Buckets: make([]int64, len(h.buckets)),
		Count:   h.count.Load(),
		Sum:     math.Float64frombits(h.sumBits.Load()),
	}
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		s.Buckets[i] = cum
	}
	return s
}

// metricKind discriminates registry entries.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

type metric struct {
	name, help string
	kind       metricKind
	c          *Counter
	g          *Gauge
	h          *Histogram
}

// Registry holds named metrics and renders them. Get-or-create lookups
// are idempotent: asking twice for the same name and kind returns the
// same metric (a kind clash panics — a programming error). All methods
// are safe for concurrent use; every method on a nil *Registry returns
// a nil metric, so a nil registry is a valid "observability off" value.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// validName enforces the Prometheus metric-name charset
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		letter := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !letter && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func (r *Registry) lookup(name, help string, kind metricKind) *metric {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, m.kind, kind))
		}
		return m
	}
	m := &metric{name: name, help: help, kind: kind}
	r.metrics[name] = m
	return m
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	m := r.lookup(name, help, kindCounter)
	if m.c == nil {
		m.c = &Counter{}
	}
	return m.c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	m := r.lookup(name, help, kindGauge)
	if m.g == nil {
		m.g = &Gauge{}
	}
	return m.g
}

// Histogram returns the named histogram, creating it on first use with
// the given ascending bucket bounds (nil → DefBuckets). Bounds are fixed
// at creation; later calls ignore the argument.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	m := r.lookup(name, help, kindHistogram)
	if m.h == nil {
		m.h = newHistogram(bounds)
	}
	return m.h
}

// CounterValue reads a counter by name (0 if absent) — a test and
// assertion convenience.
func (r *Registry) CounterValue(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	m := r.metrics[name]
	r.mu.Unlock()
	if m == nil || m.c == nil {
		return 0
	}
	return m.c.Value()
}

// GaugeValue reads a gauge by name (0 if absent).
func (r *Registry) GaugeValue(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	m := r.metrics[name]
	r.mu.Unlock()
	if m == nil || m.g == nil {
		return 0
	}
	return m.g.Value()
}

// sorted returns the registry's metrics in name order — the canonical
// rendering order, independent of registration interleaving.
func (r *Registry) sorted() []*metric {
	r.mu.Lock()
	out := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// formatFloat renders a sample value the way Prometheus expects:
// shortest round-trip decimal, with +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format (version 0.0.4), sorted by name. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, m := range r.sorted() {
		if m.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.kind); err != nil {
			return err
		}
		var err error
		switch m.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "%s %d\n", m.name, m.c.Value())
		case kindGauge:
			_, err = fmt.Fprintf(w, "%s %s\n", m.name, formatFloat(m.g.Value()))
		case kindHistogram:
			s := m.h.Snapshot()
			for i, b := range s.Bounds {
				if _, err = fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", m.name, formatFloat(b), s.Buckets[i]); err != nil {
					return err
				}
			}
			if _, err = fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", m.name, s.Buckets[len(s.Buckets)-1]); err != nil {
				return err
			}
			if _, err = fmt.Fprintf(w, "%s_sum %s\n", m.name, formatFloat(s.Sum)); err != nil {
				return err
			}
			_, err = fmt.Fprintf(w, "%s_count %d\n", m.name, s.Count)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders every metric as one JSON object (expvar-style):
// counters as integers, gauges as floats, histograms as
// {count, sum, buckets: {"le": cumulative}}. Keys sort alphabetically.
func (r *Registry) WriteJSON(w io.Writer) error {
	out := make(map[string]any)
	if r != nil {
		for _, m := range r.sorted() {
			switch m.kind {
			case kindCounter:
				out[m.name] = m.c.Value()
			case kindGauge:
				out[m.name] = m.g.Value()
			case kindHistogram:
				s := m.h.Snapshot()
				buckets := make(map[string]int64, len(s.Buckets))
				for i, b := range s.Bounds {
					buckets[formatFloat(b)] = s.Buckets[i]
				}
				buckets["+Inf"] = s.Buckets[len(s.Buckets)-1]
				out[m.name] = map[string]any{"count": s.Count, "sum": s.Sum, "buckets": buckets}
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
