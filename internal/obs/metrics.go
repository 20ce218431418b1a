// Package obs is the system's observability layer: a dependency-free
// metrics registry with Prometheus text exposition, request-scoped trace
// span trees with a bounded retrieval ring, and slog helpers — shared by
// the engine (span hooks), the serving tier (/metrics, /traces, access
// and slow-query logs), and the CLI (debug listener).
//
// Instrumentation through this package is answer-neutral by construction:
// nothing here touches an engine's simulated cost meter or its PRNG
// streams; spans and metrics only *read* wall-clock time and already-
// charged meter values.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind is a metric family's type, named after the Prometheus TYPE it
// exports as.
type Kind string

const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// DefLatencyBuckets are the fixed request-latency histogram bounds, in
// seconds. Fixed (not configurable per call site) so every latency series
// the system exports is directly comparable.
var DefLatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// EmitFunc receives one labeled sample from a collected family at scrape
// time.
type EmitFunc func(value float64, labelValues ...string)

// family is one named metric with a fixed label schema. Direct families
// hold incrementally updated children; collected families produce their
// samples from a callback at scrape time (for values that already live
// elsewhere, like pool depth or stream horizons).
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64 // histogram upper bounds, ascending, without +Inf

	mu       sync.Mutex
	children map[string]*child
	order    []string // insertion order of children keys

	// collect renders a collected family from its group's reading.
	collect func(reading any, emit EmitFunc)
	src     *source
}

// source is what a Group's families read; Write takes one reading of it
// per scrape.
type source struct{ read func() any }

// child is one label combination's live value.
type child struct {
	mu        sync.Mutex
	labelVals []string
	val       float64  // counter / gauge
	counts    []uint64 // histogram: per-bucket (non-cumulative)
	inf       uint64   // histogram: observations above the last bound
	sum       float64
	count     uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// register installs a family, panicking on invalid or conflicting
// registration — both are programmer errors, like a duplicate flag.
func (r *Registry) register(f *family) *family {
	if !validName(f.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", f.name))
	}
	for _, l := range f.labels {
		if !validName(l) || l == "le" {
			panic(fmt.Sprintf("obs: invalid label name %q on metric %q", l, f.name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.families[f.name]; ok {
		if old.kind != f.kind || len(old.labels) != len(f.labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different schema", f.name))
		}
		return old
	}
	if f.collect == nil {
		f.children = make(map[string]*child)
	}
	r.families[f.name] = f
	return f
}

// Counter registers (or fetches) a counter family.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(&family{name: name, help: help, kind: KindCounter, labels: labels})}
}

// Gauge registers (or fetches) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(&family{name: name, help: help, kind: KindGauge, labels: labels})}
}

// Histogram registers (or fetches) a histogram family with the given
// ascending bucket upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(buckets) == 0 {
		buckets = DefLatencyBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not ascending", name))
		}
	}
	return &HistogramVec{f: r.register(&family{
		name: name, help: help, kind: KindHistogram,
		labels: labels, buckets: append([]float64(nil), buckets...),
	})}
}

// Group is a set of collected families that share one reading of their
// source — values that already live in other data structures (pool depth,
// stream horizons, planner pick tables). Write takes the reading once per
// scrape and renders each of the group's families from it, so a scrape
// reads, and locks, the source once however many families it feeds, and
// those families describe one moment.
type Group[T any] struct {
	r   *Registry
	src *source
}

// NewGroup returns a Group on r whose families render read's value.
func NewGroup[T any](r *Registry, read func() T) *Group[T] {
	return &Group[T]{r: r, src: &source{read: func() any { return read() }}}
}

// Collect registers a family whose samples fn derives from the scrape's
// reading. fn must emit one value per label combination, with
// len(labelValues) == len(labels).
func (g *Group[T]) Collect(name, help string, kind Kind, labels []string, fn func(reading T, emit EmitFunc)) {
	if kind == KindHistogram {
		panic("obs: collected histograms are not supported")
	}
	g.r.register(&family{name: name, help: help, kind: kind, labels: labels, src: g.src,
		collect: func(reading any, emit EmitFunc) { fn(reading.(T), emit) }})
}

func (f *family) child(labelVals []string) *child {
	if len(labelVals) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(labelVals)))
	}
	key := strings.Join(labelVals, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = &child{labelVals: append([]string(nil), labelVals...)}
		if f.kind == KindHistogram {
			c.counts = make([]uint64, len(f.buckets))
		}
		f.children[key] = c
		f.order = append(f.order, key)
	}
	return c
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With returns the child for the given label values, creating it at zero.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return &Counter{c: v.f.child(labelValues)}
}

// Add increments the labeled child by delta (convenience for With+Add).
func (v *CounterVec) Add(delta float64, labelValues ...string) { v.With(labelValues...).Add(delta) }

// Counter is one counter child. Counters only go up.
type Counter struct{ c *child }

// Add increments by delta; negative deltas are ignored.
func (c *Counter) Add(delta float64) {
	if delta < 0 {
		return
	}
	c.c.mu.Lock()
	c.c.val += delta
	c.c.mu.Unlock()
}

// Inc increments by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the current count.
func (c *Counter) Value() float64 {
	c.c.mu.Lock()
	defer c.c.mu.Unlock()
	return c.c.val
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// With returns the child for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return &Gauge{c: v.f.child(labelValues)}
}

// Set sets the labeled child (convenience for With+Set).
func (v *GaugeVec) Set(val float64, labelValues ...string) { v.With(labelValues...).Set(val) }

// Gauge is one gauge child.
type Gauge struct{ c *child }

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	g.c.mu.Lock()
	g.c.val = v
	g.c.mu.Unlock()
}

// Add adjusts the value by delta (may be negative).
func (g *Gauge) Add(delta float64) {
	g.c.mu.Lock()
	g.c.val += delta
	g.c.mu.Unlock()
}

// Value reads the current value.
func (g *Gauge) Value() float64 {
	g.c.mu.Lock()
	defer g.c.mu.Unlock()
	return g.c.val
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With returns the child for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return &Histogram{f: v.f, c: v.f.child(labelValues)}
}

// Observe records one observation on the labeled child.
func (v *HistogramVec) Observe(val float64, labelValues ...string) { v.With(labelValues...).Observe(val) }

// Histogram is one histogram child.
type Histogram struct {
	f *family
	c *child
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.c.mu.Lock()
	defer h.c.mu.Unlock()
	h.c.sum += v
	h.c.count++
	for i, ub := range h.f.buckets {
		if v <= ub {
			h.c.counts[i]++
			return
		}
	}
	h.c.inf++
}

// Count reads the total number of observations.
func (h *Histogram) Count() uint64 {
	h.c.mu.Lock()
	defer h.c.mu.Unlock()
	return h.c.count
}

// Sum reads the sum of observed values.
func (h *Histogram) Sum() float64 {
	h.c.mu.Lock()
	defer h.c.mu.Unlock()
	return h.c.sum
}

// Value returns the direct family child's current value, or 0 when the
// metric or label combination does not exist — the read-back API /statz
// derives its counters from.
func (r *Registry) Value(name string, labelValues ...string) float64 {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil || f.collect != nil || f.kind == KindHistogram {
		return 0
	}
	key := strings.Join(labelValues, "\xff")
	f.mu.Lock()
	c := f.children[key]
	f.mu.Unlock()
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.val
}

// SumValues returns the sum of a direct family's children across all
// label combinations (0 when absent).
func (r *Registry) SumValues(name string) float64 {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil || f.collect != nil || f.kind == KindHistogram {
		return 0
	}
	f.mu.Lock()
	children := make([]*child, 0, len(f.children))
	for _, c := range f.children {
		children = append(children, c)
	}
	f.mu.Unlock()
	var sum float64
	for _, c := range children {
		c.mu.Lock()
		sum += c.val
		c.mu.Unlock()
	}
	return sum
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

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

// labelString renders {k1="v1",k2="v2"} with an optional extra pair
// appended (the histogram "le" label); empty when there are no labels.
func labelString(names, vals []string, extraName, extraVal string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, n, escapeLabel(vals[i]))
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraName, extraVal)
	}
	b.WriteByte('}')
	return b.String()
}

// sample is one rendered series value.
type sample struct {
	labelVals []string
	val       float64
	// histogram-only
	counts []uint64
	inf    uint64
	sum    float64
	count  uint64
}

// Write renders every family in Prometheus text exposition format
// (version 0.0.4), families sorted by name and series sorted by label
// values, so output is deterministic for tests and diffing.
func (r *Registry) Write(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.RUnlock()

	readings := make(map[*source]any)
	for _, f := range fams {
		samples := f.snapshot(readings)
		sort.Slice(samples, func(i, j int) bool {
			a, b := samples[i].labelVals, samples[j].labelVals
			for k := 0; k < len(a) && k < len(b); k++ {
				if a[k] != b[k] {
					return a[k] < b[k]
				}
			}
			return len(a) < len(b)
		})
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.name, escapeHelp(f.help), f.name, f.kind); err != nil {
			return err
		}
		for _, s := range samples {
			if f.kind != KindHistogram {
				if _, err := fmt.Fprintf(w, "%s%s %s\n",
					f.name, labelString(f.labels, s.labelVals, "", ""), formatFloat(s.val)); err != nil {
					return err
				}
				continue
			}
			cum := uint64(0)
			for i, ub := range f.buckets {
				cum += s.counts[i]
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
					f.name, labelString(f.labels, s.labelVals, "le", formatFloat(ub)), cum); err != nil {
					return err
				}
			}
			cum += s.inf
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				f.name, labelString(f.labels, s.labelVals, "le", "+Inf"), cum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n",
				f.name, labelString(f.labels, s.labelVals, "", ""), formatFloat(s.sum),
				f.name, labelString(f.labels, s.labelVals, "", ""), cum); err != nil {
				return err
			}
		}
	}
	return nil
}

// snapshot captures a family's current samples: direct children copied
// under their locks, collected families rendered from their group's
// reading — taken on first use and kept in readings for the group's other
// families in the same scrape.
func (f *family) snapshot(readings map[*source]any) []sample {
	if f.collect != nil {
		reading, ok := readings[f.src]
		if !ok {
			reading = f.src.read()
			readings[f.src] = reading
		}
		var out []sample
		f.collect(reading, func(value float64, labelValues ...string) {
			if len(labelValues) != len(f.labels) {
				panic(fmt.Sprintf("obs: collected metric %q wants %d label values, got %d",
					f.name, len(f.labels), len(labelValues)))
			}
			out = append(out, sample{labelVals: append([]string(nil), labelValues...), val: value})
		})
		return out
	}
	f.mu.Lock()
	children := make([]*child, 0, len(f.order))
	for _, key := range f.order {
		children = append(children, f.children[key])
	}
	f.mu.Unlock()
	out := make([]sample, 0, len(children))
	for _, c := range children {
		c.mu.Lock()
		out = append(out, sample{
			labelVals: c.labelVals,
			val:       c.val,
			counts:    append([]uint64(nil), c.counts...),
			inf:       c.inf,
			sum:       c.sum,
			count:     c.count,
		})
		c.mu.Unlock()
	}
	return out
}
