package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer table.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a caller of the server sees. Every workload reports
// every one of them; what each means on each workload is in README.md.
// Bounds are at least three times the widest quartile spread seen on any
// workload over ten seeds (results/spread.txt), and never above the
// contract's 0.25; the family medians sit at that cap, against spreads of
// up to 0.12 for live_htap's sub-millisecond polls.
func endToEnd() []metricDef {
	defs := []metricDef{
		{"setup_s", "s", "lower", 0.25},
		{"throughput_rps", "1/s", "higher", 0.15},
		{"latency_p95_ms", "ms", "lower", 0.15},
		{"alloc_mb_per_req", "MB", "lower", 0.10},
		{"sim_seconds_per_req", "sim_s", "lower", 0.05},
		{"cycle_p50_ms", "ms", "lower", 0.15},
	}
	for _, f := range families {
		defs = append(defs, metricDef{f + "_p50_ms", "ms", "lower", 0.25})
	}
	return defs
}

// perFamilyLayer are the per-layer metrics measured once per family by the
// traced replay; perLayerScalars the ones measured once per run.
var perFamilyLayer = []metricDef{
	{Name: "frameql.analyze_us", Unit: "us", Better: "lower"},
	{Name: "serve.hit_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.http_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "core.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "core.plan_candidates", Unit: "count", Better: "lower"},
	{Name: "core.exec_ms", Unit: "ms", Better: "lower"},
	{Name: "core.exec_p1_ms", Unit: "ms", Better: "lower"},
	{Name: "core.exec_speedup", Unit: "ratio", Better: "higher"},
	{Name: "core.sim_seconds", Unit: "sim_s", Better: "lower"},
	{Name: "core.detector_calls", Unit: "count", Better: "lower"},
	{Name: "core.frames_skipped_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.advance_ms", Unit: "ms", Better: "lower"},
	{Name: "plan.cursor_bytes", Unit: "bytes", Better: "lower"},
	{Name: "obs.traced_ratio", Unit: "ratio", Better: "lower"},
}

var perLayerScalars = []metricDef{
	{Name: "serve.cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.cache.evictions", Unit: "count", Better: "lower"},
	{Name: "serve.cache.get_us", Unit: "us", Better: "lower"},
	{Name: "serve.cache.put_us", Unit: "us", Better: "lower"},
	{Name: "serve.pool.executed", Unit: "count", Better: "higher"},
	{Name: "serve.pool.rejected", Unit: "count", Better: "lower"},
	{Name: "serve.pool.handoff_us", Unit: "us", Better: "lower"},
	{Name: "core.shards", Unit: "count", Better: "lower"},
	{Name: "core.chunks", Unit: "count", Better: "lower"},
	{Name: "core.append_fps", Unit: "1/s", Better: "higher"},
	{Name: "core.advance_vs_fresh", Unit: "ratio", Better: "lower"},
	{Name: "plan.cursor_codec_us", Unit: "us", Better: "lower"},
	{Name: "specnn.train_s", Unit: "s", Better: "lower"},
	{Name: "specnn.infer_fps", Unit: "1/s", Better: "higher"},
	{Name: "index.build_s", Unit: "s", Better: "lower"},
	{Name: "index.build_fps", Unit: "1/s", Better: "higher"},
	{Name: "index.extend_fps", Unit: "1/s", Better: "higher"},
	{Name: "index.memory_mb", Unit: "MB", Better: "lower"},
	{Name: "index.disk_mb", Unit: "MB", Better: "lower"},
	{Name: "index.flush_s", Unit: "s", Better: "lower"},
	{Name: "index.load_s", Unit: "s", Better: "lower"},
	{Name: "index.label_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "runtime.gc_count", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.heap_mb_peak", Unit: "MB", Better: "lower"},
	{Name: "runtime.allocs_per_req", Unit: "count", Better: "lower"},
}

// perLayer expands the per-family metrics over the families and appends the
// scalars: 14×7 + 26 = 124 names, under the contract's 128.
func perLayer() []metricDef {
	var defs []metricDef
	for _, d := range perFamilyLayer {
		for _, f := range families {
			defs = append(defs, metricDef{Name: d.Name + "." + f, Unit: d.Unit, Better: d.Better})
		}
	}
	return append(defs, perLayerScalars...)
}

// measured is one reported value; N is the sample count behind it (0 when
// the value is a single reading or a counter).
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"`
}

// report is everything one run of one workload prints.
type report struct {
	Workload  string
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]measured
	// Extra are workload-specific readings printed for people but not part
	// of the contract (ingest_fps, reopen_s, the tail percentile picked).
	Extra []string
	// Problems lists every oracle miss and failed check.
	Problems []string
	// defs are the metrics of the result line, set by finish.
	defs []metricDef
}

func newReport(workload string) *report {
	return &report{Workload: workload, Correct: true, Metrics: make(map[string]measured)}
}

func (r *report) set(name string, v float64, n int) { r.Metrics[name] = measured{Value: v, N: n} }

func (r *report) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// finish fixes which metrics the result line carries, stamps their units,
// and checks that every one was measured: a missing or non-finite value is
// a bug in the benchmark, reported as a problem rather than printed as 0.
func (r *report) finish(defs []metricDef) {
	r.defs = defs
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.problem("metric %s was not measured", d.Name)
			delete(r.Metrics, d.Name)
			continue
		}
		m.Unit = d.Unit
		r.Metrics[d.Name] = m
	}
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

func (r *report) line() resultLine {
	out := make(map[string]measured, len(r.defs))
	for _, d := range r.defs {
		if m, ok := r.Metrics[d.Name]; ok {
			out[d.Name] = m
		}
	}
	return resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: out}
}

// print writes the human-readable table, then the result line last.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "== %s: attempted %d, failed %d, correct %v\n", r.Workload, r.Attempted, r.Failed, r.Correct)
	row := func(name string) {
		m := r.Metrics[name]
		samples := ""
		if m.N > 0 {
			samples = fmt.Sprintf("  (n=%d)", m.N)
		}
		fmt.Fprintf(w, "  %-36s %14.6g %-6s%s\n", name, m.Value, m.Unit, samples)
	}
	inLine := make(map[string]bool, len(r.defs))
	for _, d := range r.defs {
		inLine[d.Name] = true
		if _, ok := r.Metrics[d.Name]; ok {
			row(d.Name)
		}
	}
	var rest []string
	for n := range r.Metrics {
		if !inLine[n] {
			rest = append(rest, n)
		}
	}
	sort.Strings(rest)
	if len(rest) > 0 {
		fmt.Fprintln(w, "  -- also measured, not in this mode's result line:")
	}
	for _, n := range rest {
		row(n)
	}
	for _, e := range r.Extra {
		fmt.Fprintln(w, "  "+strings.TrimRight(e, "\n"))
	}
	for _, p := range r.Problems {
		fmt.Fprintln(w, "  PROBLEM: "+p)
	}
	b, _ := json.Marshal(r.line())
	fmt.Fprintln(w, string(b))
}
