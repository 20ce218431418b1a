// LIMIT-execution benchmarks: what the density-ordered any-K plan buys
// against the temporal ramp. Two exhaustive-family LIMIT/GAP queries —
// a dense target (taipei cars, matches everywhere) and a sparse target
// (taipei buses, long quiet stretches) — each run under the default
// temporal plan and hint-forced onto the density-limit candidate, with
// frames scanned (detector calls), simulated cost, and wall latency
// recorded per phase. A fifth phase re-runs the sparse query with no
// hint after the earlier executions have warmed the planner's
// calibration store: the density candidate has graduated, and the
// cost-chosen plan must match the forced one.
//
// Scale comes from BLAZEIT_PARBENCH_SCALE (default 0.05 so CI stays
// fast). When BLAZEIT_LIMITBENCH_JSON names a file, a machine-readable
// summary is written there after the run — CI uploads it as the
// BENCH_limit artifact and cmd/benchgate compares it against the
// committed baseline.
package blazeit

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"testing"
	"time"
)

// The redundant OR conjunct routes both queries to the exhaustive family
// (the analyzer marks them Residual while still extracting the class for
// the density schedule), where every visited frame is one detector call —
// the cleanest frames-scanned measure for the comparison.
const (
	limitBenchDenseTemporal  = `SELECT * FROM taipei WHERE class = 'car' AND (class = 'car' OR class = 'bus') LIMIT 25 GAP 30`
	limitBenchDenseDensity   = `SELECT /*+ PLAN(density-limit) */ * FROM taipei WHERE class = 'car' AND (class = 'car' OR class = 'bus') LIMIT 25 GAP 30`
	limitBenchSparseTemporal = `SELECT * FROM taipei WHERE class = 'bus' AND (class = 'bus' OR class = 'car') LIMIT 25 GAP 30`
	limitBenchSparseDensity  = `SELECT /*+ PLAN(density-limit) */ * FROM taipei WHERE class = 'bus' AND (class = 'bus' OR class = 'car') LIMIT 25 GAP 30`
)

// limitBenchRecord is one phase's measurement.
type limitBenchRecord struct {
	Phase string  `json:"phase"`
	Scale float64 `json:"scale"`
	// NsPerOp is omitted for phases whose per-op wall time is dominated by
	// re-planning (too noisy to gate at two measured iterations).
	NsPerOp       float64 `json:"ns_per_op,omitempty"`
	SimSeconds    float64 `json:"sim_seconds"`
	FramesScanned int     `json:"frames_scanned"`
	Rows          int     `json:"rows"`
	// Plan is the executed plan family member — forced by hint in the
	// *_density phases, cost-chosen in the calibrated no-hint phase.
	Plan string `json:"plan,omitempty"`
}

var limitBench struct {
	mu      sync.Mutex
	records map[string]limitBenchRecord
}

func recordLimitBench(r limitBenchRecord) {
	limitBench.mu.Lock()
	defer limitBench.mu.Unlock()
	if limitBench.records == nil {
		limitBench.records = make(map[string]limitBenchRecord)
	}
	limitBench.records[r.Phase] = r
}

// writeLimitBenchJSON dumps collected records to the file named by
// BLAZEIT_LIMITBENCH_JSON (called from TestMain after the run), with the
// sparse-target frames-scanned savings summarized for trend dashboards.
func writeLimitBenchJSON() {
	path := os.Getenv("BLAZEIT_LIMITBENCH_JSON")
	limitBench.mu.Lock()
	records := make([]limitBenchRecord, 0, len(limitBench.records))
	for _, r := range limitBench.records {
		records = append(records, r)
	}
	limitBench.mu.Unlock()
	if path == "" || len(records) == 0 {
		return
	}
	sort.Slice(records, func(i, j int) bool { return records[i].Phase < records[j].Phase })
	out := struct {
		Scale   float64            `json:"scale"`
		Records []limitBenchRecord `json:"records"`
		// SparseFramesScannedRatio is the sparse target's temporal
		// frames-scanned over the density plan's — how much of the quiet
		// prefix the density order skips (>1 means the density plan wins).
		SparseFramesScannedRatio float64 `json:"sparse_frames_scanned_ratio,omitempty"`
		// SparseNoHintPlan is the plan the planner cost-chose for the
		// sparse query with no hint after calibration warmup — cmd/benchgate
		// fails unless it is density-limit (graduation regressed otherwise).
		SparseNoHintPlan string `json:"sparse_nohint_plan,omitempty"`
		// SparseNoHintFramesScannedRatio is the sparse target's temporal
		// frames-scanned over the calibrated no-hint run's — the savings the
		// planner now captures without being told.
		SparseNoHintFramesScannedRatio float64 `json:"sparse_nohint_frames_scanned_ratio,omitempty"`
	}{Scale: parBenchScale(), Records: records}
	var temporal, density, nohint float64
	for _, r := range records {
		switch r.Phase {
		case "sparse_temporal":
			temporal = float64(r.FramesScanned)
		case "sparse_density":
			density = float64(r.FramesScanned)
		case "sparse_nohint":
			nohint = float64(r.FramesScanned)
			out.SparseNoHintPlan = r.Plan
		}
	}
	if temporal > 0 && density > 0 {
		out.SparseFramesScannedRatio = temporal / density
	}
	if temporal > 0 && nohint > 0 {
		out.SparseNoHintFramesScannedRatio = temporal / nohint
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "limit bench json: %v\n", err)
		return
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "limit bench json: %v\n", err)
	}
}

// BenchmarkLimit measures any-K LIMIT execution in five phases: the dense
// and sparse targets, each under the temporal ramp (the cost-chosen plan;
// density candidates start gated) and hint-forced onto the density-ordered
// schedule, then the sparse target once more with no hint after the
// calibration store has warmed. System construction and the index build
// run off the clock — both plans read the same materialized segments.
func BenchmarkLimit(b *testing.B) {
	scale := parBenchScale()
	sys, err := Open("taipei", Options{Scale: scale, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, class := range []string{"car", "bus"} {
		if err := sys.BuildIndex(class); err != nil {
			b.Fatal(err)
		}
	}

	cases := []struct {
		phase, query string
		density      bool
	}{
		{"dense_temporal", limitBenchDenseTemporal, false},
		{"dense_density", limitBenchDenseDensity, true},
		{"sparse_temporal", limitBenchSparseTemporal, false},
		{"sparse_density", limitBenchSparseDensity, true},
	}
	for _, c := range cases {
		b.Run(c.phase, func(b *testing.B) {
			b.ReportAllocs()
			var res *Result
			start := time.Now()
			for i := 0; i < b.N; i++ {
				var err error
				res, err = sys.Query(c.query)
				if err != nil {
					b.Fatal(err)
				}
			}
			nsPerOp := float64(time.Since(start).Nanoseconds()) / float64(b.N)
			if c.density && res.Stats.Plan != "density-limit" {
				b.Fatalf("hint did not force the density plan: got %q", res.Stats.Plan)
			}
			b.ReportMetric(float64(res.Stats.DetectorCalls), "frames-scanned")
			recordLimitBench(limitBenchRecord{
				Phase:         c.phase,
				Scale:         scale,
				NsPerOp:       nsPerOp,
				SimSeconds:    res.Stats.TotalSeconds(),
				FramesScanned: res.Stats.DetectorCalls,
				Rows:          len(res.Rows),
				Plan:          res.Stats.Plan,
			})
		})
	}

	// Calibrated phase: the four phases above fed the planner's calibration
	// store (each executed plan reports actual-vs-estimate), so the density
	// candidate has graduated from its warmup gate. A few extra forced runs
	// guarantee the graduation threshold regardless of -benchtime, then the
	// sparse query runs with NO hint — the planner must now cost-choose
	// density-limit on its own, scanning the same frames the forced phase
	// did.
	b.Run("sparse_nohint", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < 3; i++ {
			if _, err := sys.Query(limitBenchSparseDensity); err != nil {
				b.Fatal(err)
			}
		}
		var res *Result
		for i := 0; i < b.N; i++ {
			var err error
			res, err = sys.Query(limitBenchSparseTemporal)
			if err != nil {
				b.Fatal(err)
			}
		}
		if res.Stats.Plan != "density-limit" {
			b.Fatalf("calibrated planner did not graduate density-limit: chose %q", res.Stats.Plan)
		}
		b.ReportMetric(float64(res.Stats.DetectorCalls), "frames-scanned")
		// No NsPerOp: every op here re-plans before executing, so its wall
		// time is planner-dominated and too noisy to gate at two measured
		// iterations. The phase's signal is deterministic — the cost-chosen
		// plan, frames scanned, and simulated cost — and those are gated.
		recordLimitBench(limitBenchRecord{
			Phase:         "sparse_nohint",
			Scale:         scale,
			SimSeconds:    res.Stats.TotalSeconds(),
			FramesScanned: res.Stats.DetectorCalls,
			Rows:          len(res.Rows),
			Plan:          res.Stats.Plan,
		})
	})
}
