// Planner benchmarks: how long candidate enumeration and costing take on
// a warm engine (planning overhead is pure CPU — no simulated cost), and
// how closely each family's cost estimate tracks the executed plan's
// actual simulated cost.
//
// When BLAZEIT_PLANBENCH_JSON names a file, a machine-readable summary
// (planning ns/op, chosen plan, estimate vs actual simulated seconds, and
// relative estimate error per family — raw and calibrated, before and
// after the planner's feedback store warms up — plus the sparse-LIMIT
// no-hint speedup) is written there after the run — CI uploads it as the
// BENCH_plan artifact so planning overhead and estimate drift are tracked
// per commit, and cmd/benchgate fails families whose calibrated error
// exceeds the raw error or regresses against the committed baseline.
package blazeit

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"testing"
	"time"
)

// planBenchQueries is one representative query per plan family.
var planBenchQueries = []struct {
	Family string
	Query  string
}{
	{"aggregate", `SELECT FCOUNT(*) FROM taipei WHERE class='car' ERROR WITHIN 0.1 AT CONFIDENCE 95%`},
	{"scrubbing", `SELECT timestamp FROM taipei GROUP BY timestamp HAVING SUM(class='car') >= 3 LIMIT 10 GAP 100`},
	{"selection", `SELECT * FROM taipei WHERE class = 'bus' AND redness(content) >= 17.5 GROUP BY trackid HAVING COUNT(*) > 15`},
	{"binary-detection", `SELECT timestamp FROM taipei WHERE class = 'car' FNR WITHIN 0.02 FPR WITHIN 0.02`},
	{"distinct-count", `SELECT COUNT(DISTINCT trackid) FROM taipei WHERE class='car' AND timestamp < 2000`},
	{"exhaustive", `SELECT * FROM taipei WHERE (class='car' OR class='bus') AND timestamp < 1500`},
}

// planBenchRecord is one family's planning measurement.
type planBenchRecord struct {
	Family string `json:"family"`
	Chosen string `json:"chosen"`
	// PlanNsPerOp is the wall-clock cost of one ExplainPlan call on a
	// warm engine (candidate enumeration + costing, no execution).
	PlanNsPerOp float64 `json:"plan_ns_per_op"`
	// EstimateSeconds and ActualSeconds compare the chosen candidate's
	// priced simulated cost against the executed plan's recorded cost.
	EstimateSeconds float64 `json:"estimate_seconds"`
	ActualSeconds   float64 `json:"actual_seconds"`
	// EstimateError is |actual−estimate|/estimate, from the cold (first)
	// execution — the raw cost model's accuracy before any feedback.
	EstimateError float64 `json:"estimate_error"`
	// CalibratedSeconds is the chosen candidate's calibrated total-cost
	// estimate on the post-warmup execution, and CalibratedError is
	// |actual−calibrated|/calibrated for that execution. cmd/benchgate
	// fails a family whose calibrated error exceeds its raw error or
	// regresses against the committed baseline.
	CalibratedSeconds float64 `json:"calibrated_seconds,omitempty"`
	CalibratedError   float64 `json:"calibrated_error"`
	// ChosenCalibrated is the plan picked after calibration warmup;
	// PickSwitched reports whether feedback changed the pick.
	ChosenCalibrated string `json:"chosen_calibrated,omitempty"`
	PickSwitched     bool   `json:"pick_switched,omitempty"`
	// ExecNsCold and ExecNsWarm are the chosen plan's wall-clock execution
	// time before and after calibration warmup (informational — warm runs
	// skip training and reuse materialized inference).
	ExecNsCold float64 `json:"exec_ns_cold,omitempty"`
	ExecNsWarm float64 `json:"exec_ns_warm,omitempty"`
}

var planBench struct {
	mu      sync.Mutex
	records map[string]planBenchRecord
	// nohintSpeedup is the sparse-LIMIT no-hint result: cold temporal
	// simulated cost over the calibrated cost-chosen plan's (>1 means the
	// calibrated planner beats the uncalibrated pick without a hint).
	nohintSpeedup float64
}

func recordPlanBench(r planBenchRecord) {
	planBench.mu.Lock()
	defer planBench.mu.Unlock()
	if planBench.records == nil {
		planBench.records = make(map[string]planBenchRecord)
	}
	planBench.records[r.Family] = r
}

// BenchmarkPlanner measures planning overhead per family: repeated
// ExplainPlan calls on a warm engine, with one real execution beforehand
// to record estimate-vs-actual accuracy. A calibrated phase per family
// then warms the planner's feedback store with repeat executions and
// records the calibrated estimate's error alongside the raw one, plus
// whether the warmed-up pick switched. A final sub-benchmark runs the
// sparse-LIMIT graduation scenario end to end (cold temporal pick, forced
// warmup, cost-chosen density) and records the no-hint speedup.
func BenchmarkPlanner(b *testing.B) {
	sys := parBenchSystem(b)
	for _, tc := range planBenchQueries {
		b.Run(tc.Family, func(b *testing.B) {
			b.ReportAllocs()
			coldStart := time.Now()
			res, err := sys.Query(tc.Query)
			if err != nil {
				b.Fatal(err)
			}
			execNsCold := float64(time.Since(coldStart).Nanoseconds())
			rep := res.PlanReport
			if rep == nil {
				b.Fatal("no plan report")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.ExplainPlan(tc.Query); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			rec := planBenchRecord{
				Family:          tc.Family,
				Chosen:          rep.Chosen,
				PlanNsPerOp:     nsPerOp,
				EstimateSeconds: rep.EstimateSeconds,
				ActualSeconds:   rep.ActualSeconds,
				ExecNsCold:      execNsCold,
			}
			if rep.EstimateSeconds > 0 {
				rec.EstimateError = math.Abs(rep.ActualSeconds-rep.EstimateSeconds) / rep.EstimateSeconds
			}
			// Calibrated phase: two more executions push the chosen
			// candidate past the calibration threshold, then a final run
			// is priced with the fitted correction applied.
			for i := 0; i < 2; i++ {
				if _, err := sys.Query(tc.Query); err != nil {
					b.Fatal(err)
				}
			}
			warmStart := time.Now()
			warm, err := sys.Query(tc.Query)
			if err != nil {
				b.Fatal(err)
			}
			rec.ExecNsWarm = float64(time.Since(warmStart).Nanoseconds())
			if wrep := warm.PlanReport; wrep != nil {
				rec.ChosenCalibrated = wrep.Chosen
				rec.PickSwitched = wrep.Chosen != rep.Chosen
				cal := wrep.CalibratedSeconds
				if cal == 0 {
					cal = wrep.EstimateSeconds
				}
				rec.CalibratedSeconds = cal
				if cal > 0 {
					rec.CalibratedError = math.Abs(wrep.ActualSeconds-cal) / cal
				}
			}
			recordPlanBench(rec)
		})
	}

	// Sparse-LIMIT no-hint graduation, end to end on a dedicated system so
	// the family records above stay unpolluted: the cold planner picks the
	// temporal ramp, forced density runs feed the calibration store past
	// the graduation threshold, and the same query with no hint must then
	// cost-choose density-limit. The simulated-cost ratio is the speedup
	// calibration buys without any operator guidance.
	b.Run("sparse_limit_nohint", func(b *testing.B) {
		b.ReportAllocs()
		lsys, err := Open("taipei", Options{Scale: parBenchScale(), Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, class := range []string{"car", "bus"} {
			if err := lsys.BuildIndex(class); err != nil {
				b.Fatal(err)
			}
		}
		cold, err := lsys.Query(limitBenchSparseTemporal)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := lsys.Query(limitBenchSparseDensity); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		var res *Result
		for i := 0; i < b.N; i++ {
			res, err = lsys.Query(limitBenchSparseTemporal)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if res.Stats.Plan != "density-limit" {
			b.Fatalf("calibrated planner did not graduate density-limit: chose %q", res.Stats.Plan)
		}
		if cost := res.Stats.TotalSeconds(); cost > 0 {
			speedup := cold.Stats.TotalSeconds() / cost
			b.ReportMetric(speedup, "nohint-speedup")
			planBench.mu.Lock()
			planBench.nohintSpeedup = speedup
			planBench.mu.Unlock()
		}
	})
}

// planBenchJSON is the BENCH_plan.json schema.
type planBenchJSON struct {
	Scale             float64           `json:"scale"`
	Records           []planBenchRecord `json:"records"`
	MeanEstimateError float64           `json:"mean_estimate_error"`
	// MeanCalibratedError averages the per-family post-warmup calibrated
	// errors — the headline "did feedback help" number next to the raw
	// MeanEstimateError.
	MeanCalibratedError float64 `json:"mean_calibrated_error"`
	// PickSwitches counts families whose chosen plan changed after
	// calibration warmup.
	PickSwitches int `json:"pick_switches"`
	// SparseLimitNoHintSpeedup is the sparse-LIMIT scenario's cold
	// temporal simulated cost over the calibrated, cost-chosen plan's.
	SparseLimitNoHintSpeedup float64 `json:"sparse_limit_nohint_speedup,omitempty"`
}

// writePlanBenchJSON dumps collected records to the file named by
// BLAZEIT_PLANBENCH_JSON (called from TestMain after the run).
func writePlanBenchJSON() {
	path := os.Getenv("BLAZEIT_PLANBENCH_JSON")
	planBench.mu.Lock()
	records := make([]planBenchRecord, 0, len(planBench.records))
	for _, r := range planBench.records {
		records = append(records, r)
	}
	nohintSpeedup := planBench.nohintSpeedup
	planBench.mu.Unlock()
	if path == "" || len(records) == 0 {
		return
	}
	sort.Slice(records, func(i, j int) bool { return records[i].Family < records[j].Family })
	out := planBenchJSON{Scale: parBenchScale(), Records: records, SparseLimitNoHintSpeedup: nohintSpeedup}
	for _, r := range records {
		out.MeanEstimateError += r.EstimateError
		out.MeanCalibratedError += r.CalibratedError
		if r.PickSwitched {
			out.PickSwitches++
		}
	}
	out.MeanEstimateError /= float64(len(records))
	out.MeanCalibratedError /= float64(len(records))
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "plan bench json: %v\n", err)
		return
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "plan bench json: %v\n", err)
	}
}
