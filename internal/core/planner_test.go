package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/frameql"
	"repro/internal/plan"
)

// TestPlannerRegression is the planner's behavioral contract, table-driven
// over example queries of every family:
//
//   - the pick lands in the family the old rule-based switch dispatched
//     to, and — queries being chosen for stability — on the exact plan the
//     pre-planner optimizer ran (pinned bit-exactly by TestGoldenResults);
//   - the chosen plan's actual simulated cost falls within the estimate's
//     claimed accuracy bound;
//   - the chosen plan's actual cost (excluding one-time training, the
//     paper's no-train accounting) is no worse than every forced baseline
//     plan's actual cost;
//   - the pick is parallelism-independent.
func TestPlannerRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	e := testEngine(t, "taipei")
	cases := []struct {
		name      string
		query     string
		family    string
		oldPlan   string
		baselines [][]string // forced-name lists, first match wins
	}{
		{
			name:    "aggregate-tolerance",
			query:   `SELECT FCOUNT(*) FROM taipei WHERE class='car' ERROR WITHIN 0.1 AT CONFIDENCE 95%`,
			family:  "aggregate",
			oldPlan: "control-variates",
			baselines: [][]string{
				{"naive-aqp"}, {"naive-exhaustive"}, {"noscope-oracle"},
			},
		},
		{
			name:      "aggregate-exact",
			query:     `SELECT FCOUNT(*) FROM taipei WHERE class='bus'`,
			family:    "aggregate",
			oldPlan:   "naive-exhaustive",
			baselines: [][]string{{"naive-exhaustive"}},
		},
		{
			name:      "aggregate-no-model",
			query:     `SELECT FCOUNT(*) FROM taipei WHERE class='bear' ERROR WITHIN 0.1`,
			family:    "aggregate",
			oldPlan:   "naive-aqp",
			baselines: [][]string{{"naive-aqp"}, {"naive-exhaustive"}},
		},
		{
			name:    "scrubbing",
			query:   `SELECT timestamp FROM taipei GROUP BY timestamp HAVING SUM(class='car') >= 3 LIMIT 5 GAP 30`,
			family:  "scrubbing",
			oldPlan: "scrub-importance",
			baselines: [][]string{
				{"scrub-sequential", "scrub-sequential-fallback"},
			},
		},
		{
			name:      "scrubbing-no-model",
			query:     `SELECT timestamp FROM taipei GROUP BY timestamp HAVING SUM(class='bear') >= 1 AND timestamp < 4000 LIMIT 1`,
			family:    "scrubbing",
			oldPlan:   "scrub-sequential-fallback",
			baselines: [][]string{{"scrub-sequential", "scrub-sequential-fallback"}},
		},
		{
			name:    "selection",
			query:   `SELECT * FROM taipei WHERE class = 'bus' AND redness(content) >= 17.5 AND area(mask) > 60000 GROUP BY trackid HAVING COUNT(*) > 15`,
			family:  "selection",
			oldPlan: "selection-all-filters",
			baselines: [][]string{
				{"selection-naive"}, {"selection-noscope-oracle"},
			},
		},
		{
			name:      "binary",
			query:     `SELECT timestamp FROM taipei WHERE class = 'car' FNR WITHIN 0.02 FPR WITHIN 0.02`,
			family:    "binary-detection",
			oldPlan:   "binary-cascade",
			baselines: [][]string{{"binary-exact"}},
		},
		{
			name:      "distinct",
			query:     `SELECT COUNT(DISTINCT trackid) FROM taipei WHERE class='bus' AND timestamp < 3000`,
			family:    "distinct-count",
			oldPlan:   "exhaustive-tracking",
			baselines: nil,
		},
		{
			name:      "exhaustive",
			query:     `SELECT * FROM taipei WHERE (class='car' OR class='bus') AND timestamp < 2500`,
			family:    "exhaustive",
			oldPlan:   "exhaustive",
			baselines: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			info, err := frameql.Analyze(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Execute(info)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Plan != tc.oldPlan {
				t.Fatalf("planner picked %q, pre-planner optimizer ran %q", res.Stats.Plan, tc.oldPlan)
			}
			rep := res.PlanReport
			if rep == nil {
				t.Fatal("Result carries no PlanReport")
			}
			if rep.Family != tc.family {
				t.Fatalf("planned family %q, old switch dispatched to %q", rep.Family, tc.family)
			}
			if rep.Chosen != tc.oldPlan || rep.Forced {
				t.Fatalf("report chose %q (forced=%v)", rep.Chosen, rep.Forced)
			}

			// Estimate accuracy: the chosen candidate's actual total cost
			// must fall within its claimed multiplicative bound.
			var chosen *plan.Candidate
			for i := range rep.Candidates {
				if rep.Candidates[i].Chosen {
					chosen = &rep.Candidates[i]
				}
			}
			if chosen == nil {
				t.Fatal("no candidate marked chosen")
			}
			actual := res.Stats.TotalSeconds()
			if rep.ActualSeconds != actual {
				t.Fatalf("report actual %v != stats total %v", rep.ActualSeconds, actual)
			}
			est, acc := chosen.EstimateSeconds, chosen.Accuracy
			if acc <= 0 {
				t.Fatalf("chosen candidate claims no accuracy factor: %+v", chosen)
			}
			if actual > est*acc {
				t.Errorf("actual %.1f exceeds estimate %.1f × accuracy %.1f", actual, est, acc)
			}
			if !chosen.UpperBoundOnly && actual < est/acc {
				t.Errorf("actual %.1f undershoots estimate %.1f / accuracy %.1f", actual, est, acc)
			}

			// The cost-based pick must not lose to any forced baseline on
			// actual per-query cost (training excluded — the paper's
			// no-train accounting; baselines never train).
			chosenCost := res.Stats.TotalSecondsNoTrain()
			for _, names := range tc.baselines {
				forced, err := e.ExecuteForced(info, 0, names...)
				if err != nil {
					t.Fatalf("forcing %v: %v", names, err)
				}
				if !forced.PlanReport.Forced {
					t.Fatalf("forced run's report not marked forced")
				}
				if fc := forced.Stats.TotalSecondsNoTrain(); chosenCost > fc+1e-9 {
					t.Errorf("chosen %s costs %.1f, forced baseline %s costs %.1f — planner lost",
						res.Stats.Plan, chosenCost, forced.Stats.Plan, fc)
				}
			}

			// Plan choice is parallelism-independent.
			for _, par := range []int{1, 8} {
				r2, err := e.ExplainPlan(info, par)
				if err != nil {
					t.Fatal(err)
				}
				if r2.Chosen != rep.Chosen {
					t.Errorf("parallelism %d changes pick: %q vs %q", par, r2.Chosen, rep.Chosen)
				}
			}
		})
	}
}

// TestExplainPlanAggregateCandidates pins the acceptance criterion:
// EXPLAIN on an aggregate query prices at least two feasible candidates
// without executing anything.
func TestExplainPlanAggregateCandidates(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	e := testEngine(t, "taipei")
	info, err := frameql.Analyze(`SELECT FCOUNT(*) FROM taipei WHERE class='car' ERROR WITHIN 0.1 AT CONFIDENCE 95%`)
	if err != nil {
		t.Fatal(err)
	}
	before := e.Accounting().Executions
	rep, err := e.ExplainPlan(info, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Accounting().Executions; got != before {
		t.Fatalf("ExplainPlan executed a query: %d -> %d", before, got)
	}
	costed := 0
	for _, c := range rep.Candidates {
		if c.Feasible && c.EstimateSeconds >= 0 {
			costed++
		}
	}
	if costed < 2 {
		t.Fatalf("aggregate EXPLAIN returned %d costed candidates, want >= 2:\n%+v", costed, rep.Candidates)
	}
	if rep.ActualSeconds != 0 {
		t.Fatalf("EXPLAIN report claims actual cost %v without executing", rep.ActualSeconds)
	}
}

// TestPlannerHints covers the /*+ PLAN(name) */ path end to end: the
// named candidate executes, the report is marked forced, and unknown or
// infeasible names error with the candidate list.
func TestPlannerHints(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	e := testEngine(t, "taipei")
	res, err := e.Query(`SELECT /*+ PLAN(naive-aqp) */ FCOUNT(*) FROM taipei WHERE class='car' ERROR WITHIN 0.1`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Plan != "naive-aqp" {
		t.Fatalf("hint ignored: plan = %q", res.Stats.Plan)
	}
	if !res.PlanReport.Forced {
		t.Fatal("hinted execution's report not marked forced")
	}
	// Gated oracle baselines are hint-forcible.
	res, err = e.Query(`SELECT /*+ PLAN(noscope-oracle) */ FCOUNT(*) FROM taipei WHERE class='car' ERROR WITHIN 0.1`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Plan != "noscope-oracle" {
		t.Fatalf("plan = %q", res.Stats.Plan)
	}
	// Unknown plan names error and name the candidates.
	_, err = e.Query(`SELECT /*+ PLAN(warp-drive) */ FCOUNT(*) FROM taipei WHERE class='car' ERROR WITHIN 0.1`)
	if err == nil || !strings.Contains(err.Error(), "control-variates") {
		t.Fatalf("unknown hint error should list candidates, got: %v", err)
	}
	// Infeasible plans cannot be forced.
	_, err = e.Query(`SELECT /*+ PLAN(naive-aqp) */ FCOUNT(*) FROM taipei WHERE class='car'`)
	if err == nil || !strings.Contains(err.Error(), "not executable") {
		t.Fatalf("forcing an infeasible plan should error, got: %v", err)
	}
}

// TestPlannerAccounting checks pick accounting: executions recorded per
// family and plan, forced picks counted, estimate error tracked — and that
// two snapshots Merge into their sum.
func TestPlannerAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	e := testEngine(t, "taipei")
	info, err := frameql.Analyze(`SELECT FCOUNT(*) FROM taipei WHERE class='car' ERROR WITHIN 0.1 AT CONFIDENCE 95%`)
	if err != nil {
		t.Fatal(err)
	}
	before := e.Accounting()
	if _, err := e.Execute(info); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecuteForced(info, 0, "naive-exhaustive"); err != nil {
		t.Fatal(err)
	}
	after := e.Accounting()
	if after.Planned != before.Planned+2 {
		t.Fatalf("planned %d -> %d, want +2", before.Planned, after.Planned)
	}
	if after.Forced != before.Forced+1 {
		t.Fatalf("forced %d -> %d, want +1", before.Forced, after.Forced)
	}
	agg := after.Picks["aggregate"]
	if agg == nil || agg["control-variates"] == 0 || agg["naive-exhaustive"] == 0 {
		t.Fatalf("picks = %+v", after.Picks)
	}
	if after.MeanEstimateError() <= 0 {
		t.Fatalf("mean estimate error not tracked: %+v", after)
	}

	var sum Accounting
	sum.Merge(after)
	if !reflect.DeepEqual(sum, after) {
		t.Fatalf("zero.Merge(a) = %+v, want a = %+v", sum, after)
	}
	sum.Merge(after)
	we, one := sum.WindowErrors["aggregate"], after.WindowErrors["aggregate"]
	if sum.Planned != 2*after.Planned || sum.Picks["aggregate"]["naive-exhaustive"] != 2*agg["naive-exhaustive"] ||
		sum.Prepared["aggregate"].Misses != 2*after.Prepared["aggregate"].Misses ||
		we.Samples != 2*one.Samples || we.Lifetime != 2*one.Lifetime || math.Abs(we.MeanError-one.MeanError) > 1e-12 {
		t.Fatalf("a.Merge(a) = %+v, want every count doubled and the window mean unchanged", sum)
	}
	if agg["naive-exhaustive"] != after.Picks["aggregate"]["naive-exhaustive"] {
		t.Fatal("Merge wrote through to the merged-in snapshot's pick map")
	}
	if math.Abs(sum.MeanEstimateError()-after.MeanEstimateError()) > 1e-12 {
		t.Fatalf("merged mean estimate error %v, want %v", sum.MeanEstimateError(), after.MeanEstimateError())
	}
}

// TestSeedDerivationGuard pins the Options.withDefaults fix: Seed == -17
// must not derive the zero specialized-network seed sentinel (which
// specnn would silently re-default, changing training results).
func TestSeedDerivationGuard(t *testing.T) {
	o := Options{Seed: -17}.withDefaults()
	if o.Spec.Seed == 0 {
		t.Fatal("Seed == -17 derives Spec.Seed == 0, which specnn re-defaults")
	}
	// The common path is unchanged.
	if got := (Options{Seed: 1}).withDefaults().Spec.Seed; got != 18 {
		t.Fatalf("Seed 1 derives Spec.Seed %d, want 18", got)
	}
	// Explicit spec seeds pass through.
	explicit := Options{Seed: 1}
	explicit.Spec.Seed = 99
	if got := explicit.withDefaults().Spec.Seed; got != 99 {
		t.Fatalf("explicit Spec.Seed overridden: %d", got)
	}
}
