package core

import (
	"fmt"
	"testing"

	"repro/internal/frameql"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/specnn"
	"repro/internal/vidsim"
)

// residentCases is one standing query per family the serving tier's
// benchmark subscribes: open at the top, so each grows with the stream.
var residentCases = []struct{ family, query string }{
	{"aggregate", `SELECT FCOUNT(*) FROM taipei WHERE class='car' AND timestamp >= 16 ERROR WITHIN 0.1 AT CONFIDENCE 95%`},
	{"scrubbing", `SELECT timestamp FROM taipei WHERE timestamp >= 32 GROUP BY timestamp HAVING SUM(class='car') >= 2 LIMIT 8 GAP 60`},
	{"selection", `SELECT * FROM taipei WHERE class = 'bus' AND redness(content) >= 17.5 AND timestamp >= 48 GROUP BY trackid HAVING COUNT(*) > 15`},
	{"binary", `SELECT timestamp FROM taipei WHERE class = 'car' AND timestamp >= 64 FNR WITHIN 0.02 FPR WITHIN 0.02`},
	{"distinct", `SELECT COUNT(DISTINCT trackid) FROM taipei WHERE class='bus' AND timestamp >= 80`},
	{"exhaustive", `SELECT * FROM taipei WHERE (class='car' OR class='bus') AND timestamp >= 96`},
	{"limit", `SELECT * FROM taipei WHERE class = 'bus' AND (class = 'car' OR class = 'bus') AND timestamp >= 112 LIMIT 12 GAP 40`},
}

// residentEngine opens a small live engine with both class indexes built,
// so no execution on it carries a first-caller charge.
func residentEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine("taipei", Options{
		Scale:         0.01,
		Seed:          1,
		Spec:          specnn.Options{TrainFrames: 9000, Epochs: 1, Seed: 7},
		HeldOutSample: 4000,
		LiveStart:     0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []vidsim.Class{vidsim.Car, vidsim.Bus} {
		if err := e.BuildIndex([]vidsim.Class{c}); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// standing is one family's standing query in its three forms.
type standing struct {
	family string
	info   *frameql.Info
	x      *Execution   // resident on engine r
	cur    *plan.Cursor // advanced by value on engine c
}

func beginStanding(t *testing.T, e *Engine, info *frameql.Info) *Execution {
	t.Helper()
	x, err := e.BeginQuery(info, 4)
	if err == nil {
		err = x.RunTo(-1)
	}
	if err == nil {
		_, err = x.Result()
	}
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// TestResidentAdvanceMatchesCursorAndFresh is the resident execution's
// contract, for all seven families over four appends (two of them ending
// inside a chunk): Execution.Advance on one engine, Engine.Advance of a
// cursor on a second engine kept in lockstep, and a fresh execution of the
// same plan on a third agree bit for bit — Result, full cost meter, plan,
// and drift state. Half way, every resident execution is suspended, sent
// through the cursor's wire form, and resumed on yet another engine, where
// it keeps agreeing.
func TestResidentAdvanceMatchesCursorAndFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	r, c, f, second := residentEngine(t), residentEngine(t), residentEngine(t), residentEngine(t)
	var subs []*standing
	for _, tc := range residentCases {
		info, err := frameql.Analyze(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		s := &standing{family: tc.family, info: info, x: beginStanding(t, r, info)}
		if s.cur, err = beginStanding(t, c, info).Suspend(); err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	for step, n := range []int{700, index.ChunkFrames + 324, 300, 2 * index.ChunkFrames} {
		for _, e := range []*Engine{r, c, f, second} {
			if added, err := e.AppendLive(n); err != nil || added != n {
				t.Fatalf("append %d: added %d, %v", n, added, err)
			}
		}
		if step == 2 {
			// Mid-life migration: the resident executions leave r as cursors
			// and continue on the second engine.
			for _, s := range subs {
				cur, err := s.x.Suspend()
				if err != nil {
					t.Fatal(err)
				}
				wire, err := cur.Encode()
				if err != nil {
					t.Fatal(err)
				}
				if cur, err = plan.DecodeCursor(wire); err != nil {
					t.Fatal(err)
				}
				if s.x, err = second.ResumeQuery(cur); err != nil {
					t.Fatalf("%s: resuming on a second engine: %v", s.family, err)
				}
			}
		}
		for _, s := range subs {
			label := fmt.Sprintf("%s, append %d", s.family, step)
			resident, err := s.x.Advance(nil)
			if err != nil {
				t.Fatalf("%s: resident advance: %v", label, err)
			}
			if s.x.Horizon() != r.Horizon() {
				t.Fatalf("%s: resident execution at horizon %d, stream at %d", label, s.x.Horizon(), r.Horizon())
			}
			byCursor, ncur, err := c.Advance(s.cur)
			if err != nil {
				t.Fatalf("%s: cursor advance: %v", label, err)
			}
			s.cur = ncur
			fresh, err := f.ExecuteForced(s.info, 4, s.x.PlanName())
			if err != nil {
				t.Fatalf("%s: fresh: %v", label, err)
			}
			answersIdentical(t, label+": resident vs fresh", resident, fresh)
			if ncur.Plan != s.x.PlanName() {
				// Engines r and c are in lockstep until the migration; after
				// it their calibration histories differ, and so may a drift
				// re-plan. Each side still has to equal a fresh run of its plan.
				if step < 2 {
					t.Fatalf("%s: resident runs %s, cursor %s", label, s.x.PlanName(), ncur.Plan)
				}
				if fresh, err = f.ExecuteForced(s.info, 4, ncur.Plan); err != nil {
					t.Fatal(err)
				}
				answersIdentical(t, label+": cursor vs fresh", byCursor, fresh)
				continue
			}
			resultsIdentical(t, label+": resident vs cursor", resident, byCursor)
			if step < 2 && (s.x.ReplanAtHorizon() != ncur.ReplanAtHorizon || s.x.PlanSwitches() != ncur.PlanSwitches) {
				t.Errorf("%s: drift state (replan at %d, %d switches) vs cursor's (%d, %d)", label,
					s.x.ReplanAtHorizon(), s.x.PlanSwitches(), ncur.ReplanAtHorizon, ncur.PlanSwitches)
			}
			// Nothing new: the resident execution answers from what it has.
			again, err := s.x.Advance(nil)
			if err != nil || again != resident {
				t.Errorf("%s: idle advance returned a different result (%v)", label, err)
			}
		}
	}
}

// TestResidentAdvanceAcrossReplanBoundary drives the drift protocol on a
// resident execution and on a cursor in lockstep: both arm the same
// chunk-aligned boundary, keep their plan before it, switch at it, and
// answer as a fresh query does throughout.
func TestResidentAdvanceAcrossReplanBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	q := `SELECT * FROM taipei WHERE class = 'bus' AND (class = 'bus' OR class = 'car') AND timestamp >= 2048 LIMIT 20 GAP 10`
	info, err := frameql.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	r, c, f := residentEngine(t), residentEngine(t), residentEngine(t)
	x := beginStanding(t, r, info)
	cur, err := beginStanding(t, c, info).Suspend()
	if err != nil {
		t.Fatal(err)
	}
	if cur.Forced || cur.Plan != "exhaustive" {
		t.Fatalf("standing query pinned %q (forced=%v), want cost-picked exhaustive", cur.Plan, cur.Forced)
	}
	// As TestDriftReplanAtChunkBoundary: a floored correction makes the
	// incumbent's actual cost escape its calibrated band, and a graduated
	// density candidate gives the boundary something cheaper to switch to.
	for _, e := range []*Engine{r, c} {
		seedCalib(e, "exhaustive", "exhaustive", 1e-4, 1e-4, 1e-4)
		seedCalib(e, "exhaustive", densityPlanName, 1e-4, 1e-4, 1e-4)
	}
	switched := false
	for step := 0; step < 6 && !switched; step++ {
		for _, e := range []*Engine{r, c, f} {
			if _, err := e.AppendLive(index.ChunkFrames / 2); err != nil {
				t.Fatal(err)
			}
		}
		label := fmt.Sprintf("append %d", step)
		before := x.ReplanAtHorizon()
		resident, err := x.Advance(nil)
		if err != nil {
			t.Fatal(err)
		}
		byCursor, ncur, err := c.Advance(cur)
		if err != nil {
			t.Fatal(err)
		}
		cur = ncur
		if x.PlanName() != cur.Plan || x.ReplanAtHorizon() != cur.ReplanAtHorizon || x.PlanSwitches() != cur.PlanSwitches {
			t.Fatalf("%s: resident (%s, replan at %d, %d switches) vs cursor (%s, %d, %d)", label,
				x.PlanName(), x.ReplanAtHorizon(), x.PlanSwitches(), cur.Plan, cur.ReplanAtHorizon, cur.PlanSwitches)
		}
		resultsIdentical(t, label+": resident vs cursor", resident, byCursor)
		fresh, err := f.ExecuteForced(info, 4, x.PlanName())
		if err != nil {
			t.Fatal(err)
		}
		answersIdentical(t, label+": resident vs fresh", resident, fresh)
		switch {
		case x.PlanSwitches() == 1:
			switched = true
			if before == 0 || r.Horizon() < before || x.PlanName() != densityPlanName {
				t.Fatalf("%s: switched to %s at horizon %d with boundary %d", label, x.PlanName(), r.Horizon(), before)
			}
		case step == 0 && x.ReplanAtHorizon() == 0:
			t.Fatal("drifted advance did not arm a re-plan boundary")
		}
	}
	if !switched {
		t.Fatal("the resident execution never crossed its re-plan boundary")
	}
}

// TestResidentAdvanceSurvivesError injects a failure into one advance of a
// resident execution — part of the appended suffix is already folded into
// its accumulator when the scan stops — and requires the next advance to
// answer exactly as a fresh query, and the execution to suspend and resume
// normally afterwards.
func TestResidentAdvanceSurvivesError(t *testing.T) {
	if testing.Short() {
		t.Skip("generates streams")
	}
	e, err := NewEngine("taipei", Options{Scale: 0.01, Seed: 1, LiveStart: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	info, err := frameql.Analyze(`SELECT * FROM taipei WHERE (class='car' OR class='bus') AND timestamp >= 100`)
	if err != nil {
		t.Fatal(err)
	}
	x := beginStanding(t, e, info)
	if _, err := e.AppendLive(1500); err != nil {
		t.Fatal(err)
	}
	// The execution and its kernel read the predicate through info: swap in
	// one that fails on the first row past frame 6400, a few hundred frames
	// into the suffix.
	good := info.Stmt.Where
	bad, err := frameql.Analyze(`SELECT * FROM taipei WHERE timestamp < 6400 OR nosuchfield = 1`)
	if err != nil {
		t.Fatal(err)
	}
	info.Stmt.Where = bad.Stmt.Where
	if _, err := x.Advance(nil); err == nil {
		t.Fatal("advance over a failing predicate returned no error")
	}
	if _, err := x.Suspend(); err == nil {
		t.Error("a half-advanced execution suspended")
	}
	info.Stmt.Where = good
	if _, err := e.AppendLive(700); err != nil {
		t.Fatal(err)
	}
	got, err := x.Advance(nil)
	if err != nil {
		t.Fatalf("advance after a failed one: %v", err)
	}
	want, err := e.ExecuteParallel(info, 4)
	if err != nil {
		t.Fatal(err)
	}
	resultsIdentical(t, "advance after a failed one vs fresh", got, want)
	cur, err := x.Suspend()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AppendLive(400); err != nil {
		t.Fatal(err)
	}
	byCursor, _, err := e.Advance(cur)
	if err != nil {
		t.Fatal(err)
	}
	resident, err := x.Advance(nil)
	if err != nil {
		t.Fatal(err)
	}
	resultsIdentical(t, "recovered execution: resident vs its cursor", resident, byCursor)
}
