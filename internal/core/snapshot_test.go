package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/frameql"
	"repro/internal/plan"
)

// TestQueryPinnedBeforeAppend is the snapshot-isolation contract in
// miniature: a query opened before an ingest runs entirely against the
// snapshot it pinned at open time, so its result — answers, rows, and
// every field of the cost meter — is bit-identical to the same query on
// an engine that never ingested at all. The control engine is a second,
// identically configured live stream left at its initial horizon.
func TestQueryPinnedBeforeAppend(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	appended := liveTestEngine(t)
	control := liveTestEngine(t)
	startHorizon := appended.Horizon()
	if control.Horizon() != startHorizon {
		t.Fatalf("engines disagree on start horizon: %d vs %d", control.Horizon(), startHorizon)
	}

	queries := []string{
		`SELECT FCOUNT(*) FROM taipei WHERE class='car' ERROR WITHIN 0.1 AT CONFIDENCE 95%`,
		`SELECT FCOUNT(*) FROM taipei WHERE class='bus'`,
		`SELECT timestamp FROM taipei WHERE class = 'car' FNR WITHIN 0.02 FPR WITHIN 0.02`,
	}
	infos := make([]*frameql.Info, len(queries))
	for i, q := range queries {
		info, err := frameql.Analyze(q)
		if err != nil {
			t.Fatal(err)
		}
		infos[i] = info
		// Warm one-time preparation (training, held-out statistics,
		// segment builds) on both engines so the measured executions
		// observe identical cached charges.
		if _, err := appended.ExecuteParallel(info, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := control.ExecuteParallel(info, 1); err != nil {
			t.Fatal(err)
		}
	}

	for i, info := range infos {
		// Open before the append: the execution pins epoch 0's snapshot.
		x, err := appended.BeginQuery(info, 4)
		if err != nil {
			t.Fatal(err)
		}
		added, err := appended.AppendLive(appended.DayFrames() / 8)
		if err != nil {
			t.Fatal(err)
		}
		if added == 0 {
			t.Fatal("AppendLive added no frames")
		}
		if appended.Horizon() <= startHorizon {
			t.Fatalf("horizon did not advance: %d", appended.Horizon())
		}
		if err := x.RunTo(-1); err != nil {
			t.Fatal(err)
		}
		got, err := x.Result()
		if err != nil {
			t.Fatal(err)
		}
		cur, err := x.Suspend()
		if err != nil {
			t.Fatal(err)
		}
		if cur.Horizon != startHorizon {
			t.Fatalf("query %d: pinned cursor horizon %d, want %d", i, cur.Horizon, startHorizon)
		}

		y, err := control.BeginQuery(info, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := y.RunTo(-1); err != nil {
			t.Fatal(err)
		}
		want, err := y.Result()
		if err != nil {
			t.Fatal(err)
		}
		resultsIdentical(t, queries[i], got, want)

		// Reset the appended engine for the next case by catching the
		// control up — both streams share the deterministic day, so
		// appending on the control keeps the pair comparable.
		if _, err := control.AppendLive(control.DayFrames() / 8); err != nil {
			t.Fatal(err)
		}
		startHorizon = appended.Horizon()
		if control.Horizon() != startHorizon {
			t.Fatalf("engines diverged: %d vs %d", control.Horizon(), startHorizon)
		}
	}
}

// TestForcedAndExplainPinUnderIngest pins that the entry points which do
// not go through ExecuteParallel — ExecuteForced (and with it every
// comparison baseline), ExplainPlan and ExecuteSelectionPlan — pin the
// published snapshot too: called while AppendLive runs, each must answer
// exactly as the same call does on an engine standing still at the
// horizon it observed. Unpinned they read the master video, whose frame
// count AppendLive writes without synchronisation, which -race reports.
func TestForcedAndExplainPinUnderIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("generates streams")
	}
	opts := Options{Scale: 0.01, Seed: 1, LiveStart: 0.5}
	live, err := NewEngine("taipei", opts)
	if err != nil {
		t.Fatal(err)
	}
	control, err := NewEngine("taipei", opts)
	if err != nil {
		t.Fatal(err)
	}
	// Plans that need no training, and whose detector-call count is the
	// horizon the call ran against.
	agg, err := frameql.Analyze(`SELECT FCOUNT(*) FROM taipei WHERE class='car'`)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := frameql.Analyze(`SELECT * FROM taipei WHERE class='bus'`)
	if err != nil {
		t.Fatal(err)
	}
	forced := func(e *Engine) (*Result, error) { return e.ExecuteForced(agg, 2, "naive-exhaustive") }
	naive := func(e *Engine) (*Result, error) { return e.ExecuteSelectionPlan(sel, NaivePlan()) }
	explainedHorizon := func(rep *plan.Report) int {
		for _, c := range rep.Candidates {
			if c.Name == "naive-exhaustive" {
				return int(c.Estimate.DetectorCalls)
			}
		}
		t.Fatal("EXPLAIN lists no naive-exhaustive candidate")
		return 0
	}
	// estimates strips the calibration columns, which learn from each
	// engine's own execution history.
	estimates := func(rep *plan.Report) []plan.Candidate {
		out := make([]plan.Candidate, len(rep.Candidates))
		for i, c := range rep.Candidates {
			out[i] = plan.Candidate{Name: c.Name, Estimate: c.Estimate, Feasible: c.Feasible, Reason: c.Reason, Chosen: c.Chosen}
		}
		return out
	}

	const batches, batch = 10, 48
	var (
		wg       sync.WaitGroup
		stop     = make(chan struct{})
		results  [2][]*Result
		reports  []*plan.Report
		readErrs [3]error
	)
	reader := func(i int, call func() error) {
		defer wg.Done()
		for n := 0; ; n++ {
			select {
			case <-stop:
				if n >= 3 {
					return
				}
			default:
			}
			if readErrs[i] = call(); readErrs[i] != nil {
				return
			}
		}
	}
	wg.Add(3)
	for i, run := range []func(*Engine) (*Result, error){forced, naive} {
		go reader(i, func() error {
			res, err := run(live)
			results[i] = append(results[i], res)
			return err
		})
	}
	go reader(2, func() error {
		rep, err := live.ExplainPlan(agg, 2)
		reports = append(reports, rep)
		return err
	})
	for b := 0; b < batches; b++ {
		if _, err := live.AppendLive(batch); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
	for _, err := range readErrs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Walk the control engine through the same published horizons.
	type pinned struct {
		results [2]*Result
		report  *plan.Report
	}
	want := make(map[int]pinned)
	for b := 0; b <= batches; b++ {
		var p pinned
		for i, run := range []func(*Engine) (*Result, error){forced, naive} {
			if p.results[i], err = run(control); err != nil {
				t.Fatal(err)
			}
		}
		if p.report, err = control.ExplainPlan(agg, 2); err != nil {
			t.Fatal(err)
		}
		want[control.Horizon()] = p
		if _, err := control.AppendLive(batch); err != nil {
			t.Fatal(err)
		}
	}
	for i, label := range []string{"ExecuteForced", "ExecuteSelectionPlan"} {
		for _, got := range results[i] {
			p, ok := want[got.Stats.DetectorCalls]
			if !ok {
				t.Fatalf("%s scanned %d frames, which is no published horizon", label, got.Stats.DetectorCalls)
			}
			resultsIdentical(t, label+" under ingest vs standing still", p.results[i], got)
		}
	}
	for _, got := range reports {
		p, ok := want[explainedHorizon(got)]
		if !ok {
			t.Fatalf("ExplainPlan priced %d frames, which is no published horizon", explainedHorizon(got))
		}
		if !reflect.DeepEqual(estimates(got), estimates(p.report)) {
			t.Errorf("ExplainPlan under ingest at horizon %d differs from the standing engine's:\n%+v\n%+v",
				explainedHorizon(got), estimates(got), estimates(p.report))
		}
	}
}
