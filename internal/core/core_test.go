package core

import (
	"math"
	"sync"
	"testing"

	"repro/internal/frameql"
	"repro/internal/specnn"
	"repro/internal/vidsim"
)

// testEngine caches engines per stream across tests in this package:
// engine construction trains nothing, but day generation is worth sharing.
var (
	engineMu    sync.Mutex
	engineCache = map[string]*Engine{}
)

func testEngine(t *testing.T, stream string) *Engine {
	t.Helper()
	engineMu.Lock()
	defer engineMu.Unlock()
	if e, ok := engineCache[stream]; ok {
		return e
	}
	e, err := NewEngine(stream, Options{
		Scale: 0.02,
		Seed:  1,
		Spec: specnn.Options{
			TrainFrames: 18000,
			Epochs:      2,
			Seed:        7,
		},
		HeldOutSample: 8000,
	})
	if err != nil {
		t.Fatal(err)
	}
	engineCache[stream] = e
	return e
}

func TestNewEngineUnknownStream(t *testing.T) {
	if _, err := NewEngine("bogus", Options{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestQueryWrongVideo(t *testing.T) {
	e := testEngine(t, "taipei")
	if _, err := e.Query("SELECT FCOUNT(*) FROM rialto WHERE class='boat'"); err == nil {
		t.Fatal("expected video mismatch error")
	}
}

func TestAggregateRewriteOrCV(t *testing.T) {
	e := testEngine(t, "taipei")
	res, err := e.Query(`SELECT FCOUNT(*) FROM taipei WHERE class='car' ERROR WITHIN 0.1 AT CONFIDENCE 95%`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Plan != "specialized-rewrite" && res.Stats.Plan != "control-variates" {
		t.Fatalf("plan = %s", res.Stats.Plan)
	}
	// Compare to the exact detector answer.
	truth := exactMean(e, vidsim.Car)
	if math.Abs(res.Value-truth) > 0.15 {
		t.Errorf("estimate %.3f vs truth %.3f (plan %s)", res.Value, truth, res.Stats.Plan)
	}
	// The optimized plan must call the detector far less than every frame.
	if res.Stats.DetectorCalls > e.Test.Frames/10 {
		t.Errorf("too many detector calls: %d of %d frames", res.Stats.DetectorCalls, e.Test.Frames)
	}
	if res.Stats.TotalSecondsNoTrain() > res.Stats.TotalSeconds() {
		t.Error("no-train accounting exceeds full accounting")
	}
}

func exactMean(e *Engine, class vidsim.Class) float64 {
	total := 0
	for f := 0; f < e.Test.Frames; f++ {
		total += e.DTest.CountAt(f, class)
	}
	return float64(total) / float64(e.Test.Frames)
}

func TestAggregateCountScaling(t *testing.T) {
	e := testEngine(t, "taipei")
	fc, err := e.Query(`SELECT FCOUNT(*) FROM taipei WHERE class='car' ERROR WITHIN 0.1`)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := e.Query(`SELECT COUNT(*) FROM taipei WHERE class='car' ERROR WITHIN 0.1`)
	if err != nil {
		t.Fatal(err)
	}
	ratio := ct.Value / fc.Value
	if math.Abs(ratio-float64(e.Test.Frames)) > 0.2*float64(e.Test.Frames) {
		t.Errorf("COUNT/FCOUNT ratio %.0f, want ~frames %d", ratio, e.Test.Frames)
	}
}

func TestAggregateNoToleranceIsExhaustive(t *testing.T) {
	e := testEngine(t, "taipei")
	res, err := e.Query(`SELECT FCOUNT(*) FROM taipei WHERE class='bus'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Plan != "naive-exhaustive" {
		t.Fatalf("plan = %s", res.Stats.Plan)
	}
	if res.Stats.DetectorCalls != e.Test.Frames {
		t.Errorf("calls = %d, want every frame", res.Stats.DetectorCalls)
	}
	if math.Abs(res.Value-exactMean(e, vidsim.Bus)) > 1e-12 {
		t.Error("exhaustive answer should be exact")
	}
}

func TestAggregateUnknownClassFallsBackToAQP(t *testing.T) {
	e := testEngine(t, "taipei")
	res, err := e.Query(`SELECT FCOUNT(*) FROM taipei WHERE class='bear' ERROR WITHIN 0.1`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Plan != "naive-aqp" {
		t.Fatalf("plan = %s (bears have no training examples)", res.Stats.Plan)
	}
	if math.Abs(res.Value) > 0.1 {
		t.Errorf("bear count = %v, want ~0", res.Value)
	}
}

func TestAggregateBaselinesAgree(t *testing.T) {
	e := testEngine(t, "taipei")
	info, err := frameql.Analyze(`SELECT FCOUNT(*) FROM taipei WHERE class='car' ERROR WITHIN 0.1`)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := e.ExecuteForced(info, 0, "naive-exhaustive")
	if err != nil {
		t.Fatal(err)
	}
	ns, err := e.ExecuteForced(info, 0, "noscope-oracle")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(naive.Value-ns.Value) > 1e-9 {
		t.Errorf("oracle baseline %.4f != naive %.4f", ns.Value, naive.Value)
	}
	if ns.Stats.DetectorCalls >= naive.Stats.DetectorCalls {
		t.Error("oracle baseline should save detector calls")
	}
	sampled, err := e.ExecuteForced(info, 0, "naive-aqp")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sampled.Value-naive.Value) > 0.15 {
		t.Errorf("AQP %.3f vs naive %.3f", sampled.Value, naive.Value)
	}
	if sampled.Stats.DetectorCalls >= naive.Stats.DetectorCalls/10 {
		t.Errorf("AQP used %d calls; expected far fewer than naive %d", sampled.Stats.DetectorCalls, naive.Stats.DetectorCalls)
	}
}

func TestScrubbingFindsTruePositivesOnly(t *testing.T) {
	e := testEngine(t, "taipei")
	res, err := e.Query(`
		SELECT timestamp FROM taipei GROUP BY timestamp
		HAVING SUM(class='car') >= 3 LIMIT 5 GAP 30`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Plan != "scrub-importance" {
		t.Fatalf("plan = %s", res.Stats.Plan)
	}
	if len(res.Frames) == 0 {
		t.Fatal("no frames found")
	}
	for _, f := range res.Frames {
		if e.DTest.CountAt(f, vidsim.Car) < 3 {
			t.Errorf("frame %d does not satisfy the predicate", f)
		}
	}
	// GAP respected.
	for i := range res.Frames {
		for j := i + 1; j < len(res.Frames); j++ {
			if absInt(res.Frames[i]-res.Frames[j]) < 30 {
				t.Errorf("frames %d and %d violate GAP 30", res.Frames[i], res.Frames[j])
			}
		}
	}
}

func TestScrubbingBeatsBaselines(t *testing.T) {
	e := testEngine(t, "taipei")
	info, err := frameql.Analyze(`
		SELECT timestamp FROM taipei GROUP BY timestamp
		HAVING SUM(class='car') >= 4 LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	blaze, err := e.Execute(info)
	if err != nil {
		t.Fatal(err)
	}
	if len(blaze.Frames) < 5 {
		t.Skip("not enough instances at this scale")
	}
	naive, err := e.ExecuteForced(info, 0, "scrub-sequential", "scrub-sequential-fallback")
	if err != nil {
		t.Fatal(err)
	}
	if blaze.Stats.DetectorCalls >= naive.Stats.DetectorCalls {
		t.Errorf("importance sampling used %d calls vs naive %d", blaze.Stats.DetectorCalls, naive.Stats.DetectorCalls)
	}
	ns, err := e.ExecuteForced(info, 0, "scrub-noscope-oracle")
	if err != nil {
		t.Fatal(err)
	}
	if blaze.Stats.DetectorCalls >= ns.Stats.DetectorCalls {
		t.Errorf("importance sampling used %d calls vs noscope %d", blaze.Stats.DetectorCalls, ns.Stats.DetectorCalls)
	}
}

func TestScrubbingMultiClass(t *testing.T) {
	e := testEngine(t, "taipei")
	res, err := e.Query(`
		SELECT timestamp FROM taipei GROUP BY timestamp
		HAVING SUM(class='bus') >= 1 AND SUM(class='car') >= 2 LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Frames {
		if e.DTest.CountAt(f, vidsim.Bus) < 1 || e.DTest.CountAt(f, vidsim.Car) < 2 {
			t.Errorf("frame %d fails the joint predicate", f)
		}
	}
}

func TestScrubbingUnknownClassFallsBack(t *testing.T) {
	e := testEngine(t, "taipei")
	res, err := e.Query(`
		SELECT timestamp FROM taipei GROUP BY timestamp
		HAVING SUM(class='bear') >= 1 LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Plan != "scrub-sequential-fallback" {
		t.Fatalf("plan = %s", res.Stats.Plan)
	}
	if len(res.Frames) != 0 {
		t.Error("found nonexistent bears")
	}
}

func TestSelectionAllFilters(t *testing.T) {
	e := testEngine(t, "taipei")
	info, err := frameql.Analyze(`
		SELECT * FROM taipei
		WHERE class = 'bus' AND redness(content) >= 17.5 AND area(mask) > 60000
		GROUP BY trackid HAVING COUNT(*) > 15`)
	if err != nil {
		t.Fatal(err)
	}
	blaze, err := e.Execute(info)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := e.ExecuteForced(info, 0, "selection-naive")
	if err != nil {
		t.Fatal(err)
	}
	if len(naive.TrackIDs) == 0 {
		t.Skip("no qualifying red buses at this scale")
	}
	// No false positives: every returned row satisfies all predicates.
	for _, row := range blaze.Rows {
		if row.Class != vidsim.Bus {
			t.Errorf("row class %s", row.Class)
		}
		if row.Content.Redness() < 17.5 {
			t.Errorf("row redness %.1f below threshold", row.Content.Redness())
		}
		if row.Mask.Area() <= 60000 {
			t.Errorf("row area %.0f below threshold", row.Mask.Area())
		}
	}
	// Cost: far fewer detector seconds than naive.
	if blaze.Stats.DetectorSeconds >= naive.Stats.DetectorSeconds/2 {
		t.Errorf("filters saved too little: %.1fs vs naive %.1fs",
			blaze.Stats.DetectorSeconds, naive.Stats.DetectorSeconds)
	}
	// Recall vs the naive plan (which defines detector ground truth):
	// measured as FNR over qualifying entities, must be reasonably low.
	fnr := falseNegativeRate(naive.EvalTruthIDs(), blaze.EvalTruthIDs())
	if fnr > 0.34 {
		t.Errorf("FNR %.2f too high", fnr)
	}
}

func falseNegativeRate(truth, got []int) float64 {
	if len(truth) == 0 {
		return 0
	}
	set := make(map[int]bool, len(got))
	for _, id := range got {
		set[id] = true
	}
	misses := 0
	seen := make(map[int]bool)
	total := 0
	for _, id := range truth {
		if seen[id] {
			continue
		}
		seen[id] = true
		total++
		if !set[id] {
			misses++
		}
	}
	return float64(misses) / float64(total)
}

func TestSelectionNoScopeBaseline(t *testing.T) {
	e := testEngine(t, "taipei")
	info, err := frameql.Analyze(`
		SELECT * FROM taipei WHERE class = 'bus' AND redness(content) >= 17.5`)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := e.ExecuteForced(info, 0, "selection-noscope-oracle")
	if err != nil {
		t.Fatal(err)
	}
	naive, err := e.ExecuteForced(info, 0, "selection-naive")
	if err != nil {
		t.Fatal(err)
	}
	if ns.Stats.DetectorCalls >= naive.Stats.DetectorCalls {
		t.Error("oracle should reduce detector calls for a rare class")
	}
	// Oracle visits every occupied frame, so it returns every naive row.
	if len(ns.Rows) != len(naive.Rows) {
		t.Errorf("oracle rows %d != naive rows %d", len(ns.Rows), len(naive.Rows))
	}
}

func TestExhaustiveResidualQuery(t *testing.T) {
	e := testEngine(t, "taipei")
	res, err := e.Query(`SELECT * FROM taipei WHERE (class = 'bus' OR class = 'car') AND timestamp < 500 LIMIT 20`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Plan != "exhaustive" {
		t.Fatalf("plan = %s", res.Stats.Plan)
	}
	if len(res.Rows) == 0 {
		t.Fatal("expected rows")
	}
	if len(res.Rows) > 20 {
		t.Errorf("LIMIT violated: %d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Class != vidsim.Bus && row.Class != vidsim.Car {
			t.Errorf("row class %s fails OR predicate", row.Class)
		}
		if row.Timestamp >= 500 {
			t.Errorf("row timestamp %d violates bound", row.Timestamp)
		}
	}
}

func TestDistinctCount(t *testing.T) {
	e := testEngine(t, "taipei")
	res, err := e.Query(`SELECT COUNT(DISTINCT trackid) FROM taipei WHERE class='bus' AND timestamp < 3000`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Plan != "exhaustive-tracking" {
		t.Fatalf("plan = %s", res.Stats.Plan)
	}
	if res.Value < 0 {
		t.Error("negative distinct count")
	}
}

func TestModelCaching(t *testing.T) {
	e := testEngine(t, "taipei")
	_, cost1, err := e.Model([]vidsim.Class{vidsim.Car})
	if err != nil {
		t.Fatal(err)
	}
	m2, cost2, err := e.Model([]vidsim.Class{vidsim.Car})
	if err != nil {
		t.Fatal(err)
	}
	if cost1 != 0 && cost2 != 0 {
		t.Error("second Model call should be free (cached)")
	}
	if m2 == nil {
		t.Fatal("cached model is nil")
	}
	// Inference caching likewise.
	_, ic1, err := e.Inference([]vidsim.Class{vidsim.Car}, e.Test)
	if err != nil {
		t.Fatal(err)
	}
	_, ic2, err := e.Inference([]vidsim.Class{vidsim.Car}, e.Test)
	if err != nil {
		t.Fatal(err)
	}
	if ic1 != 0 && ic2 != 0 {
		t.Error("second Inference call should be free (cached)")
	}
}

func TestStatsAccounting(t *testing.T) {
	var s Stats
	s.addDetection(0.5)
	s.addDetection(0.5)
	s.SpecNNSeconds = 1
	s.FilterSeconds = 0.25
	s.TrainSeconds = 2
	if s.DetectorCalls != 2 || s.DetectorSeconds != 1 {
		t.Error("detector accounting wrong")
	}
	if s.TotalSeconds() != 4.25 {
		t.Errorf("total = %v", s.TotalSeconds())
	}
	if s.TotalSecondsNoTrain() != 2.25 {
		t.Errorf("no-train = %v", s.TotalSecondsNoTrain())
	}
}

func TestResultString(t *testing.T) {
	r := &Result{Kind: "aggregate", Value: 1.5}
	r.Stats.Plan = "specialized-rewrite"
	if r.String() == "" {
		t.Error("empty String()")
	}
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestModelExportImport(t *testing.T) {
	e := testEngine(t, "taipei")
	classes := []vidsim.Class{vidsim.Car}
	data, err := e.ExportModel(classes)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh engine importing the model must answer without training cost.
	fresh, err := NewEngine("taipei", e.Options())
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.ImportModel(classes, data); err != nil {
		t.Fatal(err)
	}
	m, cost, err := fresh.Model(classes)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 0 || m.TrainSimSeconds != 0 {
		t.Errorf("imported model should carry zero training cost, got %v/%v", cost, m.TrainSimSeconds)
	}
	res, err := fresh.Query(`SELECT FCOUNT(*) FROM taipei WHERE class='car' ERROR WITHIN 0.1`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value <= 0 {
		t.Error("warm-started query returned nothing")
	}
	// Importing a model lacking the class must fail.
	if err := fresh.ImportModel([]vidsim.Class{vidsim.Boat}, data); err == nil {
		t.Error("import with missing head should fail")
	}
	if err := fresh.ImportModel(classes, []byte("junk")); err == nil {
		t.Error("import of junk should fail")
	}
}
