package main

import (
	"strings"
	"testing"
)

func rec(family string, par int, ns, sim float64) map[string]any {
	r := map[string]any{"family": family, "ns_per_op": ns}
	if par > 0 {
		r["parallelism"] = float64(par)
	}
	if sim > 0 {
		r["sim_seconds"] = sim
	}
	return r
}

func file(scale float64, recs ...map[string]any) *benchFile {
	return &benchFile{Scale: scale, Records: recs}
}

func TestCompareCleanRun(t *testing.T) {
	base := file(0.05, rec("agg", 1, 100, 10), rec("agg", 4, 30, 10), rec("sel", 1, 200, 5))
	cur := file(0.05, rec("agg", 1, 101, 10), rec("agg", 4, 29, 10), rec("sel", 1, 205, 5))
	v := compare("BENCH_parallel.json", base, cur, 1.25, 0.01, 0.02)
	if len(v.failures) != 0 || len(v.warnings) != 0 {
		t.Fatalf("clean run judged: failures %v, warnings %v", v.failures, v.warnings)
	}
}

// TestCompareMedianCalibration pins the machine-variance defense: a run
// that is uniformly 2x slower (a weaker CI machine) passes, because every
// record moves with the median.
func TestCompareMedianCalibration(t *testing.T) {
	base := file(0.05, rec("agg", 1, 100, 10), rec("agg", 4, 30, 10), rec("sel", 1, 200, 5))
	cur := file(0.05, rec("agg", 1, 200, 10), rec("agg", 4, 60, 10), rec("sel", 1, 400, 5))
	v := compare("f", base, cur, 1.25, 0.01, 0.02)
	if len(v.failures) != 0 {
		t.Fatalf("uniform slowdown judged a regression: %v", v.failures)
	}
}

// TestCompareSingleFamilyRegression: one family uniformly 2x slower while
// the rest hold still is a real regression the cross-family median cannot
// absorb.
func TestCompareSingleFamilyRegression(t *testing.T) {
	base := file(0.05,
		rec("agg", 1, 100, 10), rec("agg", 4, 30, 10),
		rec("sel", 1, 200, 5), rec("sel", 4, 60, 5),
		rec("exh", 1, 500, 20))
	cur := file(0.05,
		rec("agg", 1, 100, 10), rec("agg", 4, 30, 10),
		rec("sel", 1, 400, 5), rec("sel", 4, 120, 5),
		rec("exh", 1, 500, 20))
	v := compare("f", base, cur, 1.25, 0.01, 0.02)
	if len(v.failures) != 1 || !strings.Contains(v.failures[0], "sel wall regression") {
		t.Fatalf("failures = %v, want one for family sel", v.failures)
	}
}

// TestCompareSingleRecordSpikeAbsorbed: one record of a family spiking
// (scheduler noise at two measured iterations) does not fail the gate as
// long as the family's geometric mean stays under the threshold.
func TestCompareSingleRecordSpikeAbsorbed(t *testing.T) {
	base := file(0.05,
		rec("agg", 1, 100, 10), rec("agg", 4, 30, 10),
		rec("sel", 1, 200, 5), rec("sel", 4, 60, 5), rec("sel", 8, 40, 5),
		rec("exh", 1, 500, 20))
	cur := file(0.05,
		rec("agg", 1, 100, 10), rec("agg", 4, 30, 10),
		// sel/p1 spikes 1.5x, the other sel records hold: geomean ~1.12.
		rec("sel", 1, 300, 5), rec("sel", 4, 62, 5), rec("sel", 8, 38, 5),
		rec("exh", 1, 500, 20))
	v := compare("f", base, cur, 1.25, 0.01, 0.02)
	if len(v.failures) != 0 {
		t.Fatalf("single-record spike judged a regression: %v", v.failures)
	}
}

// TestCompareSimDriftStrict: simulated cost is deterministic — any drift
// beyond the tolerance fails even when wall time is fine.
func TestCompareSimDriftStrict(t *testing.T) {
	base := file(0.05, rec("agg", 1, 100, 10), rec("sel", 1, 200, 5))
	cur := file(0.05, rec("agg", 1, 100, 10.5), rec("sel", 1, 200, 5))
	v := compare("f", base, cur, 1.25, 0.01, 0.02)
	if len(v.failures) != 1 || !strings.Contains(v.failures[0], "simulated-cost drift") {
		t.Fatalf("failures = %v, want one sim drift", v.failures)
	}
	// Within tolerance: fine.
	cur2 := file(0.05, rec("agg", 1, 100, 10.05), rec("sel", 1, 200, 5))
	if v := compare("f", base, cur2, 1.25, 0.01, 0.02); len(v.failures) != 0 {
		t.Fatalf("0.5%% sim drift judged: %v", v.failures)
	}
}

func TestCompareScaleMismatchSkips(t *testing.T) {
	base := file(0.05, rec("agg", 1, 100, 10))
	cur := file(0.02, rec("agg", 1, 1000, 99))
	v := compare("f", base, cur, 1.25, 0.01, 0.02)
	if len(v.failures) != 0 || len(v.warnings) != 1 {
		t.Fatalf("scale mismatch: failures %v, warnings %v", v.failures, v.warnings)
	}
}

// TestCompareMissingRecordsWarn pins the membership-drift verdicts: a
// fresh-run record with no baseline counterpart is informational (new
// families have nothing to regress against), while a baseline record
// absent from the fresh run warns — that is lost coverage.
func TestCompareMissingRecordsWarn(t *testing.T) {
	base := file(0.05, rec("agg", 1, 100, 10), rec("old", 1, 50, 1))
	cur := file(0.05, rec("agg", 1, 100, 10), rec("new", 1, 70, 2))
	v := compare("f", base, cur, 1.25, 0.01, 0.02)
	if len(v.failures) != 0 {
		t.Fatalf("membership drift judged a regression: %v", v.failures)
	}
	if len(v.warnings) != 1 || !strings.Contains(v.warnings[0], "old/p1 missing from current run") {
		t.Fatalf("warnings = %v, want only the dropped baseline record", v.warnings)
	}
	found := false
	for _, s := range v.infos {
		if strings.Contains(s, "new/p1 has no baseline record") {
			found = true
		}
	}
	if !found {
		t.Fatalf("infos = %v, want the fresh record reported informationally", v.infos)
	}
}

// TestComparePlannerFieldNames: the planner suite writes plan_ns_per_op
// and actual_seconds; the gate must judge those, not skip the file.
func TestComparePlannerFieldNames(t *testing.T) {
	prec := func(family string, ns, actual float64) map[string]any {
		return map[string]any{"family": family, "plan_ns_per_op": ns, "actual_seconds": actual}
	}
	base := file(0.05, prec("agg", 100, 10), prec("sel", 200, 5), prec("exh", 500, 20))
	cur := file(0.05, prec("agg", 100, 10), prec("sel", 200, 7), prec("exh", 500, 20))
	v := compare("f", base, cur, 1.25, 0.01, 0.02)
	if len(v.failures) != 1 || !strings.Contains(v.failures[0], "simulated-cost drift") {
		t.Fatalf("failures = %v, want one actual_seconds drift", v.failures)
	}
	if len(v.infos) != 1 || !strings.Contains(v.infos[0], "3 records in 3 families") {
		t.Fatalf("infos = %v, want 3 records in 3 families matched", v.infos)
	}
}

// phaseRec builds a live-suite record (phase-keyed, no sim cost).
func phaseRec(phase string, ns float64) map[string]any {
	return map[string]any{"phase": phase, "ns_per_op": ns}
}

// TestCompareLivePhaseCalibration: the live suite's concurrent-ingest
// phases are phase-keyed records, so they flow through the same
// per-family median calibration — a uniform slowdown passes, an isolated
// concurrent-phase regression fails.
func TestCompareLivePhaseCalibration(t *testing.T) {
	base := file(0.05,
		phaseRec("ingest", 1e9), phaseRec("advance", 1e8), phaseRec("rescan", 1.1e8),
		phaseRec("query_idle", 5e7), phaseRec("query_under_ingest", 5.2e7),
		phaseRec("ingest_concurrent", 2e9))
	// Uniformly 2x slower (weaker machine): calibration absorbs it.
	uniform := file(0.05,
		phaseRec("ingest", 2e9), phaseRec("advance", 2e8), phaseRec("rescan", 2.2e8),
		phaseRec("query_idle", 1e8), phaseRec("query_under_ingest", 1.04e8),
		phaseRec("ingest_concurrent", 4e9))
	if v := compare("BENCH_live.json", base, uniform, 1.25, 0.01, 0.02); len(v.failures) != 0 {
		t.Fatalf("uniform slowdown judged a regression: %v", v.failures)
	}
	// Only the under-ingest phase 2x slower: the cross-phase median holds
	// still, so the regression is judged.
	regressed := file(0.05,
		phaseRec("ingest", 1e9), phaseRec("advance", 1e8), phaseRec("rescan", 1.1e8),
		phaseRec("query_idle", 5e7), phaseRec("query_under_ingest", 1.04e8),
		phaseRec("ingest_concurrent", 2e9))
	v := compare("BENCH_live.json", base, regressed, 1.25, 0.01, 0.02)
	if len(v.failures) != 1 || !strings.Contains(v.failures[0], "query_under_ingest wall regression") {
		t.Fatalf("failures = %v, want one for query_under_ingest", v.failures)
	}
}

// TestConcurrentRatioCap: the within-run p50 ratio over the cap is a
// warning (main prints it and exits 0 on it), independent of any baseline;
// files without the summary and disabled caps are never judged.
func TestConcurrentRatioCap(t *testing.T) {
	over := &benchFile{Scale: 0.05, ConcurrentQueryP50Ratio: 1.8}
	if w := checkConcurrentRatio("BENCH_live.json", over, 1.5); !strings.Contains(w, "1.80x idle") {
		t.Fatalf("ratio 1.8 vs cap 1.5: %q, want a warning", w)
	}
	under := &benchFile{Scale: 0.05, ConcurrentQueryP50Ratio: 1.1}
	if f := checkConcurrentRatio("BENCH_live.json", under, 1.5); f != "" {
		t.Fatalf("ratio 1.1 vs cap 1.5 judged: %q", f)
	}
	absent := &benchFile{Scale: 0.05}
	if f := checkConcurrentRatio("BENCH_parallel.json", absent, 1.5); f != "" {
		t.Fatalf("file without summary judged: %q", f)
	}
	if f := checkConcurrentRatio("BENCH_live.json", over, 0); f != "" {
		t.Fatalf("disabled cap judged: %q", f)
	}
}

// TestServeHitRatioCap: the exhaustive/distinct hit-cost ratio is capped
// the same way — a re-encoding hit path (45x or more) fails, the
// stored-bytes one passes.
func TestServeHitRatioCap(t *testing.T) {
	reencoding := &benchFile{Scale: 0.05, HitNsExhaustiveOverDistinct: 45}
	if f := checkServeHitRatio("BENCH_serve.json", reencoding); !strings.Contains(f, "45.0x") {
		t.Fatalf("ratio 45 vs cap 12: %q, want failure", f)
	}
	stored := &benchFile{Scale: 0.05, HitNsExhaustiveOverDistinct: 1.9}
	if f := checkServeHitRatio("BENCH_serve.json", stored); f != "" {
		t.Fatalf("ratio 1.9 vs cap 12 judged: %q", f)
	}
	if f := checkServeHitRatio("BENCH_live.json", &benchFile{Scale: 0.05}); f != "" {
		t.Fatalf("file without summary judged: %q", f)
	}
}

// TestRecordKeyShapes covers the three record shapes the suites emit.
func TestRecordKeyShapes(t *testing.T) {
	cases := []struct {
		rec  map[string]any
		want string
	}{
		{map[string]any{"family": "agg", "parallelism": float64(4)}, "agg/p4"},
		{map[string]any{"family": "aggregate", "chosen": "control-variates"}, "aggregate"},
		{map[string]any{"phase": "cold-build"}, "cold-build"},
		{map[string]any{"ns_per_op": float64(1)}, ""},
	}
	for _, tc := range cases {
		if got := recordKey(tc.rec); got != tc.want {
			t.Errorf("recordKey(%v) = %q, want %q", tc.rec, got, tc.want)
		}
	}
}

// calRec builds a planner-suite record with raw and calibrated errors.
func calRec(family string, raw, cal float64) map[string]any {
	return map[string]any{"family": family, "estimate_error": raw, "calibrated_error": cal}
}

// TestCheckCalibrationWithinRun: a family whose calibrated error exceeds
// its raw error beyond the tolerance fails without needing a baseline;
// calibrated-at-or-under-raw passes, and records without the fields are
// never judged.
func TestCheckCalibrationWithinRun(t *testing.T) {
	good := file(0.05, calRec("agg", 0.1, 0.0), calRec("sel", 0.05, 0.06), rec("exh", 1, 100, 10))
	if fs := checkCalibration("BENCH_plan.json", good, 0.02, 2.0); len(fs) != 0 {
		t.Fatalf("clean calibration judged: %v", fs)
	}
	bad := file(0.05, calRec("agg", 0.1, 0.2), calRec("sel", 0.05, 0.0))
	fs := checkCalibration("BENCH_plan.json", bad, 0.02, 2.0)
	if len(fs) != 1 || !strings.Contains(fs[0], "agg calibrated error") {
		t.Fatalf("failures = %v, want one for family agg", fs)
	}
}

// TestCheckCalibrationNoHintSummary: the graduation summaries gate on
// plan identity, frames-scanned ratio floor, and speedup >= 1.
func TestCheckCalibrationNoHintSummary(t *testing.T) {
	ok := &benchFile{Scale: 0.05, SparseNoHintPlan: "density-limit", SparseNoHintFramesScannedRatio: 2.0}
	if fs := checkCalibration("BENCH_limit.json", ok, 0.02, 2.0); len(fs) != 0 {
		t.Fatalf("clean graduation judged: %v", fs)
	}
	wrongPlan := &benchFile{Scale: 0.05, SparseNoHintPlan: "exhaustive", SparseNoHintFramesScannedRatio: 2.0}
	if fs := checkCalibration("BENCH_limit.json", wrongPlan, 0.02, 2.0); len(fs) != 1 || !strings.Contains(fs[0], "want density-limit") {
		t.Fatalf("failures = %v, want one plan-identity failure", fs)
	}
	lowRatio := &benchFile{Scale: 0.05, SparseNoHintPlan: "density-limit", SparseNoHintFramesScannedRatio: 1.2}
	if fs := checkCalibration("BENCH_limit.json", lowRatio, 0.02, 2.0); len(fs) != 1 || !strings.Contains(fs[0], "below floor") {
		t.Fatalf("failures = %v, want one ratio-floor failure", fs)
	}
	if fs := checkCalibration("BENCH_limit.json", lowRatio, 0.02, 0); len(fs) != 0 {
		t.Fatalf("disabled floor judged: %v", fs)
	}
	slow := &benchFile{Scale: 0.05, SparseLimitNoHintSpeedup: 0.8}
	if fs := checkCalibration("BENCH_plan.json", slow, 0.02, 2.0); len(fs) != 1 || !strings.Contains(fs[0], "speedup") {
		t.Fatalf("failures = %v, want one speedup failure", fs)
	}
	absent := &benchFile{Scale: 0.05}
	if fs := checkCalibration("BENCH_parallel.json", absent, 0.02, 2.0); len(fs) != 0 {
		t.Fatalf("file without summaries judged: %v", fs)
	}
}

// TestCompareCalibratedErrorBaseline: calibrated error is deterministic,
// so it gates against the baseline like sim_seconds — growth beyond the
// tolerance fails, shrinkage and within-tolerance drift pass.
func TestCompareCalibratedErrorBaseline(t *testing.T) {
	base := file(0.05, calRec("agg", 0.1, 0.01), calRec("sel", 0.05, 0.02))
	regressed := file(0.05, calRec("agg", 0.1, 0.09), calRec("sel", 0.05, 0.02))
	v := compare("BENCH_plan.json", base, regressed, 1.25, 0.01, 0.02)
	if len(v.failures) != 1 || !strings.Contains(v.failures[0], "agg calibrated estimate error regressed") {
		t.Fatalf("failures = %v, want one calibrated-error regression", v.failures)
	}
	improved := file(0.05, calRec("agg", 0.1, 0.0), calRec("sel", 0.05, 0.03))
	if v := compare("BENCH_plan.json", base, improved, 1.25, 0.01, 0.02); len(v.failures) != 0 {
		t.Fatalf("improvement/within-tolerance judged: %v", v.failures)
	}
}

// TestCheckPlanCost pins the within-run planning gates: the absolute cap
// on planning a repeated shape, the share of a warm execution (judged only
// where that execution is long enough for the share to mean planning), and
// the floor on a standing query's advance over a rescan.
func TestCheckPlanCost(t *testing.T) {
	planRec := func(fam string, planNs, execNs float64) map[string]any {
		return map[string]any{"family": fam, "plan_ns_per_op": planNs, "exec_ns_warm": execNs}
	}
	retraining := file(0.05, planRec("selection", 581e6, 360e6), planRec("binary-detection", 15.4e6, 22.6e6))
	if fs := checkPlanCost("BENCH_plan.json", retraining); len(fs) != 4 {
		t.Fatalf("planning that re-trains per plan: %v, want a cap and a share failure per family", fs)
	}
	prepared := file(0.05,
		planRec("selection", 12e3, 45e6),
		planRec("scrubbing", 6e3, 90e3), // 6.7% of an execution that is itself 90 µs: not judged
		planRec("aggregate", 12e3, 560e3))
	if fs := checkPlanCost("BENCH_plan.json", prepared); len(fs) != 0 {
		t.Fatalf("prepared planning judged: %v", fs)
	}
	slowShare := file(0.05, planRec("distinct-count", 90e3, 1e6), planRec("exhaustive", 99e3, 3e6))
	if fs := checkPlanCost("BENCH_plan.json", slowShare); len(fs) != 0 {
		t.Fatalf("under the cap, and 3.3%% of a 3 ms execution: %v", fs)
	}
	if fs := checkPlanCost("BENCH_live.json", &benchFile{Scale: 0.05, AdvanceSpeedupVsRescan: 1.06}); len(fs) != 1 || !strings.Contains(fs[0], "1.06x") {
		t.Fatalf("advance speedup 1.06 vs floor 3: %v", fs)
	}
	if fs := checkPlanCost("BENCH_live.json", &benchFile{Scale: 0.05, AdvanceSpeedupVsRescan: 11}); len(fs) != 0 {
		t.Fatalf("advance speedup 11 judged: %v", fs)
	}
	if fs := checkPlanCost("BENCH_index.json", file(0.05, rec("agg", 1, 100, 10))); len(fs) != 0 {
		t.Fatalf("file without the fields judged: %v", fs)
	}
}
