// Command benchgate compares a fresh benchmark summary (BENCH_*.json, as
// written by the root bench suites) against a committed baseline run and
// fails on per-family regressions, so the CI bench job gates instead of
// merely observing.
//
// Usage:
//
//	benchgate [-baseline-dir ci/bench-baseline] [-current-dir .]
//	          [-threshold 1.25] [-sim-tol 0.01] BENCH_parallel.json ...
//
// Wall-clock time is noisy across CI machines and individual records
// (two measured iterations per record), so ns/op is judged per plan
// family after calibration: each family's score is the geometric mean of
// its records' current/baseline ratios (absorbing single-record spikes),
// and each score is judged relative to the median score across families —
// a uniformly slower machine shifts the median, not the verdict. A family
// fails when its calibrated score exceeds -threshold (default 1.25, i.e.
// >25% slower than the fleet-wide drift).
//
// Simulated cost is deterministic, so it gets no such slack: a sim_seconds
// drift beyond -sim-tol (default 1%) fails outright. That is the real
// regression signal — an algorithmic change that pays more detector time
// cannot hide behind machine variance, and an intentional change must
// regenerate the baseline.
//
// BENCH_live's concurrent_query_p50_ratio summary (p50 query latency
// under sustained ingest over p50 at idle) is a within-run ratio, so
// machine speed cancels out — but machine load does not: the same commit
// reads 1.05 on an idle runner and 2.4 on a loaded two-core one, and the
// file carries no measure of the idle phase's own jitter to judge it by.
// Over -concurrent-ratio-cap (default 1.5) it is therefore reported as a
// warning, never a failure: a gate that fails for the machine teaches
// people to ignore gates.
//
// BENCH_serve's hit_ns_exhaustive_over_distinct summary (the /query
// handler's cost on a cache hit for the largest reply over the smallest)
// is likewise within-run: a hit is a lookup and a write of stored bytes,
// so the ratio may not exceed serveHitRatioCap (12) — a hit path that goes
// back to re-encoding its reply reads 45 or more.
//
// BENCH_plan also carries, per family, the wall time of planning a query
// shape the engine has seen before (plan_ns_per_op) next to a warm
// execution of it (exec_ns_warm, which plans too). ROADMAP's target is that
// planning vanishes from the warm path: a family fails when warm planning
// takes planNsCap (100 µs) or more, or more than planShareCap (5 %) of the
// warm execution. The share is judged only where the warm execution is
// itself at least planNsCap/planShareCap (2 ms) long: below that the ratio
// reads how cheap the execution is (scrubbing's warm search is under
// 0.1 ms), not how dear the planning, and the absolute cap alone binds.
// BENCH_live's advance_speedup_vs_rescan — a standing query's advance over
// re-running it from frame 0 after each ingest batch — must reach
// advanceSpeedupFloor (3); an advance that re-plans and re-encodes per
// batch reads 1.06. Both are within-run, judged without a baseline.
//
// Planner-calibration records (BENCH_plan) carry both a raw and a
// calibrated estimate error per family. Both are deterministic simulated
// quantities, so they gate like sim_seconds: within a run, a family whose
// calibrated error exceeds its raw error by more than -cal-tol fails
// (feedback made the cost model worse), and against a baseline, a
// family's calibrated error may not regress by more than -cal-tol.
// BENCH_limit's sparse_nohint summary gates the density-limit graduation:
// the no-hint plan must be density-limit and the temporal/no-hint
// frames-scanned ratio must stay at or above -nohint-ratio-floor
// (default 2.0) — both within-run, judged even without a baseline.
// BENCH_plan's sparse_limit_nohint_speedup must stay >= 1 (the calibrated
// pick may never cost more than the uncalibrated one).
//
// Per file: a missing baseline is a warning (first run), and a scale
// mismatch skips the file (incomparable). A fresh-run record with no
// baseline counterpart is informational — new families appear whenever
// the plan space grows, and a brand-new family has nothing to regress
// against — while a baseline record missing from the fresh run stays a
// warning, since silently losing coverage is worth a look.
//
// Exit status: 0 clean or skipped, 1 regression, 2 usage or I/O error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchFile is the shared shape of every BENCH_*.json: a scale and a list
// of records. Records are decoded generically because each suite carries
// different identifying and measured fields.
type benchFile struct {
	Scale   float64          `json:"scale"`
	Records []map[string]any `json:"records"`
	// ConcurrentQueryP50Ratio is BENCH_live's snapshot-isolation summary:
	// p50 query latency under sustained ingest over p50 at idle. Unlike
	// the per-record wall times it is a within-run ratio, so machine speed
	// cancels out and it is judged against an absolute cap, baseline or
	// not.
	ConcurrentQueryP50Ratio float64 `json:"concurrent_query_p50_ratio"`
	// HitNsExhaustiveOverDistinct is BENCH_serve's summary: the handler's
	// wall time on a cache hit for the ~174 KB exhaustive reply over the
	// ~1 KB distinct one. Within-run like the ratio above, so judged
	// against an absolute cap.
	HitNsExhaustiveOverDistinct float64 `json:"hit_ns_exhaustive_over_distinct"`
	// SparseNoHintPlan and SparseNoHintFramesScannedRatio are
	// BENCH_limit's calibration-graduation summary: the plan the warmed-up
	// planner cost-chose for the sparse LIMIT query with no hint, and the
	// temporal plan's frames-scanned over that run's. Deterministic
	// within-run quantities, judged without a baseline.
	SparseNoHintPlan               string  `json:"sparse_nohint_plan"`
	SparseNoHintFramesScannedRatio float64 `json:"sparse_nohint_frames_scanned_ratio"`
	// AdvanceSpeedupVsRescan is BENCH_live's summary: wall time of
	// re-executing a scan-family standing query from frame 0 after each
	// ingest batch over advancing it. Within-run, judged against a floor.
	AdvanceSpeedupVsRescan float64 `json:"advance_speedup_vs_rescan"`
	// SparseLimitNoHintSpeedup is BENCH_plan's end-to-end graduation
	// summary: cold temporal simulated cost over the calibrated
	// cost-chosen plan's. Below 1 means calibration picked a worse plan.
	SparseLimitNoHintSpeedup float64 `json:"sparse_limit_nohint_speedup"`
}

func readBenchFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// recordKey identifies a record across runs: the plan family (with the
// parallelism level when present) or the suite's phase name.
func recordKey(rec map[string]any) string {
	if fam, ok := rec["family"].(string); ok && fam != "" {
		if par, ok := rec["parallelism"].(float64); ok {
			return fmt.Sprintf("%s/p%d", fam, int(par))
		}
		return fam
	}
	if phase, ok := rec["phase"].(string); ok && phase != "" {
		return phase
	}
	return ""
}

// familyKey groups records for the wall-clock verdict: all parallelism
// levels of one family are judged together.
func familyKey(rec map[string]any) string {
	if fam, ok := rec["family"].(string); ok && fam != "" {
		return fam
	}
	if phase, ok := rec["phase"].(string); ok && phase != "" {
		return phase
	}
	return ""
}

func num(rec map[string]any, fields ...string) (float64, bool) {
	for _, f := range fields {
		if v, ok := rec[f].(float64); ok {
			return v, true
		}
	}
	return 0, false
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 1
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// verdict is one file comparison's outcome.
type verdict struct {
	failures []string
	warnings []string
	infos    []string
}

// compare judges one fresh bench file against its baseline.
func compare(name string, base, cur *benchFile, threshold, simTol, calTol float64) *verdict {
	v := &verdict{}
	if base.Scale != cur.Scale {
		v.warnings = append(v.warnings,
			fmt.Sprintf("%s: scale %g vs baseline %g — incomparable, skipping", name, cur.Scale, base.Scale))
		return v
	}
	baseBy := map[string]map[string]any{}
	for _, r := range base.Records {
		if k := recordKey(r); k != "" {
			baseBy[k] = r
		}
	}

	// First pass: match records, collect per-family wall ratios, and judge
	// the deterministic simulated cost per record (no calibration, no
	// grouping — any drift is an algorithmic change).
	famRatios := map[string][]float64{}
	var fams []string
	seen := map[string]bool{}
	matched := 0
	for _, cr := range cur.Records {
		k := recordKey(cr)
		if k == "" {
			continue
		}
		seen[k] = true
		br, ok := baseBy[k]
		if !ok {
			v.infos = append(v.infos, fmt.Sprintf("%s: %s has no baseline record (new family; informational)", name, k))
			continue
		}
		matched++
		bn, okB := num(br, "ns_per_op", "plan_ns_per_op")
		cn, okC := num(cr, "ns_per_op", "plan_ns_per_op")
		if okB && okC && bn > 0 && cn > 0 {
			fam := familyKey(cr)
			if _, ok := famRatios[fam]; !ok {
				fams = append(fams, fam)
			}
			famRatios[fam] = append(famRatios[fam], cn/bn)
		}
		bs, okB := num(br, "sim_seconds", "actual_seconds")
		cs, okC := num(cr, "sim_seconds", "actual_seconds")
		if okB && okC && bs > 0 {
			if drift := (cs - bs) / bs; drift > simTol || drift < -simTol {
				v.failures = append(v.failures, fmt.Sprintf(
					"%s: %s simulated-cost drift: %.6g -> %.6g (%+.2f%%, tolerance ±%.0f%%) — deterministic cost changed; regenerate the baseline if intentional",
					name, k, bs, cs, 100*drift, 100*simTol))
			}
		}
		// Calibrated estimate error is deterministic like sim_seconds, so
		// it gates against the baseline outright: a family whose
		// post-warmup error grew beyond the tolerance means the feedback
		// loop fits this workload worse than it used to.
		bce, okB := num(br, "calibrated_error")
		cce, okC := num(cr, "calibrated_error")
		if okB && okC && cce > bce+calTol {
			v.failures = append(v.failures, fmt.Sprintf(
				"%s: %s calibrated estimate error regressed: %.6g -> %.6g (tolerance +%.3g) — the calibration loop got worse; regenerate the baseline if intentional",
				name, k, bce, cce, calTol))
		}
	}
	for k := range baseBy {
		if !seen[k] {
			v.warnings = append(v.warnings, fmt.Sprintf("%s: baseline record %s missing from current run", name, k))
		}
	}

	// Second pass: per-family wall verdicts. Each family's score is the
	// geometric mean of its records' ratios, judged against the median
	// score across families.
	scores := make([]float64, 0, len(fams))
	scoreBy := map[string]float64{}
	for _, fam := range fams {
		scoreBy[fam] = geomean(famRatios[fam])
		scores = append(scores, scoreBy[fam])
	}
	cal := median(scores)
	v.infos = append(v.infos, fmt.Sprintf("%s: %d records in %d families matched, median wall ratio %.3f",
		name, matched, len(fams), cal))
	for _, fam := range fams {
		score := scoreBy[fam]
		if calibrated := score / cal; calibrated > threshold {
			v.failures = append(v.failures, fmt.Sprintf(
				"%s: %s wall regression: %.2fx vs baseline (%.2fx after %.3f median calibration, threshold %.2fx; record ratios %s)",
				name, fam, score, calibrated, cal, threshold, fmtRatios(famRatios[fam])))
		}
	}
	return v
}

// checkConcurrentRatio compares the within-run concurrent-query latency
// ratio with a cap and returns a warning when it is over. It needs no
// baseline — both p50s come from the same run — but a loaded machine
// inflates the ratio as much as a reader blocked by ingest does, so the
// caller reports it without failing. A cap <= 0 disables the check; a file
// without the summary (older suites, other dimensions) is never judged.
func checkConcurrentRatio(name string, cur *benchFile, cap float64) (warning string) {
	if cap <= 0 || cur.ConcurrentQueryP50Ratio == 0 {
		return ""
	}
	if r := cur.ConcurrentQueryP50Ratio; r > cap {
		return fmt.Sprintf(
			"%s: concurrent query p50 is %.2fx idle p50 (cap %.2fx) — ingest is blocking snapshot readers, or the machine is loaded",
			name, r, cap)
	}
	return ""
}

// serveHitRatioCap bounds BENCH_serve's within-run hit-cost ratio: a cache
// hit's cost follows the bytes it writes, not the rows it would have to
// encode.
const serveHitRatioCap = 12

// checkServeHitRatio judges BENCH_serve's within-run hit-cost ratio against
// serveHitRatioCap. Like checkConcurrentRatio it needs no baseline, and a
// file without the summary is never judged.
func checkServeHitRatio(name string, cur *benchFile) (failure string) {
	if r := cur.HitNsExhaustiveOverDistinct; r > serveHitRatioCap {
		return fmt.Sprintf(
			"%s: a cache hit on the exhaustive reply costs %.1fx one on the distinct reply (cap %dx) — hits are re-encoding their replies",
			name, r, serveHitRatioCap)
	}
	return ""
}

const (
	// planNsCap is ROADMAP's target for planning a repeated query shape.
	planNsCap = 100e3
	// planShareCap bounds warm planning as a share of a warm execution.
	planShareCap = 0.05
	// advanceSpeedupFloor is the least a standing query's advance must beat
	// a re-execution from frame 0 by.
	advanceSpeedupFloor = 3
)

// checkPlanCost judges BENCH_plan's warm planning cost per family and
// BENCH_live's advance speedup — both within-run, so no baseline is needed
// and files without the fields are never judged.
func checkPlanCost(name string, cur *benchFile) (failures []string) {
	for _, rec := range cur.Records {
		planNs, okP := num(rec, "plan_ns_per_op")
		execNs, okE := num(rec, "exec_ns_warm")
		if !okP || !okE {
			continue
		}
		if planNs >= planNsCap {
			failures = append(failures, fmt.Sprintf(
				"%s: %s plans a repeated shape in %.0f µs (cap %.0f µs) — prepared state is being recomputed per plan",
				name, recordKey(rec), planNs/1e3, planNsCap/1e3))
		}
		if execNs >= planNsCap/planShareCap && planNs/execNs > planShareCap {
			failures = append(failures, fmt.Sprintf(
				"%s: %s warm planning is %.1f%% of a warm execution (cap %.0f%%)",
				name, recordKey(rec), 100*planNs/execNs, 100*planShareCap))
		}
	}
	if r := cur.AdvanceSpeedupVsRescan; r > 0 && r < advanceSpeedupFloor {
		failures = append(failures, fmt.Sprintf(
			"%s: advancing a standing query is %.2fx a rescan from frame 0 (floor %dx) — the advance is not paying for its suffix only",
			name, r, advanceSpeedupFloor))
	}
	return failures
}

// checkCalibration applies the within-run calibration gates, which are
// deterministic and machine-neutral so no baseline is needed. Per record:
// a calibrated estimate error exceeding the raw error by more than calTol
// means feedback made the cost model worse for that family. Per file
// summary: BENCH_limit's no-hint graduation must have cost-chosen the
// density plan and preserved the frames-scanned savings (>= ratioFloor),
// and BENCH_plan's no-hint speedup must stay >= 1. Files without the
// fields (other suites, older runs) are never judged.
func checkCalibration(name string, cur *benchFile, calTol, ratioFloor float64) (failures []string) {
	for _, rec := range cur.Records {
		raw, okR := num(rec, "estimate_error")
		cal, okC := num(rec, "calibrated_error")
		if okR && okC && cal > raw+calTol {
			failures = append(failures, fmt.Sprintf(
				"%s: %s calibrated error %.6g exceeds raw error %.6g (tolerance +%.3g) — calibration is hurting this family",
				name, recordKey(rec), cal, raw, calTol))
		}
	}
	if cur.SparseNoHintPlan != "" && cur.SparseNoHintPlan != "density-limit" {
		failures = append(failures, fmt.Sprintf(
			"%s: calibrated planner chose %q for the sparse no-hint LIMIT query, want density-limit — graduation regressed",
			name, cur.SparseNoHintPlan))
	}
	if ratioFloor > 0 && cur.SparseNoHintFramesScannedRatio > 0 && cur.SparseNoHintFramesScannedRatio < ratioFloor {
		failures = append(failures, fmt.Sprintf(
			"%s: sparse no-hint frames-scanned ratio %.3f below floor %.2f — the cost-chosen plan lost the density savings",
			name, cur.SparseNoHintFramesScannedRatio, ratioFloor))
	}
	if cur.SparseLimitNoHintSpeedup > 0 && cur.SparseLimitNoHintSpeedup < 1 {
		failures = append(failures, fmt.Sprintf(
			"%s: sparse-LIMIT no-hint speedup %.3f < 1 — the calibrated pick costs more than the uncalibrated one",
			name, cur.SparseLimitNoHintSpeedup))
	}
	return failures
}

func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 1
	}
	p := 1.0
	for _, v := range vs {
		p *= v
	}
	return math.Pow(p, 1/float64(len(vs)))
}

func fmtRatios(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.2f", v)
	}
	return strings.Join(parts, ", ")
}

func main() {
	baselineDir := flag.String("baseline-dir", "ci/bench-baseline", "directory holding the committed baseline BENCH_*.json files")
	currentDir := flag.String("current-dir", ".", "directory holding the freshly produced BENCH_*.json files")
	threshold := flag.Float64("threshold", 1.25, "maximum calibrated wall-clock ratio per family before failing")
	simTol := flag.Float64("sim-tol", 0.01, "maximum relative simulated-cost drift per record before failing")
	ratioCap := flag.Float64("concurrent-ratio-cap", 1.5,
		"concurrent-query p50/idle p50 ratio above which to warn (BENCH_live summary; within-run; never fails the gate; <=0 disables)")
	calTol := flag.Float64("cal-tol", 0.02,
		"maximum absolute slack for calibrated estimate error, both over the raw error within a run and over the baseline's calibrated error")
	nohintFloor := flag.Float64("nohint-ratio-floor", 2.0,
		"minimum temporal/no-hint frames-scanned ratio for the calibrated sparse-LIMIT graduation (BENCH_limit summary; within-run; <=0 disables)")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: benchgate [flags] BENCH_parallel.json ...")
		os.Exit(2)
	}

	failed := false
	for _, name := range flag.Args() {
		cur, err := readBenchFile(filepath.Join(*currentDir, name))
		if err != nil {
			if os.IsNotExist(err) {
				// The bench step itself failed or was skipped; its
				// continue-on-error already surfaced that.
				fmt.Printf("SKIP %s: no current run (%v)\n", name, err)
				continue
			}
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		// The within-run hit-cost and calibration gates apply even on the
		// first run — they compare the fresh file against itself, not a
		// baseline. The concurrent-latency ratio only warns.
		if w := checkConcurrentRatio(name, cur, *ratioCap); w != "" {
			fmt.Println("WARN", w)
		}
		if f := checkServeHitRatio(name, cur); f != "" {
			fmt.Println("FAIL", f)
			failed = true
		}
		for _, f := range append(checkCalibration(name, cur, *calTol, *nohintFloor), checkPlanCost(name, cur)...) {
			fmt.Println("FAIL", f)
			failed = true
		}
		base, err := readBenchFile(filepath.Join(*baselineDir, name))
		if err != nil {
			if os.IsNotExist(err) {
				fmt.Printf("WARN %s: no committed baseline — commit the current run to %s to arm the gate\n",
					name, *baselineDir)
				continue
			}
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		v := compare(name, base, cur, *threshold, *simTol, *calTol)
		for _, s := range v.infos {
			fmt.Println("INFO", s)
		}
		for _, s := range v.warnings {
			fmt.Println("WARN", s)
		}
		for _, s := range v.failures {
			fmt.Println("FAIL", s)
			failed = true
		}
		if len(v.failures) == 0 {
			fmt.Printf("OK   %s\n", name)
		}
	}
	if failed {
		os.Exit(1)
	}
}
