package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/frameql"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/specnn"
	"repro/internal/stats"
	"repro/internal/vidsim"
)

// This file is the cost-based physical planner (paper §5). For every
// analyzed query it enumerates all viable candidate plans of the query's
// family, prices each one in simulated seconds from cheap inputs — the
// stream configuration, cached held-out statistics, and trained filter
// selectivities — without executing any of them, and runs the candidate
// with the lowest marginal estimate. Hints (SELECT /*+ PLAN(name) */) and
// the experiment baselines force a named candidate through the same
// machinery, so every execution path flows through one planner.

// Estimate accuracy factors claimed per candidate kind: the actual cost
// of an execution is expected within [estimate/factor, estimate×factor].
// Exact plans price known work (full scans, cached inference); sampled
// and search plans extrapolate from held-out statistics and carry wider
// bounds.
const (
	exactAccuracy     = 1.05
	sampledAccuracy   = 4.0
	selectionAccuracy = 4.0
	scrubAccuracy     = 10.0
	binaryAccuracy    = 4.0
	densityAccuracy   = 10.0
)

// candidate is one enumerated, costed physical plan.
type candidate = plan.Costed[*Result]

// costedPlan is the engine's plan.Plan implementation: a description, an
// estimate, and an opener producing the plan's resumable execution
// against this engine.
type costedPlan struct {
	desc plan.Description
	est  plan.Cost
	open func() (plan.Execution[*Result], error)
	// notes is planner narration (e.g. fallback reasons) prepended to the
	// result's notes when the cost-based pick — not a hint — runs this
	// plan, reproducing the rule-based optimizer's messages.
	notes []string
}

func (p *costedPlan) Describe() plan.Description { return p.desc }
func (p *costedPlan) EstimateCost() plan.Cost    { return p.est }
func (p *costedPlan) Open() (plan.Execution[*Result], error) {
	if p.open == nil {
		return nil, fmt.Errorf("core: plan %s is not executable", p.desc.Name)
	}
	return p.open()
}

// infeasible builds a description-only candidate for the EXPLAIN table.
func infeasible(desc plan.Description, reason string) candidate {
	return candidate{Plan: &costedPlan{desc: desc}, Infeasible: reason}
}

// enumerate produces the candidate table for an analyzed query. The
// switch selects an enumerator per plan family — the successor of the
// old rule-based dispatch, which jumped straight to one hard-coded plan.
func (e *Engine) enumerate(info *frameql.Info, par int) ([]candidate, error) {
	switch info.Kind {
	case frameql.KindAggregate:
		return e.enumerateAggregate(info, par)
	case frameql.KindDistinct:
		return e.enumerateDistinct(info, par)
	case frameql.KindScrubbing:
		return e.enumerateScrubbing(info, par)
	case frameql.KindSelection:
		return e.enumerateSelection(info, par)
	case frameql.KindBinary:
		return e.enumerateBinary(info, par)
	default:
		return e.enumerateExhaustive(info, par)
	}
}

// effectiveParallelism resolves a per-query parallelism override against
// the engine default.
func (e *Engine) effectiveParallelism(parallelism int) int {
	if parallelism <= 0 {
		parallelism = e.opts.Parallelism
	}
	return ResolveParallelism(parallelism)
}

// planCandidates validates the query, resolves the effective parallelism,
// enumerates candidates, and applies the calibration store's correction
// factors so Choose prices candidates with calibrated estimates.
func (e *Engine) planCandidates(info *frameql.Info, parallelism int) ([]candidate, error) {
	if info.Video != "" && info.Video != e.Cfg.Name {
		return nil, fmt.Errorf("core: query is over %q but engine holds %q", info.Video, e.Cfg.Name)
	}
	cands, err := e.enumerate(info, e.effectiveParallelism(parallelism))
	if err != nil {
		return nil, err
	}
	e.applyCalibration(info.Kind.String(), cands)
	return cands, nil
}

// pick selects the candidate to execute: the query's hint when present,
// the minimum-marginal-estimate candidate otherwise.
func pick(info *frameql.Info, cands []candidate) (*candidate, bool, error) {
	if h := info.PlanHint; h != "" {
		c, err := plan.Force(cands, h)
		return c, true, err
	}
	c, err := plan.Choose(cands)
	return c, false, err
}

// runChosen executes the picked candidate to completion through the
// resumable execution layer — the one-shot path — recording prep, scan
// and finalize spans under root (nil when untraced). Ground-truth labels
// observed while sampling are published for the next query regardless of
// the outcome (Execution.RunTo commits them on completion and on error);
// mid-query lookups saw only the pre-query snapshot, keeping executions
// deterministic.
func (e *Engine) runChosen(info *frameql.Info, cands []candidate, chosen *candidate, forced bool, par int, root *obs.Span) (*Result, error) {
	prepStart := time.Now()
	x, err := e.newExecution(info, cands, chosen, forced, par)
	if err != nil {
		return nil, err
	}
	x.attachTrace(root, time.Since(prepStart), "prep")
	if err := x.RunTo(-1); err != nil {
		return nil, err
	}
	return x.Result()
}

// ExecuteForced runs an analyzed query with the first matching named
// physical plan instead of the cost-based pick — the hint path the
// comparison baselines run through.
func (e *Engine) ExecuteForced(info *frameql.Info, parallelism int, names ...string) (*Result, error) {
	e = e.pin()
	cands, err := e.planCandidates(info, parallelism)
	if err != nil {
		return nil, err
	}
	chosen, err := plan.Force(cands, names...)
	if err != nil {
		return nil, err
	}
	return e.runChosen(info, cands, chosen, true, e.effectiveParallelism(parallelism), nil)
}

// ExplainPlan enumerates and prices the candidate plans for an analyzed
// query without executing any of them. Planning may still prepare shared
// index state (train the specialized network, compute held-out
// statistics) the first time a class is seen — the same preparation the
// query's execution would perform and cache.
func (e *Engine) ExplainPlan(info *frameql.Info, parallelism int) (*plan.Report, error) {
	e = e.pin()
	cands, err := e.planCandidates(info, parallelism)
	if err != nil {
		return nil, err
	}
	chosen, forced, err := pick(info, cands)
	if err != nil {
		return nil, err
	}
	return plan.NewReport(info.Kind.String(), cands, chosen, forced), nil
}

// plannerState is the engine's planning cache and accounting: held-out
// statistics priced once per class (or requirement set) and reused by
// every enumeration, plus pick counters for observability.
type plannerState struct {
	mu sync.Mutex
	// base holds counter-only held-out statistics per class.
	base map[vidsim.Class]*baseStats
	// resid holds specialized-network residual statistics per class.
	resid map[vidsim.Class]*residStats
	// heldErrs holds HeldOutErrors outputs per class (deterministic, so
	// one computation serves every execution's charge replay).
	heldErrs map[vidsim.Class]*heldErrsEntry
	// bias holds BiasWithin outputs per (class, tolerance).
	bias map[string]float64
	// scrub holds requirement-set statistics.
	scrub map[string]*scrubStatsEntry
	// cascade holds measured joint pass rates per trained selection
	// cascade (content filters + label filter).
	cascade map[string]*cascadeRates
	// calib holds the feedback-calibration entries per (family, plan):
	// windowed actual/estimate ratios whose median becomes the
	// correction factor applied at enumeration time (calibration.go).
	calib map[string]*calibEntry
	// famErr holds the per-family sliding window of relative estimate
	// errors — the recent-history counterpart of estErrSum/estErrN, read
	// by /statz, the window-error gauge, and the drift detector's
	// feedback path.
	famErr map[string]*errWindow

	// Accounting for /statz.
	planned   uint64
	forced    uint64
	picks     map[string]map[string]uint64 // family → plan name → count
	estErrSum float64
	estErrN   uint64
}

func newPlannerState() *plannerState {
	return &plannerState{
		base:     make(map[vidsim.Class]*baseStats),
		resid:    make(map[vidsim.Class]*residStats),
		heldErrs: make(map[vidsim.Class]*heldErrsEntry),
		bias:     make(map[string]float64),
		scrub:    make(map[string]*scrubStatsEntry),
		cascade:  make(map[string]*cascadeRates),
		calib:    make(map[string]*calibEntry),
		famErr:   make(map[string]*errWindow),
		picks:    make(map[string]map[string]uint64),
	}
}

// record tallies one executed planning decision.
func (p *plannerState) record(rep *plan.Report) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.planned++
	if rep.Forced {
		p.forced++
	}
	fam := p.picks[rep.Family]
	if fam == nil {
		fam = make(map[string]uint64)
		p.picks[rep.Family] = fam
	}
	fam[rep.Chosen]++
	if !rep.Forced && rep.EstimateSeconds > 0 {
		p.estErrSum += math.Abs(rep.ActualSeconds-rep.EstimateSeconds) / rep.EstimateSeconds
		p.estErrN++
	}
	p.observe(rep)
}

// PlannerStats is a snapshot of the engine's planning accounting.
type PlannerStats struct {
	// Planned counts executed planning decisions (forced included).
	Planned uint64
	// Forced counts hint- or baseline-forced executions.
	Forced uint64
	// Picks maps family → plan name → executions.
	Picks map[string]map[string]uint64
	// EstimateErrorSum accumulates relative |actual−estimate|/estimate
	// over the EstimateErrorCount cost-chosen executions — exposed as a
	// sum so multi-engine aggregation can weight by execution count.
	EstimateErrorSum   float64
	EstimateErrorCount uint64
	// MeanEstimateError is EstimateErrorSum/EstimateErrorCount (0 with
	// no cost-chosen executions).
	MeanEstimateError float64
	// WindowErrors maps family → sliding-window estimate-error summary
	// (the same window the drift detector's feedback path fills; see
	// calibration.go). Unlike the lifetime mean it includes forced
	// executions, because standing queries resume by forcing their
	// pinned plan and drift must see them.
	WindowErrors map[string]WindowErrorStat
	// Calibrations maps "family|plan" → lifetime feedback observation
	// count in the calibration store.
	Calibrations map[string]uint64
}

// PlannerStats returns a snapshot of the engine's planner accounting.
func (e *Engine) PlannerStats() PlannerStats {
	p := e.planner
	p.mu.Lock()
	defer p.mu.Unlock()
	s := PlannerStats{
		Planned:            p.planned,
		Forced:             p.forced,
		Picks:              make(map[string]map[string]uint64, len(p.picks)),
		EstimateErrorSum:   p.estErrSum,
		EstimateErrorCount: p.estErrN,
	}
	for fam, m := range p.picks {
		cp := make(map[string]uint64, len(m))
		for k, v := range m {
			cp[k] = v
		}
		s.Picks[fam] = cp
	}
	if p.estErrN > 0 {
		s.MeanEstimateError = p.estErrSum / float64(p.estErrN)
	}
	s.WindowErrors = make(map[string]WindowErrorStat, len(p.famErr))
	for fam, w := range p.famErr {
		s.WindowErrors[fam] = WindowErrorStat{MeanError: w.mean(), Samples: len(w.vals), Lifetime: w.count}
	}
	s.Calibrations = make(map[string]uint64, len(p.calib))
	for k, ent := range p.calib {
		s.Calibrations[k] = ent.count
	}
	return s
}

// planStride returns the held-out sampling stride covering at most capN
// frames evenly (capN <= 0 scans all).
func planStride(frames, capN int) int {
	if capN <= 0 || capN >= frames {
		return 1
	}
	return (frames + capN - 1) / capN
}

// baseStats are counter-only held-out statistics for one class: the
// cheap inputs aggregate and oracle-baseline estimates derive from.
// Detector labels for the held-out day are part of the offline labeled
// set, so computing them charges nothing.
type baseStats struct {
	// meanCount and stdCount describe the per-frame count distribution.
	meanCount, stdCount float64
	// presence is the fraction of frames containing the class.
	presence float64
}

func (e *Engine) baseStats(class vidsim.Class) *baseStats {
	e.planner.mu.Lock()
	if s, ok := e.planner.base[class]; ok {
		e.planner.mu.Unlock()
		return s
	}
	e.planner.mu.Unlock()

	stride := planStride(e.HeldOut.Frames, e.opts.HeldOutSample)
	c := e.DHeld.NewCounter()
	var acc stats.Online
	present := 0
	n := 0
	for f := 0; f < e.HeldOut.Frames; f += stride {
		m := c.CountAt(f, class)
		acc.Add(float64(m))
		if m > 0 {
			present++
		}
		n++
	}
	s := &baseStats{meanCount: acc.Mean(), stdCount: acc.StdDev()}
	if n > 0 {
		s.presence = float64(present) / float64(n)
	}
	e.planner.mu.Lock()
	if prev, ok := e.planner.base[class]; ok {
		s = prev
	} else {
		e.planner.base[class] = s
	}
	e.planner.mu.Unlock()
	return s
}

// residStats describe how well the specialized network tracks the
// detector on the held-out day: the standard deviation of the per-frame
// residual (expected count − detector count) prices the control-variates
// estimator's sampling need.
type residStats struct {
	residStd float64
	corr     float64
}

func (e *Engine) residStats(class vidsim.Class, model *specnn.CountModel) *residStats {
	e.planner.mu.Lock()
	if s, ok := e.planner.resid[class]; ok {
		e.planner.mu.Unlock()
		return s
	}
	e.planner.mu.Unlock()

	head := model.HeadIndex(class)
	stride := planStride(e.HeldOut.Frames, e.opts.HeldOutSample)
	ev := specnn.NewEvaluator(model, e.HeldOut)
	c := e.DHeld.NewCounter()
	var mt stats.OnlineCov
	var res stats.Online
	for f := 0; f < e.HeldOut.Frames; f += stride {
		m := float64(c.CountAt(f, class))
		ev.Seek(f)
		probs := ev.Probs()[head]
		t := 0.0
		for cnt, p := range probs {
			t += float64(cnt) * p
		}
		mt.Add(m, t)
		res.Add(t - m)
	}
	s := &residStats{residStd: res.StdDev(), corr: mt.Correlation()}
	e.planner.mu.Lock()
	if prev, ok := e.planner.resid[class]; ok {
		s = prev
	} else {
		e.planner.resid[class] = s
	}
	e.planner.mu.Unlock()
	return s
}

// heldErrsEntry caches specnn.HeldOutErrors for one class. The errors and
// their simulated cost are deterministic per engine, so one computation
// serves both planning (feasibility of query rewriting) and the exact
// charge replay every aggregate execution performs.
type heldErrsEntry struct {
	errs []float64
	cost float64
}

func (e *Engine) heldOutErrors(class vidsim.Class, model *specnn.CountModel) (*heldErrsEntry, error) {
	e.planner.mu.Lock()
	if s, ok := e.planner.heldErrs[class]; ok {
		e.planner.mu.Unlock()
		return s, nil
	}
	e.planner.mu.Unlock()

	errs, cost, err := specnn.HeldOutErrors(model, e.HeldOut, e.DHeld, class, e.opts.HeldOutSample, e.opts.Seed+3)
	if err != nil {
		return nil, err
	}
	s := &heldErrsEntry{errs: errs, cost: cost}
	e.planner.mu.Lock()
	if prev, ok := e.planner.heldErrs[class]; ok {
		s = prev
	} else {
		e.planner.heldErrs[class] = s
	}
	e.planner.mu.Unlock()
	return s, nil
}

// biasWithin caches BiasWithin per (class, tolerance) — the bootstrap is
// deterministic, and repeated queries with the same tolerance reuse it.
func (e *Engine) biasWithin(class vidsim.Class, errs []float64, tol float64) float64 {
	key := fmt.Sprintf("%s|%g", class, tol)
	e.planner.mu.Lock()
	if v, ok := e.planner.bias[key]; ok {
		e.planner.mu.Unlock()
		return v
	}
	e.planner.mu.Unlock()

	v := specnn.BiasWithin(errs, tol, 500, e.opts.Seed+4)
	e.planner.mu.Lock()
	e.planner.bias[key] = v
	e.planner.mu.Unlock()
	return v
}

// scrubStatsEntry holds held-out statistics for one scrubbing requirement
// set: how often frames satisfy every minimum count, how often all
// classes are at least present, and — when a specialized network exists —
// the match outcomes ranked by the same combined confidence score the
// importance plan searches in.
type scrubStatsEntry struct {
	matchRate         float64
	presentRate       float64
	matchGivenPresent float64
	rankedMatches     []bool
}

func scrubStatsKey(reqs []scrubReq) string {
	parts := make([]string, len(reqs))
	for i, r := range reqs {
		parts[i] = fmt.Sprintf("%s:%d", r.Class, r.N)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

type scrubReq struct {
	Class vidsim.Class
	N     int
}

func (e *Engine) scrubPlanStats(reqs []scrubReq, model *specnn.CountModel) *scrubStatsEntry {
	key := scrubStatsKey(reqs)
	e.planner.mu.Lock()
	if s, ok := e.planner.scrub[key]; ok {
		e.planner.mu.Unlock()
		return s
	}
	e.planner.mu.Unlock()

	stride := planStride(e.HeldOut.Frames, e.opts.HeldOutSample)
	c := e.DHeld.NewCounter()
	var ev *specnn.Evaluator
	heads := make([]int, len(reqs))
	if model != nil {
		ev = specnn.NewEvaluator(model, e.HeldOut)
		for i, r := range reqs {
			heads[i] = model.HeadIndex(r.Class)
		}
	}
	type scored struct {
		score float64
		match bool
	}
	var rows []scored
	matches, present := 0, 0
	for f := 0; f < e.HeldOut.Frames; f += stride {
		match, allPresent := true, true
		for _, r := range reqs {
			n := c.CountAt(f, r.Class)
			if n < r.N {
				match = false
			}
			if n < 1 {
				allPresent = false
			}
		}
		if match {
			matches++
		}
		if allPresent {
			present++
		}
		row := scored{match: match}
		if ev != nil {
			ev.Seek(f)
			for i, r := range reqs {
				if heads[i] >= 0 {
					row.score += ev.TailProb(heads[i], r.N)
				}
			}
		}
		rows = append(rows, row)
	}
	s := &scrubStatsEntry{}
	if len(rows) > 0 {
		s.matchRate = float64(matches) / float64(len(rows))
		s.presentRate = float64(present) / float64(len(rows))
	}
	if present > 0 {
		s.matchGivenPresent = float64(matches) / float64(present)
	}
	if model != nil {
		sort.SliceStable(rows, func(i, j int) bool { return rows[i].score > rows[j].score })
		s.rankedMatches = make([]bool, len(rows))
		for i, r := range rows {
			s.rankedMatches[i] = r.match
		}
	}
	e.planner.mu.Lock()
	if prev, ok := e.planner.scrub[key]; ok {
		s = prev
	} else {
		e.planner.scrub[key] = s
	}
	e.planner.mu.Unlock()
	return s
}

// importanceHitRate estimates the hit rate of detector verification in
// importance (confidence-ranked) order: the match precision among the
// top-scored held-out frames, floored at the overall match rate.
func (s *scrubStatsEntry) importanceHitRate(limit int) float64 {
	if len(s.rankedMatches) == 0 {
		return s.matchRate
	}
	top := limit
	if top < 16 {
		top = 16
	}
	if top > len(s.rankedMatches) {
		top = len(s.rankedMatches)
	}
	hits := 0
	for _, m := range s.rankedMatches[:top] {
		if m {
			hits++
		}
	}
	rate := float64(hits) / float64(top)
	if rate < s.matchRate {
		rate = s.matchRate
	}
	return rate
}
