package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/frameql"
	"repro/internal/plan"
	"repro/internal/scrub"
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
	open func() (execution, error)
	// notes is planner narration (e.g. fallback reasons) prepended to the
	// result's notes when the cost-based pick — not a hint — runs this
	// plan, reproducing the rule-based optimizer's messages.
	notes []string
}

func (p *costedPlan) Describe() plan.Description             { return p.desc }
func (p *costedPlan) EstimateCost() plan.Cost                { return p.est }
func (p *costedPlan) Open() (plan.Execution[*Result], error) { return p.openExec() }

// openExec opens the plan's family exec.
func (p *costedPlan) openExec() (execution, error) {
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
// Every feasible candidate is stamped with whether the family's prepared
// state was served from the store or computed by this enumeration.
func (e *Engine) enumerate(info *frameql.Info, par int) ([]candidate, error) {
	u := &prepUse{family: info.Kind.String()}
	var cands []candidate
	var err error
	switch info.Kind {
	case frameql.KindAggregate:
		cands, err = e.enumerateAggregate(info, par, u)
	case frameql.KindDistinct:
		cands, err = e.enumerateDistinct(info, par)
	case frameql.KindScrubbing:
		cands, err = e.enumerateScrubbing(info, par, u)
	case frameql.KindSelection:
		cands, err = e.enumerateSelection(info, par, u)
	case frameql.KindBinary:
		cands, err = e.enumerateBinary(info, par, u)
	default:
		cands, err = e.enumerateExhaustive(info, par)
	}
	for i := range cands {
		if cands[i].Infeasible == "" {
			cands[i].Prepared = u.mark()
		}
	}
	return cands, err
}

// effectiveParallelism resolves a per-query parallelism override against
// the engine default.
func (e *Engine) effectiveParallelism(parallelism int) int {
	if parallelism <= 0 {
		parallelism = e.opts.Parallelism
	}
	return ResolveParallelism(parallelism)
}

// decide plans an analyzed query, the one place a candidate is chosen: it
// validates the query against the engine's stream, enumerates the family's
// candidates at the effective parallelism, applies the calibration store's
// correction factors so the choice prices candidates with calibrated
// estimates, and picks — the first of force that names a candidate, else
// the query's hint (both forced picks), else the minimum-marginal-estimate
// candidate.
func (e *Engine) decide(info *frameql.Info, parallelism int, force ...string) (cands []candidate, chosen *candidate, forced bool, err error) {
	if info.Video != "" && info.Video != e.Cfg.Name {
		return nil, nil, false, fmt.Errorf("core: query is over %q but engine holds %q", info.Video, e.Cfg.Name)
	}
	if cands, err = e.enumerate(info, e.effectiveParallelism(parallelism)); err != nil {
		return nil, nil, false, err
	}
	e.applyCalibration(info.Kind.String(), cands)
	if len(force) == 0 && info.PlanHint != "" {
		force = []string{info.PlanHint}
	}
	if forced = len(force) > 0; forced {
		chosen, err = plan.Force(cands, force...)
	} else {
		chosen, err = plan.Choose(cands)
	}
	return cands, chosen, forced, err
}

// ExecuteForced runs an analyzed query with the first matching named
// physical plan instead of the cost-based pick — the hint path. The
// paper's comparison baselines (§10.1.1) run through it by plan name
// ("naive-exhaustive", "noscope-oracle", "naive-aqp", "scrub-sequential",
// "scrub-noscope-oracle", "selection-naive", "selection-noscope-oracle"),
// so they share the planner's enumeration, and any preparation it caches,
// with the optimizer's own run of the query. The NoScope oracle plans know
// for free whether a frame contains a class; they are gated candidates,
// forcible here or by hint, never chosen on cost. With no names it is
// ExecuteParallel.
func (e *Engine) ExecuteForced(info *frameql.Info, parallelism int, names ...string) (*Result, error) {
	return e.execute(info, parallelism, nil, names...)
}

// ExplainPlan enumerates and prices the candidate plans for an analyzed
// query without executing any of them. Planning may still prepare shared
// index state (train the specialized network, compute held-out
// statistics) the first time a class is seen — the same preparation the
// query's execution would perform and cache.
func (e *Engine) ExplainPlan(info *frameql.Info, parallelism int) (*plan.Report, error) {
	e = e.pin()
	cands, chosen, forced, err := e.decide(info, parallelism)
	if err != nil {
		return nil, err
	}
	rep := plan.NewReport(info.Kind.String(), cands, chosen, forced)
	// Store provenance is EXPLAIN's alone: an executed Result's report must
	// not depend on cache state.
	for i := range cands {
		rep.Candidates[i].Prepared = cands[i].Prepared
	}
	return rep, nil
}

// plannerState is the engine's planning memory and accounting: the
// prepared-state store every enumeration reads its held-out products from
// (prepared.go), the feedback-calibration store, and the planner's side of
// the engine's books.
type plannerState struct {
	// prep has its own lock; it is never taken with mu held.
	prep *prepStore

	mu sync.Mutex
	// calib holds the feedback-calibration entries per (family, plan):
	// windowed actual/estimate ratios whose median becomes the
	// correction factor applied at enumeration time (calibration.go).
	calib map[string]*calibEntry
	// famErr holds the per-family sliding window of relative estimate
	// errors — the recent-history counterpart of the books' lifetime
	// estimate error, read by Engine.Accounting and the drift detector's
	// feedback path.
	famErr map[string]*errWindow
	// books holds the live decision counters: Planned, Forced, Picks and
	// the lifetime estimate error. Engine.Accounting fills in the rest.
	books Accounting
}

func newPlannerState() *plannerState {
	return &plannerState{
		prep:   newPrepStore(),
		calib:  make(map[string]*calibEntry),
		famErr: make(map[string]*errWindow),
	}
}

// record tallies one executed planning decision: a one-execution
// Accounting merged into the books.
func (p *plannerState) record(rep *plan.Report) {
	one := Accounting{Planned: 1, Picks: map[string]map[string]uint64{rep.Family: {rep.Chosen: 1}}}
	if rep.Forced {
		one.Forced = 1
	} else if rep.EstimateSeconds > 0 {
		one.EstimateErrorSum = math.Abs(rep.ActualSeconds-rep.EstimateSeconds) / rep.EstimateSeconds
		one.EstimateErrorCount = 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.books.Merge(one)
	p.observe(rep)
}

// Accounting is a snapshot of one engine's books — what its executions
// did (scan fan-out) and what its planner decided (picks, estimate error,
// calibration, prepared-state lookups). Snapshots of several engines Merge
// into one, which is what a multi-stream front end reports.
type Accounting struct {
	// Executions counts plan executions opened; Fanouts how many of them
	// ran shards on more than one worker; Shards the scan shards produced;
	// Chunks the chunk-aligned consume batches merged.
	Executions, Fanouts, Shards, Chunks uint64
	// Planned counts executed planning decisions, Forced those a hint or a
	// baseline forced.
	Planned, Forced uint64
	// Picks maps family → plan name → executions.
	Picks map[string]map[string]uint64
	// EstimateErrorSum accumulates relative |actual−estimate|/estimate over
	// the EstimateErrorCount cost-chosen executions.
	EstimateErrorSum   float64
	EstimateErrorCount uint64
	// WindowErrors maps family → sliding-window estimate-error summary
	// (the same window the drift detector's feedback path fills; see
	// calibration.go). Unlike the lifetime mean it includes forced
	// executions, because standing queries resume by forcing their
	// pinned plan and drift must see them. Families whose window is still
	// empty are absent.
	WindowErrors map[string]WindowErrorStat
	// Calibrations maps "family|plan" → lifetime feedback observation
	// count in the calibration store.
	Calibrations map[string]uint64
	// Prepared maps family → prepared-state store lookups (prepared.go);
	// PreparedEntries is the store's current size, never above its cap.
	Prepared        map[string]PreparedStat
	PreparedEntries int
}

// MeanEstimateError is the mean relative estimate error over cost-chosen
// executions (0 with none).
func (a *Accounting) MeanEstimateError() float64 {
	if a.EstimateErrorCount == 0 {
		return 0
	}
	return a.EstimateErrorSum / float64(a.EstimateErrorCount)
}

// Merge adds b into a: counters sum, pick and lookup maps merge key by key,
// and each family's window error pools by sample weight, so the merged mean
// weights every windowed execution equally whichever engine ran it. The
// zero Accounting is ready to merge into.
func (a *Accounting) Merge(b Accounting) {
	if a.Picks == nil {
		a.Picks = make(map[string]map[string]uint64)
		a.WindowErrors = make(map[string]WindowErrorStat)
		a.Calibrations = make(map[string]uint64)
		a.Prepared = make(map[string]PreparedStat)
	}
	a.Executions += b.Executions
	a.Fanouts += b.Fanouts
	a.Shards += b.Shards
	a.Chunks += b.Chunks
	a.Planned += b.Planned
	a.Forced += b.Forced
	a.EstimateErrorSum += b.EstimateErrorSum
	a.EstimateErrorCount += b.EstimateErrorCount
	a.PreparedEntries += b.PreparedEntries
	for fam, m := range b.Picks {
		if a.Picks[fam] == nil {
			a.Picks[fam] = make(map[string]uint64, len(m))
		}
		for name, n := range m {
			a.Picks[fam][name] += n
		}
	}
	for k, n := range b.Calibrations {
		a.Calibrations[k] += n
	}
	for fam, st := range b.Prepared {
		t := a.Prepared[fam]
		t.Hits += st.Hits
		t.Misses += st.Misses
		t.DiskLoads += st.DiskLoads
		a.Prepared[fam] = t
	}
	for fam, we := range b.WindowErrors {
		t := a.WindowErrors[fam]
		if n := t.Samples + we.Samples; n > 0 {
			t.MeanError = (t.MeanError*float64(t.Samples) + we.MeanError*float64(we.Samples)) / float64(n)
		}
		t.Samples += we.Samples
		t.Lifetime += we.Lifetime
		a.WindowErrors[fam] = t
	}
}

// Accounting returns a snapshot of the engine's books; the maps are the
// snapshot's own.
func (e *Engine) Accounting() Accounting {
	a := Accounting{
		Executions: e.exec.queries.Load(),
		Fanouts:    e.exec.fanouts.Load(),
		Shards:     e.exec.shards.Load(),
		Chunks:     e.exec.chunks.Load(),
	}
	p := e.planner
	p.mu.Lock()
	a.Merge(p.books)
	for fam, w := range p.famErr {
		if len(w.vals) > 0 {
			a.WindowErrors[fam] = WindowErrorStat{MeanError: w.mean(), Samples: len(w.vals), Lifetime: w.count}
		}
	}
	for k, ent := range p.calib {
		a.Calibrations[k] = ent.count
	}
	p.mu.Unlock()
	p.prep.mu.Lock()
	defer p.prep.mu.Unlock()
	a.PreparedEntries = len(p.prep.entries)
	for fam, st := range p.prep.stats {
		a.Prepared[fam] = *st
	}
	return a
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
	// MeanCount and StdCount describe the per-frame count distribution.
	MeanCount, StdCount float64
	// Presence is the fraction of frames containing the class.
	Presence float64
}

func (e *Engine) baseStats(u *prepUse, class vidsim.Class) *baseStats {
	s, _ := prepared(e, u, e.shapeKey("base", nil, class), func() (*baseStats, error) {
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
		s := &baseStats{MeanCount: acc.Mean(), StdCount: acc.StdDev()}
		if n > 0 {
			s.Presence = float64(present) / float64(n)
		}
		return s, nil
	})
	return s
}

// residStats describe how well the specialized network tracks the
// detector on the held-out day: the standard deviation of the per-frame
// residual (expected count − detector count) prices the control-variates
// estimator's sampling need.
type residStats struct {
	ResidStd float64
	Corr     float64
}

func (e *Engine) residStats(u *prepUse, class vidsim.Class, model *specnn.CountModel) *residStats {
	s, _ := prepared(e, u, e.shapeKey("resid", model, class), func() (*residStats, error) {
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
		return &residStats{ResidStd: res.StdDev(), Corr: mt.Correlation()}, nil
	})
	return s
}

// heldErrsEntry holds specnn.HeldOutErrors for one class. The errors and
// their simulated cost are deterministic per engine, so one computation
// serves both planning (feasibility of query rewriting) and the exact
// charge replay every aggregate execution performs.
type heldErrsEntry struct {
	Errs []float64
	Cost float64
}

func (e *Engine) heldOutErrors(u *prepUse, class vidsim.Class, model *specnn.CountModel) (*heldErrsEntry, error) {
	return prepared(e, u, e.shapeKey("held-errs", model, class), func() (*heldErrsEntry, error) {
		errs, cost, err := specnn.HeldOutErrors(model, e.HeldOut, e.DHeld, class, e.opts.HeldOutSample, e.opts.Seed+3)
		if err != nil {
			return nil, err
		}
		return &heldErrsEntry{Errs: errs, Cost: cost}, nil
	})
}

// biasWithin is BiasWithin per (class, tolerance) over the model's held-out
// errors — the bootstrap is deterministic, and repeated queries with the
// same tolerance reuse it.
func (e *Engine) biasWithin(u *prepUse, class vidsim.Class, model *specnn.CountModel, errs []float64, tol float64) float64 {
	v, _ := prepared(e, u, e.shapeKey("bias", model, class, tol), func() (float64, error) {
		return specnn.BiasWithin(errs, tol, 500, e.opts.Seed+4), nil
	})
	return v
}

// scrubStatsEntry holds held-out statistics for one scrubbing requirement
// set: how often frames satisfy every minimum count, how often all
// classes are at least present, and — when a specialized network exists —
// the match outcomes ranked by the same combined confidence score the
// importance plan searches in.
type scrubStatsEntry struct {
	MatchRate         float64
	PresentRate       float64
	MatchGivenPresent float64
	RankedMatches     []bool
}

// scrubReqsKey renders a requirement list in query order (scores sum in
// that order, and float addition does not commute across three terms).
func scrubReqsKey(reqs []scrub.Requirement) string {
	parts := make([]string, len(reqs))
	for i, r := range reqs {
		parts[i] = fmt.Sprintf("%s:%d", r.Class, r.N)
	}
	return strings.Join(parts, ",")
}

func (e *Engine) scrubPlanStats(u *prepUse, reqs []scrub.Requirement, model *specnn.CountModel) *scrubStatsEntry {
	s, _ := prepared(e, u, e.shapeKey("scrub-stats", model, scrubReqsKey(reqs)), func() (*scrubStatsEntry, error) {
		return e.measureScrubStats(reqs, model), nil
	})
	return s
}

func (e *Engine) measureScrubStats(reqs []scrub.Requirement, model *specnn.CountModel) *scrubStatsEntry {
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
		s.MatchRate = float64(matches) / float64(len(rows))
		s.PresentRate = float64(present) / float64(len(rows))
	}
	if present > 0 {
		s.MatchGivenPresent = float64(matches) / float64(present)
	}
	if model != nil {
		sort.SliceStable(rows, func(i, j int) bool { return rows[i].score > rows[j].score })
		s.RankedMatches = make([]bool, len(rows))
		for i, r := range rows {
			s.RankedMatches[i] = r.match
		}
	}
	return s
}

// importanceHitRate estimates the hit rate of detector verification in
// importance (confidence-ranked) order: the match precision among the
// top-scored held-out frames, floored at the overall match rate.
func (s *scrubStatsEntry) importanceHitRate(limit int) float64 {
	if len(s.RankedMatches) == 0 {
		return s.MatchRate
	}
	top := limit
	if top < 16 {
		top = 16
	}
	if top > len(s.RankedMatches) {
		top = len(s.RankedMatches)
	}
	hits := 0
	for _, m := range s.RankedMatches[:top] {
		if m {
			hits++
		}
	}
	rate := float64(hits) / float64(top)
	if rate < s.MatchRate {
		rate = s.MatchRate
	}
	return rate
}
