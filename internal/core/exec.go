package core

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/frameql"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/vidsim"
)

// This file is the engine's resumable execution layer: the bridge between
// the plan package's Execution contract and the per-family exec
// implementations, plus the continuous-query entry points (BeginQuery,
// ResumeQuery, Advance) the serving tier's standing queries run on.
//
// The suspend/resume contract, engine-level: executing a query to
// progress unit N, suspending into a plan.Cursor (a serializable blob),
// and resuming — in this process or after a restart against the same
// stream configuration — yields a Result bit-identical to one
// uninterrupted execution, full simulated cost meter included, at every
// parallelism level. Two mechanisms carry it:
//
//  1. Family exec state is exhaustive: frame position, tracker state,
//     partial accumulators and rows, LIMIT and GAP progress, and the
//     partial cost meter — including the one-time preparation charges
//     (training, held-out statistics, whole-day inference) captured when
//     the execution first opened, so a resumed execution replays exactly
//     what the original observed rather than re-reading cache state that
//     has since changed. What is a pure function of the position — a
//     sampled plan's draws — is recomputed, not stored.
//  2. The plan itself is re-derived, not serialized: the cursor carries
//     the canonical query text and the pinned plan name, and resuming
//     re-plans and forces that candidate. Planner inputs are held-out
//     statistics over the fixed held-out day, so within one stream
//     configuration the same name always resolves to the same physical
//     plan. Advance normally forces the pinned pick for the same reason —
//     but when the drift detector has flagged a cost-picked standing
//     query (calibration.go) and the pinned horizon reaches the
//     chunk-aligned boundary recorded in the cursor, it re-enumerates
//     with current calibration and may switch plans, opening the new pick
//     fresh so the advanced answer stays exactly a fresh query's answer.
//
// One executor implements plan.Execution: scanExec (scan.go), for every
// plan — exhaustive, selection, distinct, exact aggregates, binary,
// density-limit, the scrubbing searches, whose visited index is a position
// in a rank order, the adaptive samplers, whose visited index is a draw,
// and the specialized rewrite, a scan of one unit.
//
// Advance extends a completed execution over a live stream's newly appended
// frames: scans whose schedule is prefix-stable (exhaustive, selection,
// distinct, naive aggregates, binary, sequential and oracle-order
// scrubbing) continue from their accumulators and pay only the new suffix,
// while population-dependent plans (adaptive sampling, control variates,
// specialized rewrite, and the scans scheduled by a ranking of the whole
// population: density order and importance-ordered scrubbing — the one
// restart rule is scanExec.Restore's) deterministically re-run over the
// extended population — in both cases producing exactly what a fresh
// execution of the same query over the extended stream produces.
//
// A standing query is a resident Execution: it stays open for the
// subscription's lifetime, and each Advance re-pins it to the newly
// published snapshot and moves its accumulator, in memory, onto the plan
// re-opened there. A cursor is that execution serialized, produced only
// when it has to leave the process (Suspend); Engine.Advance(cursor) is
// resume, the same resident advance, suspend.

// execution is a family exec — a scanExec over the family's kernel — as
// the Execution wrapper drives it: the plan.Execution contract plus its
// live cost meter (read by tracing), its trace hookup, and Advance's
// in-memory takeover of the same plan's exec at an earlier snapshot.
type execution interface {
	plan.Execution[*Result]
	meter() *Stats
	setTrace(*execTrace)
	adopt(prev execution)
}

// Execution is one resumable query execution: a planned (or resumed)
// candidate with its enumeration context, driving the family's exec.
type Execution struct {
	// master is the engine the execution was begun on; e is its view pinned
	// at the snapshot the execution reads, which Advance moves forward.
	master *Engine
	e      *Engine
	info   *frameql.Info
	cands  []candidate
	chosen *candidate
	forced bool
	par    int
	// ex is the open family exec; nil after an advance failed part-way, so
	// the next one opens the pinned plan afresh rather than continue from an
	// accumulator that may hold half a batch.
	ex    execution
	final *Result
	// replanAt and switches are the drift protocol's state (the cursor's
	// ReplanAtHorizon and PlanSwitches).
	replanAt, switches int
	// tr is the attached trace hookup (nil for untraced executions); see
	// trace.go. Tracing reads the meter and wall clock only — it never
	// alters the execution's answer or simulated cost.
	tr *execTrace
}

// newExecution opens the chosen candidate's family exec on e — master's
// view pinned at the snapshot the execution reads — and wraps it.
func (e *Engine) newExecution(master *Engine, info *frameql.Info, cands []candidate, chosen *candidate, forced bool, par int) (*Execution, error) {
	ex, err := chosen.Plan.(*costedPlan).openExec()
	if err != nil {
		return nil, err
	}
	e.exec.queries.Add(1)
	return &Execution{master: master, e: e, info: info, cands: cands, chosen: chosen, forced: forced, par: par, ex: ex}, nil
}

// open is the one way a fresh query becomes an execution: pin the published
// snapshot, enumerate and price the family's candidates, pick — the first
// of force that names a candidate, else the query's hint, else the cheapest
// — and open the pick's family exec, unrun. Onto tr (nil when untraced) it
// records the snapshot identity, the decision as a "plan" span and the
// preparation charges the open paid as a "prep" span. Resumed executions
// re-open a cursor's pinned plan in resume instead.
func (e *Engine) open(info *frameql.Info, parallelism int, tr *obs.Trace, force ...string) (*Execution, error) {
	master := e
	e = e.pin()
	root := rootOf(tr)
	e.traceSnapshotAttrs(root)
	planSp := root.Child("plan")
	cands, chosen, forced, err := e.decide(info, parallelism, force...)
	if err != nil {
		planSp.Fail(err)
		return nil, err
	}
	planSp.SetAttr("candidates", strconv.Itoa(len(cands)))
	planSp.SetAttr("chosen", chosen.Plan.Describe().Name)
	planSp.SetAttr("estimate_sim_seconds", fmtSeconds(chosen.Plan.EstimateCost().Total()))
	if forced {
		planSp.SetAttr("forced", "true")
	}
	planSp.End()
	prepStart := time.Now()
	x, err := e.newExecution(master, info, cands, chosen, forced, e.effectiveParallelism(parallelism))
	if err != nil {
		return nil, err
	}
	x.attachTrace(root, time.Since(prepStart), "prep")
	return x, nil
}

// execute opens a fresh query and runs it to completion — the one-shot
// path. Ground-truth labels observed while sampling are published for the
// next query regardless of the outcome (RunTo commits them on completion
// and on error); mid-query lookups saw only the pre-query snapshot,
// keeping executions deterministic.
func (e *Engine) execute(info *frameql.Info, parallelism int, tr *obs.Trace, force ...string) (*Result, error) {
	x, err := e.open(info, parallelism, tr, force...)
	if err == nil {
		err = x.RunTo(-1)
	}
	if err != nil {
		return nil, err
	}
	return x.Result()
}

// BeginQuery plans an analyzed query and opens a resumable execution of
// the picked (or hinted) candidate without running it. parallelism 0 uses
// the engine default.
func (e *Engine) BeginQuery(info *frameql.Info, parallelism int) (*Execution, error) {
	return e.open(info, parallelism, nil)
}

// BeginQueryTraced is BeginQuery recording plan selection and preparation
// charges onto tr; the spans of RunTo and Result follow under the same
// root. With a nil trace it is BeginQuery.
func (e *Engine) BeginQueryTraced(info *frameql.Info, parallelism int, tr *obs.Trace) (*Execution, error) {
	return e.open(info, parallelism, tr)
}

// RunTo executes until at least `units` of the plan's progress units are
// consumed (frames visited, samples measured, rank positions probed —
// family-specific) or the execution completes; units < 0 runs to
// completion. Ground-truth labels observed while running are published
// for subsequent queries whenever the execution completes or errors,
// exactly as one-shot execution publishes them.
func (x *Execution) RunTo(units int) error {
	x.final = nil
	sc := x.traceScanStart(units)
	err := x.ex.RunTo(units)
	x.traceScanEnd(sc, err)
	if err != nil || x.ex.Done() {
		x.e.idx.CommitLabels()
	}
	return err
}

// Done reports whether the execution has completed for the stream's
// current horizon.
func (x *Execution) Done() bool { return x.ex != nil && x.ex.Done() }

// Pos returns the progress units consumed; Total the units the current
// input holds (-1 when unknown up front, as for adaptive sampling).
func (x *Execution) Pos() int   { return x.ex.Pos() }
func (x *Execution) Total() int { return x.ex.Total() }

// Result finalizes and returns the execution's outcome: the family
// result with planner notes prepended, the plan report attached, and the
// decision recorded — the same post-processing one-shot execution
// performs. It requires a completed execution (suspended executions have
// no answer yet) and is repeatable: advancing the execution further and
// calling Result again yields the updated outcome.
func (x *Execution) Result() (*Result, error) {
	if x.ex == nil {
		return nil, fmt.Errorf("core: execution of %q failed its last advance; advance it again first", x.PlanName())
	}
	if !x.ex.Done() {
		return nil, fmt.Errorf("core: execution of %q suspended at unit %d; Result requires completion", x.PlanName(), x.ex.Pos())
	}
	if x.final != nil {
		return x.final, nil
	}
	fin := x.tr.rootSpan().Child("finalize")
	pre := markMeter(x.ex.meter())
	res, err := x.ex.Result()
	if err != nil {
		fin.Fail(err)
		return nil, err
	}
	cp := x.chosen.Plan.(*costedPlan)
	if !x.forced && len(cp.notes) > 0 {
		res.Stats.Notes = append(append([]string(nil), cp.notes...), res.Stats.Notes...)
	}
	rep := plan.NewReport(x.info.Kind.String(), x.cands, x.chosen, x.forced)
	rep.ActualSeconds = res.Stats.TotalSeconds()
	rep.IndexChunksSkipped = res.Stats.IndexChunksSkipped
	rep.IndexFramesSkipped = res.Stats.IndexFramesSkipped
	rep.ConjunctionChunksSkipped = res.Stats.ConjunctionChunksSkipped
	rep.DensityChunksOutOfOrder = res.Stats.DensityChunksOutOfOrder
	res.PlanReport = rep
	x.e.planner.record(rep)
	x.traceFinalize(fin, res, pre)
	x.final = res
	return res, nil
}

// Suspend serializes the execution into a cursor that ResumeQuery (here
// or in a restarted process over the same stream configuration) can
// continue from. Labels observed so far are published, as they would be
// at execution end. This is the only place an execution's state is
// encoded: a resident standing query suspends when it has to leave the
// process, not per advance.
func (x *Execution) Suspend() (*plan.Cursor, error) {
	if x.ex == nil {
		return nil, fmt.Errorf("core: cannot suspend %q after a failed advance; advance it again first", x.PlanName())
	}
	state, err := x.ex.Snapshot()
	if err != nil {
		return nil, err
	}
	x.e.idx.CommitLabels()
	return &plan.Cursor{
		Family:          x.info.Kind.String(),
		Plan:            x.PlanName(),
		Query:           x.info.Stmt.String(),
		Parallelism:     x.par,
		Horizon:         x.Horizon(),
		Units:           x.ex.Pos(),
		Done:            x.ex.Done(),
		Forced:          x.forced,
		ReplanAtHorizon: x.replanAt,
		PlanSwitches:    x.switches,
		State:           state,
	}, nil
}

// PlanName returns the physical plan the execution is pinned to.
func (x *Execution) PlanName() string { return x.chosen.Plan.Describe().Name }

// Horizon returns the stream frame count of the snapshot the execution
// reads: what its answer covers once Done.
func (x *Execution) Horizon() int { return x.e.Test.Frames }

// PlanSwitches counts the execution's drift-triggered plan switches;
// ReplanAtHorizon, when nonzero, is the chunk-aligned horizon at which a
// pending drift re-plan will re-enumerate.
func (x *Execution) PlanSwitches() int    { return x.switches }
func (x *Execution) ReplanAtHorizon() int { return x.replanAt }

// ResumeQuery re-opens a suspended execution from its cursor: the
// canonical query is re-planned against the current snapshot, the cursor's
// pinned candidate is forced, and the family exec restores its accumulator
// snapshot.
func (e *Engine) ResumeQuery(cur *plan.Cursor) (*Execution, error) {
	return e.resume(cur, nil)
}

// resume is ResumeQuery recording onto root (nil when untraced): index
// catch-up when the stream has grown past the cursor, then the re-plan and
// state restore as the "resume" preparation span.
func (e *Engine) resume(cur *plan.Cursor, root *obs.Span) (*Execution, error) {
	master := e
	e = e.pin()
	info, err := frameql.Analyze(cur.Query)
	if err != nil {
		return nil, fmt.Errorf("core: resuming cursor: %w", err)
	}
	if cur.Horizon > e.Test.Frames {
		// The cursor covers frames this engine cannot see (a restart with
		// an earlier LiveStart, or the wrong stream configuration).
		// Scan-family state restored verbatim would report rows and sums
		// over invisible frames; refuse rather than answer wrongly.
		return nil, fmt.Errorf("core: cursor covers horizon %d but the stream's visible horizon is %d; re-open the stream at or beyond the cursor's horizon (or subscribe afresh)", cur.Horizon, e.Test.Frames)
	}
	if err := e.catchUp(info, cur.Horizon, root); err != nil {
		return nil, err
	}
	start := time.Now()
	cands, chosen, _, err := e.decide(info, cur.Parallelism, cur.Plan)
	if err != nil {
		return nil, fmt.Errorf("core: resuming cursor: %w", err)
	}
	x, err := e.newExecution(master, info, cands, chosen, cur.Forced, cur.Parallelism)
	if err != nil {
		return nil, err
	}
	if len(cur.State) > 0 {
		if err := x.ex.Restore(cur.State); err != nil {
			return nil, fmt.Errorf("core: restoring cursor state for %s: %w", cur.Plan, err)
		}
	}
	x.replanAt, x.switches = cur.ReplanAtHorizon, cur.PlanSwitches
	x.attachTrace(root, time.Since(start), "resume")
	return x, nil
}

// Advance brings a standing query's cursor up to the stream's current
// horizon: the suspended execution resumes against the published snapshot,
// advances (Execution.Advance), and re-suspends. The returned Result is
// exactly what a fresh execution of the same query over the extended
// stream returns (answers, rows, frames, and the scan-accumulated cost
// meter; one-time preparation charges reflect what the standing query
// actually paid when it first planned, which a fresh query on the same
// warm engine also pays). A cursor already at the horizon re-derives the
// identical result (re-planning included, since the result must be
// finalized against plan state the cursor does not carry); callers polling
// in a loop should keep the Execution resident instead, as the serving
// tier's /poll and the public StandingQuery.Advance do.
func (e *Engine) Advance(cur *plan.Cursor) (*Result, *plan.Cursor, error) {
	return e.AdvanceTraced(cur, nil)
}

// AdvanceTraced is Advance recording a span tree onto tr: ingest
// catch-up, cursor resume (re-plan plus state restore, carrying the
// standing query's preparation charges), what Execution.Advance records,
// and re-suspension. With a nil trace it is Advance, through this same
// body: obs spans are nil-safe, so the span calls become no-ops.
func (e *Engine) AdvanceTraced(cur *plan.Cursor, tr *obs.Trace) (*Result, *plan.Cursor, error) {
	root := rootOf(tr)
	x, err := e.resume(cur, root)
	if err != nil {
		return nil, nil, err
	}
	res, err := x.advance(root)
	if err != nil {
		return nil, nil, err
	}
	sus := root.Child("suspend")
	ncur, err := x.Suspend()
	if err != nil {
		sus.Fail(err)
		return nil, nil, err
	}
	sus.End()
	return res, ncur, nil
}

// Advance brings the execution up to the engine's published snapshot and
// returns its answer there — the standing query's step, and all of it:
// no query text is analyzed and nothing is encoded. When the stream has
// grown, the plan is re-priced and re-opened against the new snapshot
// (enumeration reads the prepared store, so this costs microseconds) and
// takes over the accumulator in memory: scan plans then run the appended
// suffix only, population-dependent plans re-run deterministically. On an
// unchanged stream it returns the answer it already has.
//
// Cost-picked executions additionally run the drift protocol: after each
// advance the engine checks whether the execution's actual cost left the
// calibrated estimate's accuracy band or the live window's re-measured
// presence left the band around the held-out presence (calibration.go);
// if so, the next chunk-aligned horizon is recorded, and the first
// Advance at or past that boundary re-enumerates and may switch plans. A
// switch opens the new pick fresh over the pinned horizon, so the advanced
// answer remains bitwise-equal to a fresh query's.
//
// An error leaves the execution usable: the next Advance opens the pinned
// plan afresh over the snapshot it finds, which is again a fresh query's
// answer. Advance records a span tree onto tr when it is non-nil: ingest
// catch-up, the re-pin as "resume" (or "replan" and "replan-open" at a
// switch), the incremental scan, and finalize.
func (x *Execution) Advance(tr *obs.Trace) (*Result, error) {
	return x.advance(rootOf(tr))
}

func (x *Execution) advance(root *obs.Span) (res *Result, err error) {
	defer func() {
		x.detachTrace()
		if res == nil {
			// Also on a panic out of a scan worker: the accumulator may hold
			// part of a batch.
			x.ex, x.final = nil, nil
		}
	}()
	e := x.master.pin()
	root.SetAttr("standing", "true")
	e.traceSnapshotAttrs(root)
	grown := e.Test.Frames > x.e.Test.Frames
	if !grown && x.final != nil {
		return x.final, nil
	}
	if err := e.catchUp(x.info, x.e.Test.Frames, root); err != nil {
		return nil, err
	}
	start := time.Now()
	prevPlan, prepName, switched := x.PlanName(), "resume", false
	var cands []candidate
	var chosen *candidate
	if !x.forced && x.replanAt > 0 && e.Test.Frames >= x.replanAt {
		rp := root.Child("replan")
		rp.SetAttr("incumbent", prevPlan)
		rp.SetAttr("boundary", strconv.Itoa(x.replanAt))
		// A cost-picked execution's query carries no hint, so this is the
		// cheapest candidate under current calibration.
		if cands, chosen, _, err = e.decide(x.info, x.par); err != nil {
			rp.Fail(err)
			return nil, err
		}
		rp.SetAttr("chosen", chosen.Plan.Describe().Name)
		rp.End()
		x.replanAt = 0
		if switched = chosen.Plan.Describe().Name != prevPlan; switched {
			prepName = "replan-open"
			start = time.Now()
		}
	}
	if grown || switched || x.ex == nil {
		if cands == nil {
			if cands, chosen, _, err = e.decide(x.info, x.par, prevPlan); err != nil {
				return nil, err
			}
		}
		nx, err := chosen.Plan.(*costedPlan).openExec()
		if err != nil {
			return nil, err
		}
		e.exec.queries.Add(1)
		// A switched or re-opened plan starts fresh over the pinned horizon —
		// exactly what a fresh query at this horizon computes. Otherwise the
		// plan continues from the accumulator it had at the older snapshot.
		if !switched && x.ex != nil {
			nx.adopt(x.ex)
		}
		x.e, x.ex, x.final = e, nx, nil
		if switched {
			x.switches++
		}
	}
	if cands != nil {
		x.cands, x.chosen = cands, chosen
	}
	if x.tr == nil || grown || switched {
		x.attachTrace(root, time.Since(start), prepName)
	}
	if err := x.RunTo(-1); err != nil {
		return nil, err
	}
	if res, err = x.Result(); err != nil {
		return nil, err
	}
	if switched {
		root.SetAttr("plan_switched", "true")
		root.SetAttr("plan_switched_from", prevPlan)
	}
	if !x.forced && !switched && x.replanAt == 0 && e.detectDrift(x.info, x.chosen, res.PlanReport) {
		x.replanAt = replanBoundary(e.Test.Frames)
	}
	if x.switches > 0 {
		root.SetAttr("plan_switches", strconv.Itoa(x.switches))
	}
	if x.replanAt > 0 {
		root.SetAttr("replan_at_horizon", strconv.Itoa(x.replanAt))
	}
	return res, nil
}

// catchUp extends every already-materialized test-day segment the query's
// class sets address to the pinned horizon when the stream has grown past
// from, as the "ingest-catchup" span — so resumed executions (importance
// ranking, cascade scoring, label-filter columns) read index columns that
// cover every visible frame. Segments are only ever extended, never built
// here: a query whose plan did not pay for a segment must not trigger a
// whole-day inference on advance.
func (e *Engine) catchUp(info *frameql.Info, from int, root *obs.Span) error {
	if e.Test.Frames <= from {
		return nil
	}
	ing := root.Child("ingest-catchup")
	ing.SetAttr("from_horizon", strconv.Itoa(from))
	ing.SetAttr("to_horizon", strconv.Itoa(e.Test.Frames))
	var sets [][]vidsim.Class
	if info.Kind == frameql.KindScrubbing {
		if _, classes, err := scrubRequirements(info); err == nil && len(classes) > 1 {
			sets = append(sets, classes)
		}
	}
	for _, c := range info.Classes {
		sets = append(sets, []vidsim.Class{vidsim.Class(c)})
	}
	for _, set := range sets {
		if e.idx.PeekSegment(set, e.Test) == nil {
			continue
		}
		if _, err := e.idx.Ingest(set, e.Test); err != nil {
			ing.Fail(err)
			return err
		}
	}
	ing.End()
	return nil
}

// resultState is the serializable form of a Result, evaluation metadata
// included — the shape family execs snapshot completed answers in.
type resultState struct {
	Kind     string  `json:"kind"`
	Value    float64 `json:"value"`
	StdErr   float64 `json:"std_err"`
	Frames   []int   `json:"frames,omitempty"`
	Rows     []Row   `json:"rows,omitempty"`
	TrackIDs []int   `json:"track_ids,omitempty"`
	TruthIDs []int   `json:"truth_ids,omitempty"`
	Stats    Stats   `json:"stats"`
}
