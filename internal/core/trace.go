package core

import (
	"strconv"
	"time"

	"repro/internal/frameql"
	"repro/internal/index"
	"repro/internal/obs"
)

// This file threads query-level tracing through the execution layer: the
// entry points (ExecuteParallelTraced here, AdvanceTraced in exec.go)
// record a span tree — plan selection, preparation charges, each RunTo's
// sharded scan with per-shard produce/merge timing, finalization — onto
// an obs.Trace the caller owns. An untraced execution runs the same code
// with nil spans.
//
// Tracing is answer-neutral by construction: every hook only *reads*
// wall-clock time and the execution's already-charged cost meter. No span
// ever adds to the meter, and trace IDs come from crypto/rand, never
// from the engine's counter-based PRNG streams — so a traced execution
// is bit-identical to an untraced one, full cost meter included, at
// every parallelism level. The golden and determinism suites pin this.

// execTrace is one traced execution's hookup: the execution root span
// plus the span of the RunTo call currently in flight, which the scan
// operator attaches per-shard child spans to. A nil *execTrace is an
// untraced execution: its spans are nil, and nil spans absorb every call.
type execTrace struct {
	root *obs.Span
	scan *obs.Span // in-flight RunTo's span; nil between calls
}

func (t *execTrace) rootSpan() *obs.Span {
	if t == nil {
		return nil
	}
	return t.root
}

func (t *execTrace) scanSpan() *obs.Span {
	if t == nil {
		return nil
	}
	return t.scan
}

// rootOf returns a trace's root span, nil for a nil trace.
func rootOf(tr *obs.Trace) *obs.Span {
	if tr == nil {
		return nil
	}
	return tr.Root
}

// meterMark is one reading of a cost meter; a span records what the meter
// charged between a mark and the span's end.
type meterMark struct {
	sim                 float64
	det, chunks, frames int
}

// markMeter reads m.
func markMeter(m *Stats) meterMark {
	return meterMark{m.TotalSeconds(), m.DetectorCalls, m.IndexChunksSkipped, m.IndexFramesSkipped}
}

// charged records on sp what m has charged since the mark. A nil span
// records nothing.
func (k meterMark) charged(sp *obs.Span, m *Stats) {
	if sp == nil {
		return
	}
	sp.SimSeconds = m.TotalSeconds() - k.sim
	sp.DetectorCalls = m.DetectorCalls - k.det
	sp.ChunksSkipped = m.IndexChunksSkipped - k.chunks
	sp.FramesSkipped = m.IndexFramesSkipped - k.frames
}

func fmtSeconds(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// attachTrace hooks an opened execution to a trace root: the root gets
// plan identity attributes, a preparation span captures the one-time
// charges (training, held-out statistics, whole-day inference) the
// family exec paid when it opened — prepWall is the measured wall time
// of that construction — and the family exec is wired to report
// per-shard spans on subsequent RunTo calls.
func (x *Execution) attachTrace(root *obs.Span, prepWall time.Duration, prepName string) {
	if root == nil {
		return
	}
	t := &execTrace{root: root}
	x.tr = t
	root.SetAttr("family", x.info.Kind.String())
	root.SetAttr("plan", x.chosen.Plan.Describe().Name)
	root.SetAttr("parallelism", strconv.Itoa(x.par))
	if x.forced {
		root.SetAttr("forced", "true")
	}
	x.ex.setTrace(t)
	prep := root.Child(prepName)
	// The construction already happened; shift the span back over it.
	wallMS := float64(prepWall.Nanoseconds()) / 1e6
	prep.StartMS = max(prep.StartMS-wallMS, 0)
	meterMark{}.charged(prep, x.ex.meter())
	if wallMS > 0 {
		prep.DurMS = wallMS
	} else {
		prep.End()
	}
}

// detachTrace unhooks a finished trace from a resident execution, so the
// next advance records onto its own.
func (x *Execution) detachTrace() {
	if x.tr == nil {
		return
	}
	x.tr = nil
	x.ex.setTrace(nil)
}

// scanScope captures the meter and progress baselines at the start of one
// traced RunTo, so the scan span records deltas.
type scanScope struct {
	sp   *obs.Span
	pos0 int
	mark meterMark
}

// traceScanStart opens the scan span for one RunTo (nil when untraced).
func (x *Execution) traceScanStart(units int) *scanScope {
	if x.tr == nil {
		return nil
	}
	sp := x.tr.root.Child("scan")
	if units >= 0 {
		sp.SetAttr("units_requested", strconv.Itoa(units))
	}
	x.tr.scan = sp
	return &scanScope{sp: sp, pos0: x.ex.Pos(), mark: markMeter(x.ex.meter())}
}

// traceScanEnd closes the RunTo's scan span with progress and meter
// deltas.
func (x *Execution) traceScanEnd(sc *scanScope, err error) {
	if sc == nil {
		return
	}
	x.tr.scan = nil
	sc.sp.Frames = x.ex.Pos() - sc.pos0
	sc.mark.charged(sc.sp, x.ex.meter())
	sc.sp.Fail(err)
	sc.sp.End()
}

// traceFinalize annotates the trace with the finalized result: the cost
// charged during finalization itself (adaptive sampling settles its
// per-sample cost and selection confirms tracks at Result time, after the
// scan span closed — pre is the meter reading taken when finalization
// began), plus the cost-vs-estimate comparison the planner's feedback
// loop and the slow-query log read. With those deltas, prep + scan +
// finalize sim-seconds reconcile to the result's full meter.
func (x *Execution) traceFinalize(fin *obs.Span, res *Result, pre meterMark) {
	if fin == nil {
		return
	}
	// The finalize span reports the execution's whole skip totals.
	pre.chunks, pre.frames = 0, 0
	pre.charged(fin, &res.Stats)
	fin.End()
	root := x.tr.root
	root.SetAttr("actual_sim_seconds", fmtSeconds(res.Stats.TotalSeconds()))
	root.SetAttr("detector_calls", strconv.Itoa(res.Stats.DetectorCalls))
	if res.Stats.ConjunctionChunksSkipped > 0 {
		root.SetAttr("conjunction_chunks_skipped", strconv.Itoa(res.Stats.ConjunctionChunksSkipped))
	}
	if res.Stats.DensityChunksOutOfOrder > 0 {
		root.SetAttr("density_chunks_out_of_order", strconv.Itoa(res.Stats.DensityChunksOutOfOrder))
	}
	if res.PlanReport != nil {
		root.SetAttr("estimate_sim_seconds", fmtSeconds(res.PlanReport.EstimateSeconds))
	}
}

// ExecuteParallelTraced is ExecuteParallel recording a span tree onto tr
// (plan selection → prep charges → sharded scan → finalize); with a nil
// trace it is ExecuteParallel, through this same body. The Result is
// bit-identical either way — tracing reads the meter, never charges it.
func (e *Engine) ExecuteParallelTraced(info *frameql.Info, parallelism int, tr *obs.Trace) (*Result, error) {
	return e.execute(info, parallelism, tr)
}

// traceSnapshotAttrs stamps a live engine's pinned snapshot identity onto
// an execution's root span: the epoch the execution reads, and how many
// of its visible frames live in the unsealed ingest tail.
func (e *Engine) traceSnapshotAttrs(root *obs.Span) {
	if root == nil || !e.Live() {
		return
	}
	sn := e.snap.Load()
	root.SetAttr("snapshot_epoch", strconv.FormatUint(sn.Epoch, 10))
	root.SetAttr("tail_frames", strconv.Itoa(sn.Horizon%index.ChunkFrames))
}
