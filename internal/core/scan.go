package core

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/index"
)

// This file is the scan operator: the one resumable execution every
// frame-scanning plan runs on (see the package comment's "scan operator"
// section for the model). A scanExec is a schedule — which visited-frame
// ranges, in what order — driving a family kernel; position, early exit,
// the cost meter, sticky errors, suspension, shard fan-out and the
// per-shard trace span live here and nowhere else.

// scanKernel is one plan family's part of a scan over visited frames
// (visited frame i is the family's frame lo+i·step; for scrubbing it is
// rank position i, the frame order[i]; for adaptive sampling it is the
// sampler's i-th draw).
type scanKernel[P any] interface {
	// produce evaluates visited frames [lo, hi). It is pure — a function
	// of the range and the pinned snapshot only — and runs concurrently
	// for distinct ranges, so a product may be thrown away and produced
	// again (speculation past a LIMIT, settlement after a Restore).
	produce(lo, hi int) P
	// merge consumes visited frames [blo, bhi) of p in frame order on the
	// caller's goroutine; off0 is blo's offset within p. With m non-nil it
	// charges m exactly as a serial scan of those frames would; with fold
	// set it folds them into the kernel's temporal-order accumulator
	// (tracker, rows, GAP/LIMIT progress). It reports the frames consumed
	// (short of bhi-blo only when it also reports finished or an error,
	// the last consumed frame being the one that finished or failed), the
	// raw candidate events among them (matches before GAP/LIMIT — an
	// upper bound on what they can add to the answer), and whether the
	// accumulator's LIMIT is now satisfied.
	merge(m *Stats, fold bool, blo, bhi, off0 int, p P) (consumed, hits int, finished bool, err error)
	// save and load serialize the accumulator together with the
	// operator's progress in the family's cursor format.
	save(p *scanProgress) ([]byte, error)
	load(state []byte, p *scanProgress) error
	// adopt takes over the accumulator of prev — this family's kernel over
	// an earlier snapshot of the same stream — sharing it, not copying: what
	// load(prev.save()) restores, without the encoding.
	adopt(prev scanKernel[P])
	// finish writes the accumulator's answer into res, charging res's
	// meter for any settlement work; it never mutates the accumulator.
	finish(res *Result)
}

// scanProgress is what the operator owns of a scan's state: progress
// units consumed (visited frames), whether a LIMIT finished it early, and
// the cost meter with the preparation charges captured at open.
type scanProgress struct {
	pos      int
	finished bool
	stats    Stats
}

// scanExec runs one kernel under one schedule. With den and rounds nil the
// schedule is the temporal ramp: visited frames [0, total) in order, each
// batch charged and folded in one pass. With den set it is the density
// order (density.go builds it), which charges in visit order and settles by
// folding the visited chunks' products in chunk order. With rounds set it
// is a sampling schedule (aggregate.go): visited index i is the i-th draw,
// total the sample budget.
type scanExec[P any] struct {
	scanProgress
	kind     string
	par      int
	total    int
	ramp     bool
	counters *execCounters
	k        scanKernel[P]
	den      *densityOrder[P]
	// rounds lays out a sampling schedule one round at a time: the draws
	// from pos to the end of its round (at most stop) as shards. Laying out
	// no further keeps the operator from measuring a draw the stopping rule
	// might not reach.
	rounds func(pos, stop int) []shard
	// horizon is nonzero when the schedule is a function of the whole
	// population — the density order, scrubbing's confidence ranking, the
	// sampler's draw order — and is the stream horizon it was computed at:
	// state suspended at another horizon describes a visit order this scan
	// does not have (see Restore).
	horizon int
	tr      *execTrace
	err     error
}

// newScan opens a temporal scan of total visited frames. ramp selects the
// early-exit shard layout (LIMIT-bearing plans).
func newScan[P any](counters *execCounters, kind, planName string, par, total int, ramp bool, k scanKernel[P]) *scanExec[P] {
	x := &scanExec[P]{kind: kind, par: par, total: total, ramp: ramp, counters: counters, k: k}
	x.stats.Plan = planName
	return x
}

func (x *scanExec[P]) setTrace(t *execTrace) { x.tr = t }
func (x *scanExec[P]) meter() *Stats         { return &x.stats }
func (x *scanExec[P]) Pos() int              { return x.pos }
func (x *scanExec[P]) Done() bool            { return x.finished || x.pos >= x.total }

// Total is the visited frames the schedule holds; a sampling schedule's
// budget is only an upper bound, so it reports -1.
func (x *scanExec[P]) Total() int {
	if x.rounds != nil {
		return -1
	}
	return x.total
}

// RunTo scans until units progress units are consumed or the scan is
// done. The range [pos, stop) is laid out as shards that never cross the
// stop — a sampling schedule's one round at a time —, produce runs per
// shard on the worker pool, and consume merges the products strictly in
// layout order on this goroutine — so stopping at a watermark just ends
// the loop at a shard edge, an early exit lands on its exact frame, and the
// resumed scan re-produces the remainder from pure inputs.
func (x *scanExec[P]) RunTo(units int) error {
	stop := units
	if stop < 0 || stop > x.total {
		stop = x.total
	}
	for x.err == nil && !x.finished && x.pos < stop {
		pos := x.pos
		var shards []shard
		switch {
		case x.den != nil:
			shards = x.den.layout(x.pos, stop)
		case x.rounds != nil:
			shards = x.rounds(x.pos, stop)
		default:
			shards = resumeShards(x.pos, stop, x.ramp)
		}
		// Workers time their own produce; the channel hand-off to consume
		// orders each write before its read.
		produceNS := make([]int64, len(shards))
		runSharded(x.par, shards, x.counters,
			func(s shard) P {
				t0 := time.Now()
				p := x.k.produce(s.lo, s.hi)
				produceNS[s.index] = time.Since(t0).Nanoseconds()
				return p
			},
			func(s shard, p P) bool { return x.consume(s, p, produceNS[s.index]) })
		if x.pos == pos {
			break // a restored state the schedule has nothing after
		}
	}
	return x.err
}

// consume merges one shard's product as chunk-aligned batches and records
// the shard's span (a no-op untraced: spans are nil-safe, and tracing
// only reads the meter).
func (x *scanExec[P]) consume(s shard, p P, produceNS int64) bool {
	// Attributes are formatted only when traced: a sampled scan consumes
	// many small shards.
	sp := x.tr.scanSpan()
	if sp != nil {
		if d := x.den; d != nil {
			ent := d.sched[d.schedPos]
			sp = sp.Child("chunk")
			sp.SetAttr("chunk", strconv.Itoa(ent.ci))
			sp.SetAttr("density", strconv.Itoa(ent.density))
		} else {
			sp = sp.Child("shard")
			sp.SetAttr("shard", strconv.Itoa(s.index))
		}
		sp.SetAttr("range", fmt.Sprintf("[%d,%d)", s.lo, s.hi))
		sp.SetAttr("produce_ms", strconv.FormatFloat(float64(produceNS)/1e6, 'g', -1, 64))
	}
	mark, pos0, batches := markMeter(&x.stats), x.pos, 0

	more, hits := true, 0
	for b := s.lo; more && b < s.hi; {
		e := chunkEnd(b, s.hi)
		x.counters.chunks.Add(1)
		batches++
		n, h, finished, err := x.k.merge(&x.stats, x.den == nil, b, e, b-s.lo, p)
		x.pos += n
		hits += h
		x.err, x.finished = err, finished
		more = err == nil && !finished
		b = e
	}
	if more && x.den != nil {
		more = x.den.visited(x, s, p, hits)
	}
	if sp != nil {
		sp.Frames, sp.Chunks = x.pos-pos0, batches
	}
	mark.charged(sp, &x.stats)
	sp.End()
	return more
}

func (x *scanExec[P]) Snapshot() ([]byte, error) {
	if x.err != nil {
		return nil, fmt.Errorf("core: cannot suspend errored execution: %w", x.err)
	}
	if d := x.den; d != nil {
		return json.Marshal(&densityState{Horizon: x.horizon, SchedPos: d.schedPos, InChunk: d.inChunk,
			Pos: x.pos, Raw: d.raw, Finished: x.finished, Stats: x.stats})
	}
	return x.k.save(&x.scanProgress)
}

// Restore continues a suspended scan — unless the schedule is
// population-dependent and the state was suspended at another horizon: new
// chunks may out-rank visited ones, new frames interleave with ranked ones,
// so the frontier means nothing over the current order. The scan then
// restarts deterministically over the pinned snapshot, which the freshly
// opened state already covers and which is exactly what a fresh query runs.
// Every cursor format of such a schedule carries its "horizon".
func (x *scanExec[P]) Restore(state []byte) error {
	if x.horizon != 0 {
		var at struct {
			Horizon int `json:"horizon"`
		}
		if err := json.Unmarshal(state, &at); err != nil {
			return err
		}
		if at.Horizon != x.horizon {
			return nil
		}
	}
	d := x.den
	if d == nil {
		return x.k.load(state, &x.scanProgress)
	}
	var st densityState
	if err := json.Unmarshal(state, &st); err != nil {
		return err
	}
	x.scanProgress = scanProgress{pos: st.Pos, finished: st.Finished, stats: st.Stats}
	d.schedPos, d.inChunk, d.raw = st.SchedPos, st.InChunk, st.Raw
	d.kept, d.lastAttemptRaw = map[int]P{}, -1
	return nil
}

// adopt continues prev — the same plan's scan of an earlier snapshot of the
// stream — as Restore continues its Snapshot, minus the encoding: a
// prefix-stable schedule takes prev's position, meter and accumulator and
// so has only the appended frames (or rank positions) left to visit; a
// population-dependent one keeps its fresh state and restarts, by Restore's
// rule.
func (x *scanExec[P]) adopt(prev execution) {
	o := prev.(*scanExec[P])
	if x.horizon != 0 || o.err != nil {
		return
	}
	x.scanProgress = o.scanProgress
	x.k.adopt(o.k)
}

func (x *scanExec[P]) Result() (*Result, error) {
	if x.err != nil {
		return nil, x.err
	}
	if !x.Done() {
		return nil, fmt.Errorf("core: %s scan suspended at frame %d of %d", x.stats.Plan, x.pos, x.total)
	}
	res := &Result{Kind: x.kind, Stats: x.stats}
	res.Stats.Notes = append([]string(nil), x.stats.Notes...)
	d := x.den
	if d == nil {
		x.k.finish(res)
		return res, nil
	}
	out, err := x.settle()
	if err != nil {
		return nil, err
	}
	res.Frames, res.Rows, res.TrackIDs, res.evalTruthIDs = out.Frames, out.Rows, out.TrackIDs, out.evalTruthIDs
	res.Stats.note("density order settled %d results after visiting %d of %d scheduled frames (%d of %d chunks)",
		settledCount(out), x.pos, x.total, d.schedPos, len(d.sched))
	return res, nil
}

// densityOrder is the density schedule's runtime state on a scanExec: the
// chunk visit order, how far along it the scan is, and what settlement
// needs — the visited chunks' products and a fresh accumulator to fold
// them into.
type densityOrder[P any] struct {
	sched []densityChunk
	// before is the chunk index preceding the scan range's first chunk:
	// what visiting sched[0] in temporal order would follow.
	before int
	limit  int
	// schedPos is the next schedule entry; inChunk the frames already
	// consumed inside it (mid-chunk suspension).
	schedPos, inChunk int
	// raw counts raw candidate events seen so far — the cheap pre-GAP
	// upper bound that gates settlement attempts.
	raw int
	// lastAttemptRaw dedupes settlement attempts: the settled count is a
	// pure function of the raw-candidate multiset, so re-settling at the
	// same raw cannot newly satisfy the limit. In-memory only — a resumed
	// execution re-attempting one settlement changes nothing.
	lastAttemptRaw int
	// kept holds the product of every schedule entry visited whole since
	// open or Restore; settlement re-produces the others from the pure
	// kernel.
	kept map[int]P
	// fresh builds a kernel with an empty accumulator for one settlement.
	fresh func() scanKernel[P]
}

// orderByDensity switches a scan just opened with total 0 to the given
// chunk schedule over frames starting at lo (its kernel must address
// frames directly: lo 0, step 1). The schedule is never serialized: it is
// recomputed at open from the pinned snapshot's zone maps, of which it is
// a pure function, so the cursor stays small and can never disagree with
// the index.
func (x *scanExec[P]) orderByDensity(sched []densityChunk, lo, horizon, limit int, fresh func() scanKernel[P]) {
	x.horizon = horizon
	x.den = &densityOrder[P]{sched: sched, before: index.ChunkOf(lo) - 1, limit: limit,
		lastAttemptRaw: -1, kept: map[int]P{}, fresh: fresh}
	for _, ent := range sched {
		x.total += ent.fHi - ent.fLo
	}
}

// layout makes one produce shard per remaining schedule entry up to the
// watermark; consume walks the schedule in step with it.
func (d *densityOrder[P]) layout(pos, stop int) []shard {
	var shards []shard
	in := d.inChunk
	for k := d.schedPos; k < len(d.sched) && pos < stop; k++ {
		lo := d.sched[k].fLo + in
		n := min(d.sched[k].fHi-lo, stop-pos)
		shards = append(shards, shard{index: len(shards), lo: lo, hi: lo + n})
		pos += n
		in = 0
	}
	return shards
}

// visited advances the schedule past one charged shard and, when that
// completes a chunk, decides whether the visited set now settles the
// LIMIT. GAP and LIMIT are temporal-order semantics, so they are never
// applied in visit order: the answer is recomputed over the visited set
// in ascending frame order, from products whose cost is already charged.
func (d *densityOrder[P]) visited(x *scanExec[P], s shard, p P, hits int) bool {
	ent := d.sched[d.schedPos]
	if d.inChunk == 0 {
		// Count schedule entries visited out of temporal order: the entry's
		// chunk does not directly follow the previously visited one. Counted
		// once per chunk, at first entry.
		prev := d.before
		if d.schedPos > 0 {
			prev = d.sched[d.schedPos-1].ci
		}
		if ent.ci != prev+1 {
			x.stats.DensityChunksOutOfOrder++
		}
		if s.hi == ent.fHi {
			d.kept[d.schedPos] = p
		}
	}
	d.inChunk += s.hi - s.lo
	d.raw += hits
	if d.inChunk < ent.fHi-ent.fLo {
		return true
	}
	d.schedPos++
	d.inChunk = 0
	// Attempt settlement only when the raw count could satisfy the limit
	// and has changed since the last attempt.
	if d.raw < d.limit || d.raw == d.lastAttemptRaw {
		return true
	}
	d.lastAttemptRaw = d.raw
	out, err := x.settle()
	if err != nil {
		x.err = err
		return false
	}
	x.finished = settledCount(out) >= d.limit
	return !x.finished
}

// settle recomputes the answer over the completed chunks of the density
// order: their products fold, in ascending chunk order, into a fresh
// accumulator — the same fold a temporal scan over exactly those frames
// performs. Uncharged: scan charges already cover every visited frame.
func (x *scanExec[P]) settle() (*Result, error) {
	d := x.den
	vis := make([]int, d.schedPos)
	for k := range vis {
		vis[k] = k
	}
	sort.Slice(vis, func(i, j int) bool { return d.sched[vis[i]].ci < d.sched[vis[j]].ci })
	k := d.fresh()
	for _, v := range vis {
		ent := d.sched[v]
		p, ok := d.kept[v]
		if !ok {
			p = x.k.produce(ent.fLo, ent.fHi)
			d.kept[v] = p
		}
		_, _, finished, err := k.merge(nil, true, ent.fLo, ent.fHi, 0, p)
		if err != nil {
			return nil, err
		}
		if finished {
			break
		}
	}
	out := &Result{}
	k.finish(out)
	return out, nil
}

// settledCount is the result count a LIMIT compares against.
func settledCount(r *Result) int {
	if len(r.Frames) > 0 {
		return len(r.Frames)
	}
	return len(r.Rows)
}
