package core

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"repro/internal/aqp"
	"repro/internal/detect"
	"repro/internal/frameql"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/specnn"
	"repro/internal/track"
	"repro/internal/vidsim"
)

// aggDesc describes an aggregate-family candidate.
func aggDesc(name, detail string) plan.Description {
	return plan.Description{Name: name, Family: frameql.KindAggregate.String(), Detail: detail}
}

// enumerateAggregate produces the aggregate candidate set of Algorithm 1:
// specialized-network query rewriting, the method of control variates,
// plain adaptive sampling, the naive exhaustive scan, and the gated
// NoScope-oracle baseline. Feasibility mirrors the algorithm's
// preconditions — rewriting requires the held-out error bound to pass at
// the requested confidence, every sampled estimator requires an ERROR
// WITHIN tolerance — and the cost model prices sampling need from cached
// held-out count statistics.
func (e *Engine) enumerateAggregate(info *frameql.Info, par int, u *prepUse) ([]candidate, error) {
	if len(info.Classes) != 1 {
		return nil, fmt.Errorf("core: aggregate queries need exactly one class predicate, got %v", info.Classes)
	}
	class := vidsim.Class(info.Classes[0])
	full := e.DTest.FullFrameCost()
	pop := e.Test.Frames

	rewriteDesc := aggDesc("specialized-rewrite", "answer directly from the specialized network (no detector calls)")
	cvDesc := aggDesc("control-variates", "adaptive sampling with the network's expected count as control variate (§6.3)")
	aqpDesc := aggDesc("naive-aqp", "plain adaptive sampling to the error target (§6.1)")

	naivePlan := &costedPlan{
		desc: aggDesc("naive-exhaustive", "reference detector on every frame (exact)"),
		est:  plan.Cost{DetectorCalls: float64(pop), DetectorSeconds: float64(pop) * full},
		open: func() (execution, error) {
			return e.newAggScanExec(info, class, par, "naive-exhaustive", false), nil
		},
	}
	naiveCand := candidate{Plan: naivePlan, MarginalSeconds: naivePlan.est.DetectorSeconds, Accuracy: exactAccuracy}

	base := e.baseStats(u, class)
	noScopePlan := &costedPlan{
		desc: aggDesc("noscope-oracle", "detector on exactly the frames the presence oracle marks occupied (§10.1.1)"),
		est: plan.Cost{
			DetectorCalls:   base.Presence * float64(pop),
			DetectorSeconds: base.Presence * float64(pop) * full,
		},
		open: func() (execution, error) {
			return e.newAggScanExec(info, class, par, "noscope-oracle", true), nil
		},
	}
	noScopeCand := candidate{
		Plan:            noScopePlan,
		MarginalSeconds: noScopePlan.est.DetectorSeconds,
		Gated:           true,
		Accuracy:        sampledAccuracy,
	}

	if info.ErrorWithin == nil {
		// Exact queries admit only the exhaustive scan. The pre-planner
		// optimizer never trained a network for them, and neither does
		// enumeration.
		reason := "no ERROR WITHIN clause: sampled estimators cannot produce an exact answer"
		return []candidate{
			naiveCand,
			infeasible(rewriteDesc, reason),
			infeasible(cvDesc, reason),
			infeasible(aqpDesc, reason),
			noScopeCand,
		}, nil
	}

	eps := *info.ErrorWithin
	rangeK := e.countRange(u, class)
	aqpN := plan.AdaptiveSamples(base.StdCount, eps, info.Confidence, rangeK, pop)
	aqpPlan := &costedPlan{
		desc: aqpDesc,
		est:  plan.Cost{DetectorCalls: float64(aqpN), DetectorSeconds: float64(aqpN) * full},
		open: func() (execution, error) {
			return e.newSampleExec(info, class, par, nil), nil
		},
	}
	aqpCand := candidate{Plan: aqpPlan, MarginalSeconds: aqpPlan.est.DetectorSeconds, Accuracy: sampledAccuracy}

	model, trainCost, err := e.Model([]vidsim.Class{class})
	if err != nil {
		// Not enough examples to specialize (Algorithm 1's precondition).
		reason := fmt.Sprintf("specialization unavailable: %v", err)
		aqpPlan.notes = []string{fmt.Sprintf("specialization unavailable (%v); falling back to AQP", err)}
		return []candidate{
			infeasible(rewriteDesc, reason),
			infeasible(cvDesc, reason),
			aqpCand,
			naiveCand,
			noScopeCand,
		}, nil
	}

	held, err := e.heldOutErrors(u, class, model)
	if err != nil {
		return nil, err
	}
	pWithin := e.biasWithin(u, class, model, held.Errs, eps)
	inf, infCost, err := e.Inference([]vidsim.Class{class}, e.Test)
	if err != nil {
		return nil, err
	}
	head := model.HeadIndex(class)
	prep := aggPrep{
		model: model, trainCost: trainCost,
		heldCost: held.Cost, pWithin: pWithin,
		inf: inf, infCost: infCost, head: head,
	}
	prepCharges := plan.Cost{TrainSeconds: trainCost + held.Cost, SpecNNSeconds: infCost}

	rewritePlan := &costedPlan{
		desc: rewriteDesc,
		est:  prepCharges,
		open: func() (execution, error) {
			return e.newRewriteExec(info, prep), nil
		},
	}
	rewriteCand := candidate{
		Plan: rewritePlan,
		// Whole-day inference is index investment (the paper's indexed
		// accounting): once labeled, rewriting answers for free.
		MarginalSeconds: 0,
		Accuracy:        exactAccuracy,
	}
	if pWithin < info.Confidence {
		rewriteCand.Infeasible = fmt.Sprintf(
			"P(held-out error < %.3g) = %.3f, below required confidence %.2f", eps, pWithin, info.Confidence)
	}

	resid := e.residStats(u, class, model)
	cvN := plan.AdaptiveSamples(resid.ResidStd, eps, info.Confidence, rangeK, pop)
	cvEst := prepCharges
	cvEst.DetectorCalls = float64(cvN)
	cvEst.DetectorSeconds = float64(cvN) * full
	cvPlan := &costedPlan{
		desc: cvDesc,
		est:  cvEst,
		open: func() (execution, error) {
			return e.newSampleExec(info, class, par, &prep), nil
		},
	}
	cvCand := candidate{
		Plan:            cvPlan,
		MarginalSeconds: cvEst.DetectorSeconds,
		Accuracy:        sampledAccuracy,
	}

	return []candidate{rewriteCand, cvCand, aqpCand, naiveCand, noScopeCand}, nil
}

// aggPrep carries the shared preparation an aggregate enumeration
// performed — the trained model, the held-out error verdict, and the
// test-day inference — plus the per-call costs the executed plan must
// charge, in the same order the pre-planner optimizer charged them.
type aggPrep struct {
	model     *specnn.CountModel
	trainCost float64
	heldCost  float64
	pWithin   float64
	inf       *specnn.Inference
	infCost   float64
	head      int
}

// charge replays the preparation charges and the held-out error note
// exactly as the pre-planner code interleaved them.
func (p *aggPrep) charge(info *frameql.Info, st *Stats) {
	st.TrainSeconds += p.trainCost
	st.TrainSeconds += p.heldCost
	st.note("P(held-out error < %.3g) = %.3f (need >= %.2f)", *info.ErrorWithin, p.pWithin, info.Confidence)
	st.SpecNNSeconds += p.infCost
}

// rewriteState is the specialized-rewrite cursor: whether the one unit has
// run and, once it has, at which horizon and with what answer.
type rewriteState struct {
	Done    bool         `json:"done"`
	Horizon int          `json:"horizon"`
	Result  *resultState `json:"result,omitempty"`
}

// rewriteKernel answers directly from the specialized network's labeling of
// the test day (§6.2), as a scan of one unit: a pure read over prepared
// state with no progress structure, so there is nothing to produce and the
// merge of the unit is the whole plan.
type rewriteKernel struct {
	e     *Engine
	info  *frameql.Info
	prep  aggPrep
	value float64
}

// newRewriteExec opens the rewrite. Its answer covers the whole population,
// so it is a schedule of one horizon: restored or advanced onto a grown
// stream it runs again (scanExec.Restore's rule).
func (e *Engine) newRewriteExec(info *frameql.Info, prep aggPrep) *scanExec[struct{}] {
	x := newScan(e.exec, info.Kind.String(), "specialized-rewrite", 1, 1, false,
		&rewriteKernel{e: e, info: info, prep: prep})
	x.horizon = e.Test.Frames
	prep.charge(info, &x.stats)
	return x
}

func (k *rewriteKernel) produce(lo, hi int) struct{} { return struct{}{} }

func (k *rewriteKernel) merge(*Stats, bool, int, int, int, struct{}) (int, int, bool, error) {
	k.value = k.e.scaleAggregate(k.info, k.prep.inf.MeanExpectedCount(k.prep.head))
	return 1, 0, false, nil
}

func (k *rewriteKernel) save(p *scanProgress) ([]byte, error) {
	st := rewriteState{Done: p.pos > 0}
	if st.Done {
		st.Horizon = k.e.Test.Frames
		st.Result = &resultState{Kind: k.info.Kind.String(), Value: k.value, Stats: p.stats}
	}
	return json.Marshal(&st)
}

func (k *rewriteKernel) load(state []byte, p *scanProgress) error {
	var st rewriteState
	if err := json.Unmarshal(state, &st); err != nil {
		return err
	}
	if st.Done && st.Result != nil {
		*p, k.value = scanProgress{pos: 1, stats: st.Result.Stats}, st.Result.Value
	}
	return nil
}

// adopt has nothing to take over: a scan of one horizon restarts.
func (k *rewriteKernel) adopt(scanKernel[struct{}]) {}

func (k *rewriteKernel) finish(res *Result) { res.Value = k.value }

// aggScanState is the serializable suspension of an exact aggregate scan
// (naive-exhaustive, noscope-oracle): frame position, the integer count
// sum (exact, so prefix+suffix accumulation equals one pass), and the
// partial cost meter.
type aggScanState struct {
	Pos   int   `json:"pos"`
	Sum   int64 `json:"sum"`
	Stats Stats `json:"stats"`
}

// aggScanKernel runs the detector over every frame (or, for the gated
// oracle variant, every oracle-occupied frame) and averages the counts.
// On a grown live stream the scan continues over the new suffix and the
// mean re-derives from the extended sum — bit-identical to a cold scan of
// the extended stream, because the sum is integer arithmetic.
type aggScanKernel struct {
	e        *Engine
	info     *frameql.Info
	class    vidsim.Class
	fullCost float64
	// presence gates on the free presence oracle (Figure 4's "NoScope
	// (Oracle)" bar): the detector runs only on occupied frames. Counting
	// still requires detection on every occupied frame, so streams with
	// high occupancy benefit little (§10.1.1). Nil for the naive scan.
	presence []int32
	sum      int64
}

func (e *Engine) newAggScanExec(info *frameql.Info, class vidsim.Class, par int, label string, oracle bool) *scanExec[[]int32] {
	k := &aggScanKernel{e: e, info: info, class: class, fullCost: e.DTest.FullFrameCost()}
	if oracle {
		k.presence = e.Test.Counts(class)
	}
	return newScan(e.exec, info.Kind.String(), label, par, e.Test.Frames, false, k)
}

func (k *aggScanKernel) produce(lo, hi int) []int32 {
	if k.presence == nil {
		return k.e.detectorCounts(k.class, lo, hi)
	}
	c := k.e.DTest.NewCounter()
	counts := make([]int32, hi-lo)
	for f := lo; f < hi; f++ {
		if k.presence[f] != 0 {
			counts[f-lo] = int32(c.CountAt(f, k.class))
		}
	}
	return counts
}

// merge charges and sums per frame in order (per-frame integer counts are
// exact and order-free, but the float meter is not).
func (k *aggScanKernel) merge(m *Stats, fold bool, blo, bhi, off0 int, counts []int32) (int, int, bool, error) {
	for i := blo; i < bhi; i++ {
		if k.presence != nil && k.presence[i] == 0 {
			continue
		}
		if m != nil {
			m.addDetection(k.fullCost)
		}
		if fold {
			k.sum += int64(counts[off0+(i-blo)])
		}
	}
	return bhi - blo, 0, false, nil
}

func (k *aggScanKernel) save(p *scanProgress) ([]byte, error) {
	return json.Marshal(&aggScanState{Pos: p.pos, Sum: k.sum, Stats: p.stats})
}

func (k *aggScanKernel) load(state []byte, p *scanProgress) error {
	var st aggScanState
	if err := json.Unmarshal(state, &st); err != nil {
		return err
	}
	*p, k.sum = scanProgress{pos: st.Pos, stats: st.Stats}, st.Sum
	return nil
}

func (k *aggScanKernel) adopt(prev scanKernel[[]int32]) { k.sum = prev.(*aggScanKernel).sum }

func (k *aggScanKernel) finish(res *Result) {
	res.Value = k.e.scaleAggregate(k.info, float64(k.sum)/float64(k.e.Test.Frames))
}

// sampleState is the serializable suspension of a sampled aggregate plan
// (naive-aqp, control-variates): the cost meter captured when the execution
// first opened (preparation charges included, so a resumed execution
// replays exactly what the original observed; the samples themselves are
// charged at settlement) plus the estimator's accumulators. The draws need
// no state — the i-th is a pure function of the seed and i, so a restored
// scan replays the draws it has measured. Cursors of the executor this
// kernel replaced also carry run.population and run.sampler, which are
// ignored: the horizon pins the population.
type sampleState struct {
	Horizon int       `json:"horizon"`
	Base    Stats     `json:"base"`
	Run     aqp.State `json:"run"`
}

// sampleKernel runs the adaptive sampling plans (§6.1, and §6.3 with a
// control variate) as a scan over the sampler's draw order: visited index
// i is the i-th draw, so progress units are measured samples. produce
// measures draws with the detector; merge folds them in draw order into the
// estimator and finishes the scan on the draw whose round boundary fires
// the stopping rule. The scan's rounds schedule hands the operator one
// round at a time, so no draw is measured that a serial run would not
// measure. The draw order is a function of the population, so the scan is
// a schedule of one horizon: restored or advanced onto a grown live stream
// it re-runs over the extended population — deterministically, with
// repeated measurements served from the committed label store.
type sampleKernel struct {
	e       *Engine
	info    *frameql.Info
	measure func(frame int) float64
	smp     *aqp.Sampler
	// frames holds the draws made so far, in draw order; round extends it
	// before the workers that read it start.
	frames []int32
	est    *aqp.Estimator
}

// newSampleExec opens naive-aqp, or control-variates when prep is non-nil.
// The range K is the training day's maximum count plus one — the
// information the labeled set provides about the estimated quantity's
// range.
func (e *Engine) newSampleExec(info *frameql.Info, class vidsim.Class, par int, prep *aggPrep) *scanExec[[]float64] {
	opts := aqp.Options{ErrorTarget: *info.ErrorWithin, Confidence: info.Confidence, Population: e.Test.Frames,
		Range: e.countRange(&prepUse{family: info.Kind.String()}, class), Seed: e.opts.Seed + 11}
	k := &sampleKernel{e: e, info: info, measure: e.concurrentCountMeasure(class),
		smp: aqp.NewSampler(opts.Population, opts.Seed), est: aqp.NewEstimator(opts)}
	x := newScan(e.exec, info.Kind.String(), "naive-aqp", par, k.est.Budget(), false, k)
	if prep != nil {
		x.stats.Plan = "control-variates"
		prep.charge(info, &x.stats)
		tau, varT := prep.inf.ExpectedMoments(prep.head)
		k.est = aqp.NewControlVariatesEstimator(opts, func(f int) float64 { return prep.inf.ExpectedCount(prep.head, f) }, tau, varT)
	}
	x.horizon, x.rounds = e.Test.Frames, func(pos, stop int) []shard { return k.round(pos, stop, par) }
	return x
}

// round draws the rest of pos's round, up to stop, and lays it out as at
// most par shards.
func (k *sampleKernel) round(pos, stop, par int) []shard {
	size := k.est.RoundSize()
	hi := min(stop, (pos/size+1)*size)
	for len(k.frames) < hi {
		k.frames = append(k.frames, int32(k.smp.Next()))
	}
	n := max(1, min(par, hi-pos))
	shards := make([]shard, n)
	for i := range shards {
		shards[i] = shard{index: i, lo: pos + i*(hi-pos)/n, hi: pos + (i+1)*(hi-pos)/n}
	}
	return shards
}

func (k *sampleKernel) produce(lo, hi int) []float64 {
	vals := make([]float64, hi-lo)
	for i := range vals {
		vals[i] = k.measure(int(k.frames[lo+i]))
	}
	return vals
}

// merge folds draws in order; it charges nothing — settlement charges every
// sample at once, as the serial procedure's meter did.
func (k *sampleKernel) merge(_ *Stats, _ bool, blo, bhi, off0 int, vals []float64) (int, int, bool, error) {
	for i := blo; i < bhi; i++ {
		if k.est.Add(int(k.frames[i]), vals[off0+i-blo]) {
			return i - blo + 1, 0, true, nil
		}
	}
	return bhi - blo, 0, false, nil
}

func (k *sampleKernel) save(p *scanProgress) ([]byte, error) {
	return json.Marshal(&sampleState{Horizon: k.e.Test.Frames, Base: p.stats, Run: k.est.State()})
}

func (k *sampleKernel) load(state []byte, p *scanProgress) error {
	var st sampleState
	if err := json.Unmarshal(state, &st); err != nil {
		return err
	}
	k.est.Restore(st.Run)
	*p = scanProgress{pos: k.est.Samples(), finished: st.Run.Done, stats: st.Base}
	return nil
}

// adopt has nothing to take over: a schedule of one horizon restarts.
func (k *sampleKernel) adopt(scanKernel[[]float64]) {}

// finish charges every sample at once, with the repeated accumulation a
// serial sampling loop performs, so the meter is bit-identical at every
// parallelism level and suspension point.
func (k *sampleKernel) finish(res *Result) {
	r := k.est.Result()
	fullCost := k.e.DTest.FullFrameCost()
	for range r.Samples {
		res.Stats.addDetection(fullCost)
	}
	if res.Stats.Plan == "control-variates" {
		res.Stats.note("control variates: %d samples, corr=%.3f, c=%.3f", r.Samples, r.Correlation, r.C)
	}
	res.Value = k.e.scaleAggregate(k.info, r.Estimate)
	res.StdErr = r.StdErr
}

// enumerateDistinct produces the single COUNT(DISTINCT trackid)
// candidate: identity requires entity resolution across consecutive
// frames, so the only sound plan detects on every frame and tracks.
func (e *Engine) enumerateDistinct(info *frameql.Info, par int) ([]candidate, error) {
	if len(info.Classes) != 1 {
		return nil, fmt.Errorf("core: COUNT(DISTINCT trackid) needs exactly one class predicate")
	}
	lo, hi := e.frameRange(info)
	full := e.DTest.FullFrameCost()
	p := &costedPlan{
		desc: plan.Description{
			Name:   "exhaustive-tracking",
			Family: frameql.KindDistinct.String(),
			Detail: "detector on every frame with entity resolution (identity needs tracking, §4)",
		},
		est:  plan.Cost{DetectorCalls: float64(hi - lo), DetectorSeconds: float64(hi-lo) * full},
		open: func() (execution, error) { return e.newDistinctExec(info, par) },
	}
	cands := []candidate{{Plan: p, MarginalSeconds: p.est.DetectorSeconds, Accuracy: exactAccuracy}}
	if info.Limit >= 0 {
		cands = append(cands, infeasible(densityDesc(frameql.KindDistinct.String()),
			"COUNT(DISTINCT trackid) needs identity over every frame; a density-ordered visit cannot early-stop"))
	}
	return cands, nil
}

// detectorCounts returns the reference detector's count of the class at
// each test-day frame of [lo, hi) — Counter.CountRange's values — reading
// sealed index chunks from the label store's dense count column. A chunk
// the range covers whole is wholly visible to this snapshot, hence sealed:
// its counts are computed once and stored for every later exact scan; the
// unsealed tail and chunks covered in part are computed. Only real CPU
// work is elided — callers still charge the meter per frame.
func (e *Engine) detectorCounts(class vidsim.Class, lo, hi int) []int32 {
	labels := e.idx.Labels(e.Test.Day)
	out := make([]int32, 0, hi-lo)
	var c *detect.Counter
	for f := lo; f < hi; {
		cLo := index.ChunkOf(f) * index.ChunkFrames
		end := min(hi, cLo+index.ChunkFrames)
		if col := labels.DenseCounts(class, index.ChunkOf(f)); col != nil {
			out = append(out, col[f-cLo:end-cLo]...)
			f = end
			continue
		}
		if c == nil {
			c = e.DTest.NewCounter()
		}
		n := len(out)
		for ; f < end; f++ {
			out = append(out, int32(c.CountAt(f, class)))
		}
		if len(out)-n == index.ChunkFrames {
			labels.FillDense(class, index.ChunkOf(cLo), append([]int32(nil), out[n:]...))
		}
	}
	return out
}

// concurrentCountMeasure returns a goroutine-safe measure function for the
// detector's per-frame count of a class, with per-worker Counter buffers
// pooled. Cost is not charged here — sampled plans charge per sample in
// deterministic order at settlement, regardless of how the measurement was
// served.
//
// Measurements flow through the index tier's ground-truth label store:
// frames already labeled (by an earlier query this session, or persisted
// by a previous one under -index-dir) are served from the store — the
// detector is deterministic, so the stored count is the exact value a
// fresh simulation would produce — and fresh measurements are recorded
// for the store. Lookups see only labels committed before this query
// began, so the hit pattern (and everything else) is independent of how
// parallel samplers interleave.
func (e *Engine) concurrentCountMeasure(class vidsim.Class) func(frame int) float64 {
	labels := e.idx.Labels(e.Test.Day)
	pool := sync.Pool{New: func() interface{} { return e.DTest.NewCounter() }}
	return func(f int) float64 {
		if n, ok := labels.Lookup(class, f); ok {
			return float64(n)
		}
		c := pool.Get().(*detect.Counter)
		n := c.CountAt(f, class)
		pool.Put(c)
		labels.Observe(class, f, int32(n))
		return float64(n)
	}
}

// countRange is the range K sampling bounds its estimate with: the training
// day's maximum count of the class plus one — a scan of the labeled day,
// so it is a prepared product like the held-out statistics.
func (e *Engine) countRange(u *prepUse, class vidsim.Class) float64 {
	k, _ := prepared(e, u, e.shapeKey("train-range", nil, class), func() (float64, error) {
		return float64(e.Train.MaxCount(class) + 1), nil
	})
	return k
}

// scaleAggregate converts a frame-averaged count into the query's output
// unit: FCOUNT stays frame-averaged, COUNT(*) scales to the total.
func (e *Engine) scaleAggregate(info *frameql.Info, mean float64) float64 {
	if info.AggFunc == "COUNT" {
		return mean * float64(e.Test.Frames)
	}
	return mean
}

// distinctState is the serializable suspension of a COUNT(DISTINCT
// trackid) scan: frame position, tracker state, the distinct-ID set
// (sorted for deterministic serialization), and the partial cost meter.
type distinctState struct {
	Pos      int         `json:"pos"`
	Tracker  track.State `json:"tracker"`
	Distinct []int       `json:"distinct,omitempty"`
	Stats    Stats       `json:"stats"`
}

// distinctKernel answers COUNT(DISTINCT trackid) queries. Identity
// requires entity resolution across consecutive frames, so the plan is
// exhaustive: detect on every frame and track (paper §4 distinguishes this
// query from FCOUNT precisely because it needs trackid). A grown live
// stream continues the same tracker over the new suffix, so identities
// never reset at ingest boundaries.
type distinctKernel struct {
	e        *Engine
	class    vidsim.Class
	lo       int
	fullCost float64
	tracker  *track.Tracker
	distinct map[int]bool
}

func (e *Engine) newDistinctExec(info *frameql.Info, par int) (execution, error) {
	if len(info.Classes) != 1 {
		return nil, fmt.Errorf("core: COUNT(DISTINCT trackid) needs exactly one class predicate")
	}
	lo, hi := e.frameRange(info)
	return newScan(e.exec, info.Kind.String(), "exhaustive-tracking", par, hi-lo, false, &distinctKernel{
		e: e, class: vidsim.Class(info.Classes[0]), lo: lo, fullCost: e.DTest.FullFrameCost(),
		tracker: track.New(0, 1), distinct: make(map[int]bool),
	}), nil
}

func (k *distinctKernel) produce(lo, hi int) *detArena { return k.e.detectArena(k.lo+lo, k.lo+hi) }

func (k *distinctKernel) merge(m *Stats, fold bool, blo, bhi, off0 int, a *detArena) (int, int, bool, error) {
	for i := blo; i < bhi; i++ {
		if m != nil {
			m.addDetection(k.fullCost)
		}
		if !fold {
			continue
		}
		dets := a.frame(off0 + (i - blo))
		ids := k.tracker.Advance(k.lo+i, dets)
		for j := range dets {
			if dets[j].Class == k.class {
				k.distinct[ids[j]] = true
			}
		}
	}
	return bhi - blo, 0, false, nil
}

func (k *distinctKernel) save(p *scanProgress) ([]byte, error) {
	st := distinctState{Pos: p.pos, Tracker: k.tracker.Snapshot(), Stats: p.stats,
		Distinct: make([]int, 0, len(k.distinct))}
	for id := range k.distinct {
		st.Distinct = append(st.Distinct, id)
	}
	sort.Ints(st.Distinct)
	return json.Marshal(&st)
}

func (k *distinctKernel) load(state []byte, p *scanProgress) error {
	var st distinctState
	if err := json.Unmarshal(state, &st); err != nil {
		return err
	}
	*p, k.tracker = scanProgress{pos: st.Pos, stats: st.Stats}, track.FromState(st.Tracker)
	k.distinct = make(map[int]bool, len(st.Distinct))
	for _, id := range st.Distinct {
		k.distinct[id] = true
	}
	return nil
}

func (k *distinctKernel) adopt(prev scanKernel[*detArena]) {
	o := prev.(*distinctKernel)
	k.tracker, k.distinct = o.tracker, o.distinct
}

func (k *distinctKernel) finish(res *Result) { res.Value = float64(len(k.distinct)) }
