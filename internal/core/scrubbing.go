package core

import (
	"encoding/json"
	"fmt"

	"repro/internal/frameql"
	"repro/internal/index"
	"repro/internal/parallel"
	"repro/internal/plan"
	"repro/internal/scrub"
	"repro/internal/vidsim"
)

// scrubDesc describes a scrubbing-family candidate.
func scrubDesc(name, detail string) plan.Description {
	return plan.Description{Name: name, Family: frameql.KindScrubbing.String(), Detail: detail}
}

// enumerateScrubbing produces the scrubbing candidate set (paper §7):
// importance-ordered detector verification ranked by specialized-network
// confidence, a sequential scan, and the gated presence-oracle baseline.
// Verification need is priced from cached held-out match statistics —
// the match rate for sequential order, the top-confidence precision for
// importance order.
func (e *Engine) enumerateScrubbing(info *frameql.Info, par int, u *prepUse) ([]candidate, error) {
	reqs, classes, err := scrubRequirements(info)
	if err != nil {
		return nil, err
	}
	limit := info.Limit
	if limit < 0 {
		limit = int(^uint(0) >> 1) // no LIMIT: find all matches
	}
	lo, hi := e.frameRange(info)
	full := e.DTest.FullFrameCost()
	span := hi - lo

	model, trainCost, modelErr := e.Model(classes)
	if modelErr != nil {
		model = nil
	}
	ss := e.scrubPlanStats(u, reqs, model)

	seqProbes := plan.GeometricProbes(limit, ss.MatchRate, span)
	seqPlan := &costedPlan{
		desc: scrubDesc("scrub-sequential", "detector verification in frame order (§7.1 default)"),
		est:  plan.Cost{DetectorCalls: float64(seqProbes), DetectorSeconds: float64(seqProbes) * full},
		open: func() (plan.Execution[*Result], error) {
			return e.newScrubExec(info, reqs, limit, par, "scrub-sequential", scrubOrderSequential, scrubPrep{}), nil
		},
	}
	seqCand := candidate{Plan: seqPlan, MarginalSeconds: seqPlan.est.DetectorSeconds, Accuracy: scrubAccuracy}

	nsProbes := plan.GeometricProbes(limit, ss.MatchGivenPresent, int(ss.PresentRate*float64(span)))
	noScopePlan := &costedPlan{
		desc: scrubDesc("scrub-noscope-oracle", "verification only where the presence oracle reports every class (§10.1.1)"),
		est:  plan.Cost{DetectorCalls: float64(nsProbes), DetectorSeconds: float64(nsProbes) * full},
		open: func() (plan.Execution[*Result], error) {
			return e.newScrubExec(info, reqs, limit, par, "scrub-noscope-oracle", scrubOrderNoScope, scrubPrep{classes: classes}), nil
		},
	}
	noScopeCand := candidate{
		Plan:            noScopePlan,
		MarginalSeconds: noScopePlan.est.DetectorSeconds,
		Gated:           true,
		Accuracy:        scrubAccuracy,
	}

	impDesc := scrubDesc("scrub-importance", "detector verification in specialized-network confidence order (§7)")
	if modelErr != nil {
		seqPlan.notes = []string{fmt.Sprintf("specialization unavailable (%v); sequential scan", modelErr)}
		seqPlan.desc.Name = "scrub-sequential-fallback"
		seqPlan.open = func() (plan.Execution[*Result], error) {
			return e.newScrubExec(info, reqs, limit, par, "scrub-sequential-fallback", scrubOrderSequential, scrubPrep{}), nil
		}
		return []candidate{
			infeasible(impDesc, fmt.Sprintf("specialization unavailable: %v", modelErr)),
			seqCand,
			noScopeCand,
		}, nil
	}

	seg, infCost, err := e.segment(classes, e.Test)
	if err != nil {
		return nil, err
	}
	ireqs, err := scrubIndexReqs(seg, reqs)
	if err != nil {
		return nil, err
	}
	// The shape's importance order is resident: a stream that has grown
	// since it was ranked scores and sorts the appended frames only.
	ranking, err := prepared(e, u, e.shapeKey("scrub-rank", seg.Model(), scrubReqsKey(reqs)), func() (*scrubRanking, error) {
		return &scrubRanking{}, nil
	})
	if err != nil {
		return nil, err
	}
	order := ranking.at(seg, ireqs)
	chunksSkipped, framesSkipped := seg.RankSkips(ireqs)
	impProbes := plan.GeometricProbes(limit, ss.importanceHitRate(limit), span)
	impPrep := scrubPrep{
		trainCost: trainCost, infCost: infCost, order: order,
		chunksSkipped: chunksSkipped, framesSkipped: framesSkipped,
	}
	impPlan := &costedPlan{
		desc: impDesc,
		est: plan.Cost{
			TrainSeconds:    trainCost,
			SpecNNSeconds:   infCost,
			DetectorCalls:   float64(impProbes),
			DetectorSeconds: float64(impProbes) * full,
		},
		open: func() (plan.Execution[*Result], error) {
			return e.newScrubExec(info, reqs, limit, par, "scrub-importance", scrubOrderImportance, impPrep), nil
		},
	}
	impCand := candidate{
		Plan: impPlan,
		// Whole-day labeling is index investment (the paper's indexed
		// accounting); the marginal cost is the verification work. The
		// importance hit rate is floored at the sequential match rate, so
		// when held-out statistics carry no signal (no sampled matches)
		// the two candidates tie and enumeration order prefers the
		// confidence-ranked search — never a worse order than sequential.
		MarginalSeconds: impPlan.est.DetectorSeconds,
		Accuracy:        scrubAccuracy,
	}
	return []candidate{impCand, seqCand, noScopeCand}, nil
}

// scrubIndexReqs resolves scrubbing requirements to the segment model's
// heads.
func scrubIndexReqs(seg *index.Segment, reqs []scrub.Requirement) ([]index.Req, error) {
	model := seg.Model()
	ireqs := make([]index.Req, len(reqs))
	for i, r := range reqs {
		h := model.HeadIndex(r.Class)
		if h < 0 {
			return nil, &scrub.MissingHeadError{Class: r.Class}
		}
		ireqs[i] = index.Req{Head: h, N: r.N}
	}
	return ireqs, nil
}

// scrubPrep carries the importance plan's enumeration products: the
// per-call index costs to charge, the confidence-ranked probe order, and
// the zone-map skip accounting from building it; the oracle variant
// carries the class list its presence filter reads.
type scrubPrep struct {
	trainCost     float64
	infCost       float64
	order         []int32
	chunksSkipped int
	framesSkipped int
	classes       []vidsim.Class
}

// scrubOrder selects how a scrubbing execution builds its probe order.
type scrubOrder int

const (
	// scrubOrderSequential probes in ascending frame order (§7.1 default).
	scrubOrderSequential scrubOrder = iota
	// scrubOrderImportance probes in specialized-network confidence order
	// (§7), the order carried in scrubPrep.
	scrubOrderImportance
	// scrubOrderNoScope probes frame order restricted to frames where the
	// presence oracle reports every requested class (Figure 6's "NoScope
	// (Oracle)" bar). The oracle is binary: it cannot distinguish one
	// object from five, so the detector must still verify counts.
	scrubOrderNoScope
)

// scrubChunk is the number of rank-order positions one prefetch chunk
// verifies. Fixed (never derived from the worker count) so the set of
// speculatively verified frames — and therefore everything observable —
// is independent of the parallelism level.
const scrubChunk = 64

// scrubExecState is the serializable suspension of a scrubbing search:
// the search frontier (rank position, found frames, GAP bookkeeping) and
// the partial cost meter with its prep charges.
type scrubExecState struct {
	Horizon int               `json:"horizon"`
	Search  scrub.SearchState `json:"search"`
	Stats   Stats             `json:"stats"`
	// PrefetchReady / PrefetchWindow serialize the parallel prefetcher's
	// speculative verdict window at suspension: verdicts for the rank
	// positions [Search.Pos, PrefetchReady) that workers had already
	// computed ahead of the search frontier. A resumed search seeds its
	// prefetcher from the window instead of re-running the detector over
	// those positions; verdicts are pure, so the seed is bit-identical to
	// recomputation and only the redundant wall-clock work disappears.
	PrefetchReady  int    `json:"prefetch_ready,omitempty"`
	PrefetchWindow []bool `json:"prefetch_window,omitempty"`
}

// scrubExec verifies frames in its probe order until LIMIT matches (GAP
// apart) are found. The search itself — which frame is probed next, how
// GAP suppression interacts with accepted frames, when LIMIT stops —
// stays strictly serial; with par > 1, workers precompute the pure
// verification verdicts for upcoming rank positions in fixed scrubChunk
// batches ahead of the search frontier. Verification cost is charged only
// for positions the serial search actually probes, so Result and the cost
// meter are bit-identical at every parallelism level; frames verified
// speculatively past the stopping point cost wall-clock only.
//
// Progress units are rank positions considered. Sequential and oracle
// orders are prefix-stable as a live stream grows (new frames append to
// the order), so those searches continue over the suffix; the importance
// order re-ranks the whole population, so a cursor restored onto a grown
// stream restarts the search deterministically over the new ranking.
type scrubExec struct {
	e        *Engine
	info     *frameql.Info
	reqs     []scrub.Requirement
	limit    int
	par      int
	kind     scrubOrder
	order    []int32
	searcher *scrub.Searcher
	st       scrubExecState
	prefetch *scrubPrefetcher
	// restoredReady / restoredWin hold a Restore'd prefetch window until
	// the next RunTo builds a prefetcher to seed with it.
	restoredReady int
	restoredWin   []bool
}

func (x *scrubExec) meter() *Stats { return &x.st.Stats }

func (e *Engine) newScrubExec(info *frameql.Info, reqs []scrub.Requirement, limit, par int, label string, kind scrubOrder, prep scrubPrep) *scrubExec {
	lo, hi := e.frameRange(info)
	var order []int32
	switch kind {
	case scrubOrderImportance:
		// The resident ranking covers the whole pinned day; a windowed query
		// searches its frames in the same relative order.
		order = prep.order
		if lo > 0 || hi < e.Test.Frames {
			order = scrub.FilterOrder(order, func(f int) bool { return f >= lo && f < hi })
		}
	case scrubOrderNoScope:
		presences := make([][]int32, len(prep.classes))
		for i, c := range prep.classes {
			presences[i] = e.Test.Counts(c)
		}
		order = scrub.FilterOrder(rangeOrder(lo, hi), func(f int) bool {
			for _, p := range presences {
				if p[f] == 0 {
					return false
				}
			}
			return true
		})
	default:
		order = rangeOrder(lo, hi)
	}
	x := &scrubExec{
		e: e, info: info, reqs: reqs, limit: limit, par: par,
		kind: kind, order: order, searcher: scrub.NewSearcher(order, limit, info.Gap),
	}
	x.st.Stats.Plan = label
	if kind == scrubOrderImportance {
		x.st.Stats.TrainSeconds += prep.trainCost
		// Labeling the unseen video is the indexing step; when the
		// inference is cached (pre-indexed, as in the paper's "BlazeIt
		// (indexed)"), the cost is zero.
		x.st.Stats.SpecNNSeconds += prep.infCost
		x.st.Stats.IndexChunksSkipped += prep.chunksSkipped
		x.st.Stats.IndexFramesSkipped += prep.framesSkipped
	}
	return x
}

func (x *scrubExec) Total() int { return len(x.order) }
func (x *scrubExec) Pos() int   { return x.searcher.Pos() }
func (x *scrubExec) Done() bool { return x.searcher.Done() }

func (x *scrubExec) RunTo(units int) error {
	if x.searcher.Done() {
		return nil
	}
	e := x.e
	fullCost := e.DTest.FullFrameCost()
	check := e.scrubChecker(x.reqs)
	var verify func(frame int) bool
	if x.par <= 1 || len(x.order)-x.searcher.Pos() <= scrubChunk {
		verify = check()
	} else {
		if x.prefetch == nil || x.prefetch.pos > x.searcher.Pos() {
			e.exec.fanouts.Add(1)
			x.prefetch = &scrubPrefetcher{
				order: x.order, results: make([]bool, len(x.order)),
				pos: x.searcher.Pos(), ready: x.searcher.Pos(),
				par: x.par, check: check, exec: e.exec,
			}
			if sp := x.prefetch.pos; x.restoredReady > sp {
				// Seed the verdict window serialized at suspension: the
				// prefetcher resumes with [pos, ready) already computed and
				// re-probes none of it.
				n := copy(x.prefetch.results[sp:], x.restoredWin)
				x.prefetch.ready = sp + n
			}
		}
		verify = x.prefetch.verify
	}
	x.restoredReady, x.restoredWin = 0, nil
	x.searcher.RunTo(units, func(f int) bool {
		x.st.Stats.addDetection(fullCost)
		return verify(f)
	})
	return nil
}

// state is the search's suspension in struct form — what Snapshot encodes
// and what a later snapshot's execution of the same plan adopts.
func (x *scrubExec) state() scrubExecState {
	st := x.st
	st.Horizon = x.e.Test.Frames
	st.Search = x.searcher.State()
	st.PrefetchReady, st.PrefetchWindow = 0, nil
	if p := x.prefetch; p != nil {
		if sp := x.searcher.Pos(); p.ready > sp {
			st.PrefetchReady = p.ready
			st.PrefetchWindow = append([]bool(nil), p.results[sp:p.ready]...)
		}
	}
	return st
}

func (x *scrubExec) Snapshot() ([]byte, error) {
	st := x.state()
	return json.Marshal(&st)
}

func (x *scrubExec) Restore(state []byte) error {
	var st scrubExecState
	if err := json.Unmarshal(state, &st); err != nil {
		return err
	}
	x.restore(st)
	return nil
}

// adopt continues prev, the same plan's search over an earlier snapshot.
func (x *scrubExec) adopt(prev plan.Execution[*Result]) { x.restore(prev.(*scrubExec).state()) }

func (x *scrubExec) restore(st scrubExecState) {
	x.restoredReady, x.restoredWin = 0, nil
	if x.kind == scrubOrderImportance && st.Horizon != x.e.Test.Frames {
		// The stream grew: the confidence ranking interleaves old and new
		// frames, so the suspended frontier is meaningless over the new
		// order. Keep the freshly opened search over the re-ranked
		// population — deterministic, and exactly what a fresh query runs.
		return
	}
	x.st = st
	x.st.PrefetchReady, x.st.PrefetchWindow = 0, nil
	x.searcher.Restore(st.Search)
	x.prefetch = nil
	if st.PrefetchReady > x.searcher.Pos() && len(st.PrefetchWindow) > 0 {
		x.restoredReady = st.PrefetchReady
		x.restoredWin = st.PrefetchWindow
	}
}

func (x *scrubExec) Result() (*Result, error) {
	if !x.searcher.Done() {
		return nil, fmt.Errorf("core: scrubbing search suspended at rank position %d of %d", x.searcher.Pos(), len(x.order))
	}
	sr := x.searcher.Result()
	res := &Result{Kind: x.info.Kind.String(), Stats: x.st.Stats}
	res.Stats.Notes = append([]string(nil), x.st.Stats.Notes...)
	if x.kind == scrubOrderImportance && sr.Exhausted {
		res.Stats.note("search exhausted after %d verifications with %d/%d found",
			sr.Verified, len(sr.Frames), x.limit)
	}
	// Found frames are append-only: a capacity-capped view stays valid while
	// the search continues.
	res.Frames = sr.Frames[:len(sr.Frames):len(sr.Frames)]
	return res, nil
}

// scrubChecker returns a factory of per-worker verification functions for
// the requirements: each worker gets its own detection buffers, and the
// verdicts are pure, so any number may run concurrently.
func (e *Engine) scrubChecker(reqs []scrub.Requirement) func() func(frame int) bool {
	return func() func(frame int) bool {
		c := e.DTest.NewCounter()
		return func(f int) bool {
			for _, r := range reqs {
				if c.CountAt(f, r.Class) < r.N {
					return false
				}
			}
			return true
		}
	}
}

// scrubPrefetcher precomputes verification verdicts for rank-order
// positions in scrubChunk batches, keeping up to par chunks in flight
// ahead of the serial search frontier.
type scrubPrefetcher struct {
	order   []int32
	results []bool
	ready   int // positions [0, ready) are computed
	pos     int // serial search frontier
	par     int
	check   func() func(frame int) bool
	exec    *execCounters
}

// verify returns the (pre)computed verdict for frame f, which must be the
// next frame scrub.Search probes. Positions are consumed monotonically.
func (p *scrubPrefetcher) verify(f int) bool {
	for int(p.order[p.pos]) != f {
		p.pos++
	}
	if p.pos >= p.ready {
		p.fill()
	}
	v := p.results[p.pos]
	p.pos++
	return v
}

// fill computes the next batch of chunks: enough to cover the frontier
// plus par-1 speculative chunks, one worker per chunk.
func (p *scrubPrefetcher) fill() {
	target := p.pos + 1
	// Round up to a chunk boundary, then speculate one extra chunk per
	// remaining worker.
	target = ((target + scrubChunk - 1) / scrubChunk) * scrubChunk
	target += (p.par - 1) * scrubChunk
	if target > len(p.order) {
		target = len(p.order)
	}
	lo := p.ready
	nChunks := (target - lo + scrubChunk - 1) / scrubChunk
	p.exec.shards.Add(uint64(nChunks))
	// One verifier (with its own detection buffers) per chunk; verdicts
	// are pure, so chunk-to-worker assignment is irrelevant.
	parallel.For(p.par, nChunks, func(c int) {
		verify := p.check()
		cLo := lo + c*scrubChunk
		cHi := cLo + scrubChunk
		if cHi > target {
			cHi = target
		}
		for i := cLo; i < cHi; i++ {
			p.results[i] = verify(int(p.order[i]))
		}
	})
	p.ready = target
}

// scrubRequirements converts analyzed minimum counts into scrub
// requirements plus the distinct class list.
func scrubRequirements(info *frameql.Info) ([]scrub.Requirement, []vidsim.Class, error) {
	if len(info.MinCounts) == 0 {
		return nil, nil, fmt.Errorf("core: scrubbing query has no count predicates")
	}
	var reqs []scrub.Requirement
	var classes []vidsim.Class
	seen := make(map[vidsim.Class]bool)
	for _, mc := range info.MinCounts {
		c := vidsim.Class(mc.Class)
		reqs = append(reqs, scrub.Requirement{Class: c, N: mc.N})
		if !seen[c] {
			seen[c] = true
			classes = append(classes, c)
		}
	}
	return reqs, classes, nil
}

func rangeOrder(lo, hi int) []int32 {
	order := make([]int32, 0, hi-lo)
	for f := lo; f < hi; f++ {
		order = append(order, int32(f))
	}
	return order
}
