package core

import (
	"encoding/json"
	"fmt"

	"repro/internal/detect"
	"repro/internal/frameql"
	"repro/internal/index"
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

	// search opens the family's one kernel over a probe order, built at open
	// (enumeration prices every candidate and runs one); prep is the
	// importance plan's, nil for the orders that carry no preparation.
	search := func(label string, order func() []int32, prep *scrubPrep) func() (execution, error) {
		return func() (execution, error) {
			return e.newScrubExec(info, reqs, limit, label, order(), prep), nil
		}
	}
	frameOrder := func() []int32 { return rangeOrder(lo, hi) }

	seqProbes := plan.GeometricProbes(limit, ss.MatchRate, span)
	seqPlan := &costedPlan{
		desc: scrubDesc("scrub-sequential", "detector verification in frame order (§7.1 default)"),
		est:  plan.Cost{DetectorCalls: float64(seqProbes), DetectorSeconds: float64(seqProbes) * full},
		open: search("scrub-sequential", frameOrder, nil),
	}
	seqCand := candidate{Plan: seqPlan, MarginalSeconds: seqPlan.est.DetectorSeconds, Accuracy: scrubAccuracy}

	nsProbes := plan.GeometricProbes(limit, ss.MatchGivenPresent, int(ss.PresentRate*float64(span)))
	noScopePlan := &costedPlan{
		desc: scrubDesc("scrub-noscope-oracle", "verification only where the presence oracle reports every class (§10.1.1)"),
		est:  plan.Cost{DetectorCalls: float64(nsProbes), DetectorSeconds: float64(nsProbes) * full},
		open: search("scrub-noscope-oracle", func() []int32 { return e.presenceOrder(classes, lo, hi) }, nil),
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
		seqPlan.open = search("scrub-sequential-fallback", frameOrder, nil)
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
	ranked := ranking.at(seg, ireqs)
	chunksSkipped, framesSkipped := seg.RankSkips(ireqs)
	impProbes := plan.GeometricProbes(limit, ss.importanceHitRate(limit), span)
	impPrep := &scrubPrep{trainCost: trainCost, infCost: infCost, chunksSkipped: chunksSkipped, framesSkipped: framesSkipped}
	impPlan := &costedPlan{
		desc: impDesc,
		est: plan.Cost{
			TrainSeconds:    trainCost,
			SpecNNSeconds:   infCost,
			DetectorCalls:   float64(impProbes),
			DetectorSeconds: float64(impProbes) * full,
		},
		open: search("scrub-importance", func() []int32 {
			// The resident ranking covers the whole pinned day; a windowed
			// query searches its frames in the same relative order.
			if lo == 0 && hi == e.Test.Frames {
				return ranked
			}
			return scrub.FilterOrder(ranked, func(f int) bool { return f >= lo && f < hi })
		}, impPrep),
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

// scrubPrep carries what the importance plan's enumeration charges an
// execution: the per-call index costs and the zone-map skip accounting
// from building the ranking.
type scrubPrep struct {
	trainCost     float64
	infCost       float64
	chunksSkipped int
	framesSkipped int
}

// presenceOrder is frame order restricted to frames where the presence
// oracle reports every requested class (Figure 6's "NoScope (Oracle)"
// bar). The oracle is binary: it cannot distinguish one object from five,
// so the detector must still verify counts.
func (e *Engine) presenceOrder(classes []vidsim.Class, lo, hi int) []int32 {
	presences := make([][]int32, len(classes))
	for i, c := range classes {
		presences[i] = e.Test.Counts(c)
	}
	return scrub.FilterOrder(rangeOrder(lo, hi), func(f int) bool {
		for _, p := range presences {
			if p[f] == 0 {
				return false
			}
		}
		return true
	})
}

// scrubState is the serializable suspension of a scrubbing search:
// the search frontier (rank position, found frames, GAP bookkeeping) and
// the partial cost meter with its prep charges. Cursors written before
// scrubbing ran on the scan operator may also carry prefetch_ready and
// prefetch_window, that executor's speculative verdicts past the frontier;
// they are ignored — the search verifies those positions when it probes
// them.
type scrubState struct {
	Horizon int               `json:"horizon"`
	Search  scrub.SearchState `json:"search"`
	Stats   Stats             `json:"stats"`
}

// scrubKernel is the scrubbing family's scan kernel: visited index i is
// rank position i, the frame order[i]. Which positions a search verifies
// depends on the frames it has accepted — GAP passes over the neighbours of
// every hit and LIMIT ends it — so there is nothing to produce ahead of it:
// produce is empty and merge is scrub.Searcher's serial probe loop,
// verifying and charging what it probes. The Result and the meter are a
// serial search's at every parallelism level because that is what runs.
// The three probe orders are this kernel over a different order.
type scrubKernel struct {
	e     *Engine
	reqs  []scrub.Requirement
	order []int32
	limit int
	// importance marks the confidence order, the one that reports an
	// exhausted search.
	importance bool
	fullCost   float64
	s          *scrub.Searcher
	c          *detect.Counter
}

// newScrubExec opens the search of one probe order as a scan over its rank
// positions — with one worker, since the kernel produces nothing to fan
// out. A non-nil prep marks the confidence order: it replays the ranking's
// charges and, interleaving old frames with new as a live stream grows, is
// a schedule of one horizon; frame order and the oracle order are
// prefix-stable (new frames append), so those searches continue over the
// suffix.
func (e *Engine) newScrubExec(info *frameql.Info, reqs []scrub.Requirement, limit int, label string, order []int32, prep *scrubPrep) *scanExec[struct{}] {
	x := newScan(e.exec, info.Kind.String(), label, 1, len(order), true, &scrubKernel{
		e: e, reqs: reqs, order: order, limit: limit, importance: prep != nil,
		fullCost: e.DTest.FullFrameCost(), s: scrub.NewSearcher(order, limit, info.Gap), c: e.DTest.NewCounter(),
	})
	x.finished = limit <= 0
	if prep != nil {
		x.horizon = e.Test.Frames
		x.stats.TrainSeconds += prep.trainCost
		// Labeling the unseen video is the indexing step; when the
		// inference is cached (pre-indexed, as in the paper's "BlazeIt
		// (indexed)"), the cost is zero.
		x.stats.SpecNNSeconds += prep.infCost
		x.stats.IndexChunksSkipped += prep.chunksSkipped
		x.stats.IndexFramesSkipped += prep.framesSkipped
	}
	return x
}

func (k *scrubKernel) produce(lo, hi int) struct{} { return struct{}{} }

// verify is the detector's verdict on one frame, charged to m.
func (k *scrubKernel) verify(m *Stats, f int) bool {
	m.addDetection(k.fullCost)
	for _, r := range k.reqs {
		if k.c.CountAt(f, r.Class) < r.N {
			return false
		}
	}
	return true
}

// merge runs the search over positions [blo, bhi). Charging and folding are
// one walk: a rank order has no charge-only pass, so fold is not consulted
// and m is never nil (only a density order's settlement merges unmetered).
func (k *scrubKernel) merge(m *Stats, _ bool, blo, bhi, _ int, _ struct{}) (int, int, bool, error) {
	found := len(k.s.State().Frames)
	k.s.RunTo(bhi, func(f int) bool { return k.verify(m, f) })
	st := k.s.State()
	return st.Pos - blo, len(st.Frames) - found, len(st.Frames) >= k.limit, nil
}

func (k *scrubKernel) save(p *scanProgress) ([]byte, error) {
	return json.Marshal(&scrubState{Horizon: k.e.Test.Frames, Search: k.s.State(), Stats: p.stats})
}

func (k *scrubKernel) load(state []byte, p *scanProgress) error {
	var st scrubState
	if err := json.Unmarshal(state, &st); err != nil {
		return err
	}
	k.s.Restore(st.Search)
	*p = scanProgress{pos: st.Search.Pos, finished: len(st.Search.Frames) >= k.limit, stats: st.Stats}
	return nil
}

func (k *scrubKernel) adopt(prev scanKernel[struct{}]) {
	k.s.Restore(prev.(*scrubKernel).s.State())
}

// finish returns a view of the found frames: they are append-only, so a
// capacity-capped slice stays valid while the search continues.
func (k *scrubKernel) finish(res *Result) {
	sr := k.s.Result()
	if k.importance && sr.Exhausted {
		res.Stats.note("search exhausted after %d verifications with %d/%d found",
			sr.Verified, len(sr.Frames), k.limit)
	}
	res.Frames = sr.Frames[:len(sr.Frames):len(sr.Frames)]
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
