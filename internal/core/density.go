package core

import (
	"fmt"
	"sort"

	"repro/internal/frameql"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/vidsim"
)

// This file is the density-ordered LIMIT plan (NeedleTail-style): for
// LIMIT-bearing families, a schedule that visits index chunks in
// descending estimated presence density instead of temporal order, stopping
// as soon as K results settle — and the candidates that offer it. Nothing
// here evaluates a frame: the schedule is one of the scan operator's two
// visit orders (scan.go) over the family's ordinary kernel. It is a pure
// function of the pinned snapshot's zone maps — never of parallelism, wall
// clock, or cache state — so the plan keeps the engine's determinism
// contract: bit-identical results at every worker count and across
// mid-chunk suspend/resume.
//
// GAP and LIMIT are temporal-order semantics, so they are never applied in
// visit order. Instead the operator settles lazily: after each completed
// chunk whose running raw-candidate count could satisfy the limit, it folds
// the *visited* chunks' products in ascending frame order into a fresh
// accumulator (fresh tracker, the same GAP/LIMIT walk the temporal scan
// runs). Settlement reuses already-charged scan products, so it charges
// nothing; the cost meter honestly reflects only the frames the density
// order actually visited.

// densityPlanName is the physical plan name shared by every family's
// density-ordered candidate (one name, hint-forcible across families).
const densityPlanName = "density-limit"

// densityGateReason is the report explanation for why the cost-based pick
// never chooses the density candidate on its own.
const densityGateReason = "density-ordered any-K: forcible by hint; presence densities are uncalibrated predictions, so the cost-based pick keeps the temporal ramp"

// densityDesc describes the density-ordered candidate for one family.
func densityDesc(family string) plan.Description {
	return plan.Description{
		Name:   densityPlanName,
		Family: family,
		Detail: "visit chunks in descending zone-map presence density, settling any-K LIMIT candidates in temporal order within the visited set (NeedleTail-style)",
	}
}

// densityChunk is one schedule entry: a chunk's visited frame range and its
// zone-map density estimate.
type densityChunk struct {
	ci, fLo, fHi int
	density      int
}

// buildDensitySchedule derives the visit schedule for frames [lo, hi) from
// a pinned segment's zone maps: conjunction-refuted chunks are pruned
// (sound skips — no frame in them can satisfy the predicate), and the rest
// are ordered by descending density estimate with ascending chunk index as
// the tie-break (stable sort over the temporal order). The schedule is a
// pure function of the pinned zone maps, which is the whole determinism
// story: two opens against the same snapshot always produce the same
// schedule.
func buildDensitySchedule(pin *index.Segment, heads []int, conj []index.Conjunct, lo, hi int) (sched []densityChunk, prunedChunks, prunedFrames int) {
	if hi <= lo {
		return nil, 0, 0
	}
	for ci := index.ChunkOf(lo); ci <= index.ChunkOf(hi-1); ci++ {
		fLo := ci * index.ChunkFrames
		if fLo < lo {
			fLo = lo
		}
		fHi := (ci + 1) * index.ChunkFrames
		if fHi > hi {
			fHi = hi
		}
		if len(conj) > 0 && pin.CanSkipConjunction(ci, conj) {
			prunedChunks++
			prunedFrames += fHi - fLo
			continue
		}
		sched = append(sched, densityChunk{ci: ci, fLo: fLo, fHi: fHi, density: pin.DensityAt(ci, heads)})
	}
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].density > sched[j].density })
	return sched, prunedChunks, prunedFrames
}

// densityPlanFrames prices a density-ordered scan: how many frames the
// schedule expects to visit before the density estimates accumulate limit
// hits (all scheduled frames when the estimates never reach it).
func densityPlanFrames(pin *index.Segment, heads []int, conj []index.Conjunct, lo, hi, limit int) int {
	if limit <= 0 {
		return 0
	}
	sched, _, _ := buildDensitySchedule(pin, heads, conj, lo, hi)
	frames, hits := 0, 0
	for _, ent := range sched {
		frames += ent.fHi - ent.fLo
		hits += ent.density
		if hits >= limit {
			break
		}
	}
	return frames
}

// densityState is the serializable suspension of a density-ordered scan
// (the scan operator fills it; see scan.go). The chunk schedule itself is
// never serialized: it is recomputed at open from the pinned snapshot's
// zone maps.
type densityState struct {
	// Horizon pins the snapshot the schedule was computed against; a
	// restore onto a different horizon restarts deterministically.
	Horizon int `json:"horizon"`
	// SchedPos is the index of the next schedule entry; InChunk the frames
	// already consumed inside it (mid-chunk suspension).
	SchedPos int `json:"sched_pos"`
	InChunk  int `json:"in_chunk"`
	// Pos is total frames consumed (the execution's progress unit).
	Pos int `json:"pos"`
	// Raw counts raw candidate events seen so far — the cheap pre-GAP
	// upper bound that gates settlement attempts.
	Raw      int   `json:"raw"`
	Finished bool  `json:"finished"`
	Stats    Stats `json:"stats"`
}

// openDensity opens a family's density-ordered scan over the pinned
// segment's schedule. newKernel must build the family's kernel addressing
// frames directly (lo 0; enumeration guarantees step 1): the scan charges
// one, and every settlement folds into a fresh one.
func openDensity[P any](e *Engine, info *frameql.Info, par int, pin *index.Segment, heads []int, conj []index.Conjunct, newKernel func() scanKernel[P]) *scanExec[P] {
	lo, hi := e.frameRange(info)
	sched, prunedChunks, prunedFrames := buildDensitySchedule(pin, heads, conj, lo, hi)
	x := newScan(e.exec, info.Kind.String(), densityPlanName, par, 0, false, newKernel())
	x.orderByDensity(sched, lo, e.Test.Frames, info.Limit, newKernel)
	x.stats.IndexChunksSkipped += prunedChunks
	x.stats.ConjunctionChunksSkipped += prunedChunks
	x.stats.IndexFramesSkipped += prunedFrames
	x.stats.note("density schedule: %d chunks over frames [%d,%d), %d pruned by the conjunction kernel",
		len(sched), lo, hi, prunedChunks)
	return x
}

// densityCand wraps a costed density plan in the planner metadata every
// family shares: gated (never cost-chosen — density estimates are
// uncalibrated predictions), hint-forcible, upper-bound priced.
func densityCand(p *costedPlan, marginal float64) candidate {
	return candidate{
		Plan:            p,
		MarginalSeconds: marginal,
		Accuracy:        densityAccuracy,
		UpperBoundOnly:  true,
		Gated:           true,
		GateReason:      densityGateReason,
	}
}

// densityExhaustiveCand enumerates the exhaustive family's density-ordered
// candidate for a LIMIT query, or explains why it cannot run.
func (e *Engine) densityExhaustiveCand(info *frameql.Info, par int) candidate {
	desc := densityDesc(frameql.KindExhaustive.String())
	stmt := info.Stmt
	if stmt.Having != nil && info.Residual {
		return infeasible(desc, fmt.Sprintf("unsupported HAVING clause: %s", stmt.Having))
	}
	if exprUsesTrackID(stmt.Where) {
		return infeasible(desc, "WHERE reads trackid, which only a full temporal visit assigns")
	}
	if len(info.Classes) == 0 {
		return infeasible(desc, "no class predicate to read presence densities for")
	}
	classes := make([]vidsim.Class, len(info.Classes))
	for i, c := range info.Classes {
		classes[i] = vidsim.Class(c)
	}
	seg := e.idx.PeekSegment(classes, e.Test)
	if seg == nil {
		return infeasible(desc, "no materialized index segment for the query classes (build one to enable density ordering)")
	}
	heads := make([]int, len(classes))
	for i, c := range classes {
		h := seg.Model().HeadIndex(c)
		if h < 0 {
			return infeasible(desc, fmt.Sprintf("index segment has no head for class %q", c))
		}
		heads[i] = h
	}
	lo, hi := e.frameRange(info)
	pin := seg.At(e.Test)
	if pin.Frames() < hi {
		return infeasible(desc, "index segment does not cover the pinned horizon yet")
	}
	full := e.DTest.FullFrameCost()
	frames := densityPlanFrames(pin, heads, nil, lo, hi, info.Limit)
	p := &costedPlan{
		desc: desc,
		est:  plan.Cost{DetectorCalls: float64(frames), DetectorSeconds: float64(frames) * full},
		open: func() (execution, error) {
			// The predicate is trackid-free (guard above), so the raw count per
			// frame is independent of visit order, and settlement re-tracks
			// the visited set exactly as a temporal scan over it would.
			return openDensity(e, info, par, pin, heads, nil, func() scanKernel[*detArena] {
				return e.newExhaustiveKernel(info, 0)
			}), nil
		},
	}
	return densityCand(p, p.est.DetectorSeconds)
}

// densityBinaryCand enumerates the binary family's density-ordered
// candidate from the cascade's enumeration products.
func (e *Engine) densityBinaryCand(info *frameql.Info, class vidsim.Class, prep *binaryPrep, bandFrac float64, par int) candidate {
	desc := densityDesc(frameql.KindBinary.String())
	lo, hi := e.frameRange(info)
	pin := prep.seg.At(e.Test)
	if pin.Frames() < hi {
		return infeasible(desc, "index segment does not cover the pinned horizon yet")
	}
	heads := []int{prep.head}
	// Conjunction-refuted chunks are pruned from the schedule — the same
	// chunks the temporal plan's zone consult skips — so the two plans'
	// meters agree bit for bit when neither exits early.
	conj := prep.conjunction()
	full := e.DTest.FullFrameCost()
	frames := densityPlanFrames(pin, heads, conj, lo, hi, info.Limit)
	verify := bandFrac * float64(frames)
	p := &costedPlan{
		desc: desc,
		est: plan.Cost{
			TrainSeconds:    prep.trainCost + prep.heldCost,
			SpecNNSeconds:   prep.infCost,
			DetectorCalls:   verify,
			DetectorSeconds: verify * full,
		},
		open: func() (execution, error) {
			x := openDensity(e, info, par, pin, heads, conj, func() scanKernel[[]binVerdict] {
				return e.newBinaryKernel(info, class, prep, 0)
			})
			prep.charge(&x.stats)
			return x, nil
		},
	}
	return densityCand(p, p.est.DetectorSeconds)
}

// densitySelectionCand enumerates the selection family's density-ordered
// candidate from the shared selection preparation.
func (e *Engine) densitySelectionCand(info *frameql.Info, prep *selPrep, par int) candidate {
	desc := densityDesc(frameql.KindSelection.String())
	// The default order ends in the label stage, the one with presence
	// densities and a zone conjunct to read.
	stages, seg := prep.stages(AllFilters())
	var conj []index.Conjunct
	if n := len(stages); n > 0 {
		conj = stages[n-1].conj
	}
	if conj == nil {
		return infeasible(desc, "no trained label filter to read presence densities for")
	}
	if seg == nil {
		return infeasible(desc, "no materialized index segment for the class (build one to enable density ordering)")
	}
	if info.MinDurationFrames > 1 {
		return infeasible(desc, "duration predicates need boundary probes the density order does not replay")
	}
	lo, hi := e.frameRange(info)
	pin := seg.At(e.Test)
	if pin.Frames() < hi {
		return infeasible(desc, "index segment does not cover the pinned horizon yet")
	}
	heads := []int{conj[0].Head}
	est := prep.estimate(stages, densityPlanFrames(pin, heads, conj, lo, hi, info.Limit))
	p := &costedPlan{
		desc: desc,
		est:  est,
		open: func() (execution, error) {
			// Step 1 and no duration predicate (guards above): the default-
			// order cascade, every track qualifying at settlement.
			x := openDensity(e, info, par, pin, heads, conj, func() scanKernel[*selArena] {
				return e.newSelectionKernel(info, AllFilters(), prep, 0)
			})
			prep.charge(&x.stats)
			return x, nil
		},
	}
	return densityCand(p, est.DetectorSeconds+est.FilterSeconds)
}
