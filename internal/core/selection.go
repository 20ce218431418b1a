package core

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/detect"
	"repro/internal/feature"
	"repro/internal/filters"
	"repro/internal/frameql"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/specnn"
	"repro/internal/track"
	"repro/internal/vidsim"
)

// SelectionPlan toggles the filter classes of §8 for a selection query.
// The default plan (All) lets the rule-based optimizer use every
// applicable filter; the factor-analysis and lesion-study benchmarks
// (Figure 11) toggle them individually, and the baselines of Figure 10
// use Naive / NoScopeOracle.
type SelectionPlan struct {
	// UseSpatial enables the ROI crop from mask-bound predicates.
	UseSpatial bool
	// UseTemporal enables (K−1)/2 subsampling from duration predicates.
	UseTemporal bool
	// UseContent enables the frame-level content filter.
	UseContent bool
	// UseLabel enables the specialized-network presence filter.
	UseLabel bool
	// NoScopeOracle replaces all filters with the free presence oracle of
	// §10.1.1 (detector runs on exactly the frames containing the class).
	NoScopeOracle bool
	// LabelFirst runs the specialized-network label filter before the
	// content filters in the cascade. The default (content first) is what
	// the cost model prefers: the content check is an order of magnitude
	// cheaper per frame, so running it first strictly dominates unless its
	// selectivity is 1. Meaningful only when both filter kinds exist.
	LabelFirst bool
}

// AllFilters is the default plan with every filter class enabled.
func AllFilters() SelectionPlan {
	return SelectionPlan{UseSpatial: true, UseTemporal: true, UseContent: true, UseLabel: true}
}

// NaivePlan disables every filter: the detector runs on every frame.
func NaivePlan() SelectionPlan { return SelectionPlan{} }

// selDesc describes a selection-family candidate.
func selDesc(name, detail string) plan.Description {
	return plan.Description{Name: name, Family: frameql.KindSelection.String(), Detail: detail}
}

// enumerateSelection produces the selection candidate set (paper §8): the
// full filter cascade in both orderings (content filters before or after
// the specialized-network label filter, priced by their trained
// selectivities), the filterless scan, and the gated presence-oracle
// baseline. Training the filters is part of planning; the executed
// variant replays the training charges exactly.
func (e *Engine) enumerateSelection(info *frameql.Info, par int, u *prepUse) ([]candidate, error) {
	allPlan := AllFilters()
	prep, err := e.selectionPrep(info, allPlan, u)
	if err != nil {
		return nil, err
	}
	lo, hi := e.frameRange(info)
	full := e.DTest.FullFrameCost()
	span := hi - lo
	visited := 0
	if span > 0 {
		visited = (span + prep.step - 1) / prep.step
	}

	allEst := e.selectionEstimate(prep, visited, false)
	allCost := &costedPlan{
		desc: selDesc("selection-all-filters", "full cascade: spatial ROI, temporal step, content filters, then label filter (§8)"),
		est:  allEst,
		open: func() (plan.Execution[*Result], error) {
			return e.newSelectionExec(info, allPlan, prep, par), nil
		},
	}
	cands := []candidate{{
		Plan:            allCost,
		MarginalSeconds: allEst.DetectorSeconds + allEst.FilterSeconds,
		Accuracy:        selectionAccuracy,
	}}

	lfDesc := selDesc("selection-label-first", "full cascade with the label filter ahead of the content filters")
	if len(prep.contentFilters) > 0 && prep.labelFilter != nil {
		lfPlan := allPlan
		lfPlan.LabelFirst = true
		lfEst := e.selectionEstimate(prep, visited, true)
		lfCost := &costedPlan{
			desc: lfDesc,
			est:  lfEst,
			open: func() (plan.Execution[*Result], error) {
				return e.newSelectionExec(info, lfPlan, prep, par), nil
			},
		}
		cands = append(cands, candidate{
			Plan:            lfCost,
			MarginalSeconds: lfEst.DetectorSeconds + lfEst.FilterSeconds,
			Accuracy:        selectionAccuracy,
		})
	} else {
		cands = append(cands, infeasible(lfDesc, "needs both content and label filters to reorder"))
	}

	naivePlan := NaivePlan()
	naiveEst := plan.Cost{DetectorCalls: float64(span), DetectorSeconds: float64(span) * full}
	naiveCost := &costedPlan{
		desc: selDesc("selection-naive", "reference detector on every frame, no filters"),
		est:  naiveEst,
		open: func() (plan.Execution[*Result], error) {
			return e.openSelectionPlan(info, naivePlan, par)
		},
	}
	// Not UpperBoundOnly even under LIMIT: the selection executor scans
	// every visited frame and applies LIMIT/GAP on the merged rows, so
	// the full-scan estimate is what a run actually costs.
	cands = append(cands, candidate{
		Plan:            naiveCost,
		MarginalSeconds: naiveEst.DetectorSeconds,
		Accuracy:        exactAccuracy,
	})

	base := e.baseStats(u, prep.class)
	nsPlan := SelectionPlan{NoScopeOracle: true}
	nsEst := plan.Cost{
		DetectorCalls:   base.Presence * float64(span),
		DetectorSeconds: base.Presence * float64(span) * full,
	}
	nsCost := &costedPlan{
		desc: selDesc("selection-noscope-oracle", "detector on exactly the frames the presence oracle marks occupied (§10.1.1)"),
		est:  nsEst,
		open: func() (plan.Execution[*Result], error) {
			return e.openSelectionPlan(info, nsPlan, par)
		},
	}
	cands = append(cands, candidate{
		Plan:            nsCost,
		MarginalSeconds: nsEst.DetectorSeconds,
		Gated:           true,
		Accuracy:        selectionAccuracy,
	})
	if info.Limit >= 0 {
		cands = append(cands, e.densitySelectionCand(info, prep, par))
	}
	return cands, nil
}

// cascadeRates are measured held-out pass rates for a trained filter
// cascade. The filters detect the same objects and are therefore highly
// correlated — multiplying individual selectivities would badly
// underestimate the joint pass rate, so the cascade is measured jointly.
type cascadeRates struct {
	// Content is the fraction of frames passing every content filter.
	Content float64
	// Joint is the fraction passing content and label filters together —
	// the frames the detector runs on.
	Joint float64
}

// trainSelection is the work behind one selection shape in the prepared
// store: content predicates become frame-level threshold filters, the
// class predicate the specialized-network label filter (no held-out
// segment: no label stage), and the trained cascade's joint pass rates are measured on
// a strided sample of the held-out day — cheap planning work charged to
// nobody, like every held-out statistic.
func (e *Engine) trainSelection(target filters.Target, useContent bool, model *specnn.CountModel, segHeld *index.Segment) *selProducts {
	prod := &selProducts{Rates: cascadeRates{Content: 1, Joint: 1}}
	if useContent {
		for _, pred := range target.Preds {
			if pred.Arg != "content" {
				continue
			}
			if cf := filters.TrainContentFilter(e.HeldOut, e.DHeld, target, pred, e.opts.HeldOutSample); cf != nil {
				prod.Content = append(prod.Content, cf)
			}
		}
	}
	if segHeld != nil {
		prod.Label = filters.TrainLabelFilter(e.HeldOut, e.DHeld, model, segHeld.Inference(), target, e.opts.HeldOutSample)
	}
	if len(prod.Content) == 0 && prod.Label == nil {
		return prod
	}
	stride := planStride(e.HeldOut.Frames, e.opts.HeldOutSample)
	ev := specnn.NewEvaluator(model, e.HeldOut)
	n, contentPass, jointPass := 0, 0, 0
	for f := 0; f < e.HeldOut.Frames; f += stride {
		n++
		ev.Seek(f)
		pass := true
		raw := ev.Raw()
		for _, cf := range prod.Content {
			if !cf.Pass(raw) {
				pass = false
				break
			}
		}
		if pass {
			contentPass++
			if prod.Label != nil && ev.TailProb(prod.Label.Head, 1) < prod.Label.Threshold {
				pass = false
			}
		}
		if pass {
			jointPass++
		}
	}
	if n > 0 {
		prod.Rates = cascadeRates{Content: float64(contentPass) / float64(n), Joint: float64(jointPass) / float64(n)}
	}
	return prod
}

// selectionEstimate prices one cascade ordering: each stage charges its
// per-frame cost to the frames surviving the stages before it (survival
// measured jointly on the held-out day, since the filters correlate), and
// the detector runs on what survives the whole cascade. Duration-probe
// detector calls are not modeled; the candidate's accuracy factor absorbs
// them.
func (e *Engine) selectionEstimate(prep *selPrep, visited int, labelFirst bool) plan.Cost {
	hasContent := len(prep.contentFilters) > 0
	hasLabel := prep.labelFilter != nil
	v := float64(visited)
	est := plan.Cost{}
	for _, c := range prep.charges {
		est.TrainSeconds += c.train
	}
	survivors := v
	if hasContent || hasLabel {
		rates := prep.rates
		survivors = v * rates.Joint
		switch {
		case labelFirst && hasContent && hasLabel:
			// Label first: every visited frame pays feature extraction plus
			// network inference; content checks reuse the extracted features.
			est.FilterSeconds += v * (feature.CostSeconds + specnn.InferenceCostSeconds)
		default:
			if hasContent {
				est.FilterSeconds += v * feature.CostSeconds
			}
			if hasLabel {
				reachLabel := v
				if hasContent {
					reachLabel = v * rates.Content
				} else {
					est.FilterSeconds += v * feature.CostSeconds
				}
				est.FilterSeconds += reachLabel * specnn.InferenceCostSeconds
			}
		}
	}
	est.DetectorCalls = survivors
	est.DetectorSeconds = survivors * prep.detCost
	return est
}

// trackAgg accumulates per-track state during selection.
type trackAgg struct {
	firstMatch, lastMatch int
	firstBox, lastBox     vidsim.Box
	rows                  []Row
	truthID               int
}

// ExecuteSelectionPlan runs a selection query under an explicit filter
// plan at the engine's configured parallelism.
func (e *Engine) ExecuteSelectionPlan(info *frameql.Info, plan SelectionPlan) (*Result, error) {
	return e.pin().executeSelectionPlan(info, plan, e.effectiveParallelism(0))
}

// selArena is the per-shard product of the selection scan: per-frame
// cascade verdicts (zone-map skip accounting encoded as flag bits) plus
// the target-class detections (and their object-predicate verdicts) for
// frames that reached the detector.
type selArena struct {
	detArena
	flags []uint8
}

// Cascade flag bits for one visited frame.
const (
	// selContentPass: the frame passed every content filter (meaningful
	// only when content filters exist — gates whether the label stage ran).
	selContentPass uint8 = 1 << iota
	// selDetected: the frame survived the whole cascade and was detected.
	selDetected
	// selSkipped: a zone map proved the label filter rejects the frame's
	// whole chunk; the frame was elided without per-frame work. For the
	// charge replay the frame behaves exactly like a label rejection
	// (zero cascade bits).
	selSkipped
	// selChunkFirst marks the visited frame where the whole scan first
	// enters a skipped chunk, so per-frame consumption counts each
	// skipped chunk exactly once however shards straddle it.
	selChunkFirst
)

// selCharge is one recorded preparation charge: training seconds and an
// optimizer note, replayed onto the executed plan's cost meter in the
// exact order the preparation incurred them.
type selCharge struct {
	train    float64
	hasTrain bool
	note     string
}

// selPrep is the product of selection planning for one filter plan:
// trained filters, scan geometry, and the ordered charge replay list.
// One prep may be shared by several cascade-ordering candidates — the
// filters and charges are identical; only the scan order differs.
type selPrep struct {
	class          vidsim.Class
	target         filters.Target
	roi            vidsim.Box
	detCost        float64
	step           int
	contentFilters []*filters.ContentFilter
	labelFilter    *filters.LabelFilter
	model          *specnn.CountModel
	rates          cascadeRates
	presence       []int32
	charges        []selCharge
	// seg is the test day's materialized index segment when one already
	// exists (built by an earlier query, a background build, or loaded
	// from a warm index directory) — the label filter then reads its
	// exact presence-tail column instead of running the network per
	// frame, and zone maps skip chunks that cannot pass. Reads are
	// bit-identical to the on-the-fly Evaluator, so presence or absence
	// of the segment changes wall-clock only; nil falls back to the
	// Evaluator. Selection never *builds* the segment: the cascade's
	// simulated charges are per-visited-frame, and triggering a
	// whole-day inference here would change the cost accounting.
	seg *index.Segment
}

// charge replays the preparation charges onto a cost meter.
func (p *selPrep) charge(st *Stats) {
	for _, c := range p.charges {
		if c.hasTrain {
			st.TrainSeconds += c.train
		}
		if c.note != "" {
			st.Notes = append(st.Notes, c.note)
		}
	}
}

// conjunction is the label threshold expressed as a conjunction, for zone
// consults; it needs a trained label filter.
func (p *selPrep) conjunction() []index.Conjunct {
	return []index.Conjunct{{Head: p.labelFilter.Head, Threshold: p.labelFilter.Threshold, Tail1: true}}
}

// selectionPrep splits predicates and prepares the filters a selection
// plan uses: spatial bounds become the ROI, duration constraints the
// temporal step, and the trained content and label filters come from the
// prepared store (trainSelection on a shape's first sighting). Every
// training charge and optimizer note is recorded for replay instead of
// applied, so planning can price candidates before any execution exists;
// the store holds the filters, never the charges — Model and Inference
// are asked on every call for what this caller owes.
func (e *Engine) selectionPrep(info *frameql.Info, plan SelectionPlan, u *prepUse) (*selPrep, error) {
	if len(info.Classes) != 1 {
		return nil, fmt.Errorf("core: selection requires exactly one class predicate, got %v", info.Classes)
	}
	class := vidsim.Class(info.Classes[0])
	w := float64(e.Cfg.Width)
	h := float64(e.Cfg.Height)
	p := &selPrep{
		class:  class,
		target: filters.Target{Class: class, Preds: info.UDFs},
		roi:    vidsim.Box{X: 0, Y: 0, W: w, H: h},
		step:   1,
	}
	note := func(format string, args ...interface{}) {
		p.charges = append(p.charges, selCharge{note: fmt.Sprintf(format, args...)})
	}
	train := func(seconds float64) {
		p.charges = append(p.charges, selCharge{train: seconds, hasTrain: true})
	}

	if plan.UseSpatial {
		if r, ok := filters.ROIFromPreds(info.UDFs, w, h); ok {
			// Keep some padding visible (paper §8.1).
			const pad = 16
			p.roi = vidsim.Box{X: r.X - pad, Y: r.Y - pad, W: r.W + 2*pad, H: r.H + 2*pad}.Clip(w, h)
			note("spatial: ROI %.0fx%.0f (cost factor %.2f)",
				p.roi.W, p.roi.H, e.DTest.CostFor(p.roi.W, p.roi.H)/e.DTest.FullFrameCost())
		}
	}
	p.detCost = e.DTest.CostFor(p.roi.W, p.roi.H)

	if plan.UseTemporal && info.MinDurationFrames > 1 {
		p.step = filters.TemporalStep(info.MinDurationFrames)
		note("temporal: step %d from duration >= %d frames", p.step, info.MinDurationFrames)
	}

	var trainCost, heldCost float64
	var segHeld *index.Segment
	var modelErr error
	if plan.UseLabel {
		if p.model, trainCost, modelErr = e.Model([]vidsim.Class{class}); modelErr == nil {
			var err error
			if segHeld, heldCost, err = e.segment([]vidsim.Class{class}, e.HeldOut); err != nil {
				return nil, err
			}
		}
	}
	key := e.shapeKey("selection", p.model, heldModelFP(e, segHeld), class, info.UDFs, plan.UseContent, plan.UseLabel)
	prod, err := prepared(e, u, key, func() (*selProducts, error) {
		return e.trainSelection(p.target, plan.UseContent, p.model, segHeld), nil
	})
	if err != nil {
		return nil, err
	}
	p.contentFilters, p.rates = prod.Content, prod.Rates
	for _, cf := range prod.Content {
		// Threshold computation scans the held-out day with the cheap
		// frame UDF.
		p.charges = append(p.charges, selCharge{
			train:    float64(min(e.HeldOut.Frames, e.opts.HeldOutSample)) * feature.CostSeconds,
			hasTrain: true,
			note:     fmt.Sprintf("content: %s >= %.2f (selectivity %.3f)", cf.UDF, cf.Threshold, cf.Selectivity),
		})
	}
	switch {
	case !plan.UseLabel:
	case modelErr != nil:
		note("label filter unavailable: %v", modelErr)
	default:
		train(trainCost)
		train(heldCost)
		if p.labelFilter = prod.Label; p.labelFilter != nil {
			note("label: P(%s >= 1) >= %.3f (selectivity %.3f)",
				class, p.labelFilter.Threshold, p.labelFilter.Selectivity)
			p.seg = e.idx.PeekSegment([]vidsim.Class{class}, e.Test)
			if p.seg != nil && p.seg.Model() != p.model {
				// A model imported after the segment was built: the
				// columns no longer mirror this model's outputs.
				p.seg = nil
			}
		}
	}

	// Oracle presence for the NoScope baseline (free, per §10.1.1).
	if plan.NoScopeOracle {
		p.presence = e.Test.Counts(class)
	}
	return p, nil
}

// executeSelectionPlan prepares and runs a selection query under an
// explicit filter plan — the direct path the lesion-study benchmarks use;
// planned executions share the preparation via newSelectionExec.
func (e *Engine) executeSelectionPlan(info *frameql.Info, selPlan SelectionPlan, par int) (*Result, error) {
	x, err := e.openSelectionPlan(info, selPlan, par)
	if err != nil {
		return nil, err
	}
	if err := x.RunTo(-1); err != nil {
		return nil, err
	}
	return x.Result()
}

// openSelectionPlan prepares filters for an explicit selection plan and
// opens its resumable execution.
func (e *Engine) openSelectionPlan(info *frameql.Info, selPlan SelectionPlan, par int) (*scanExec[*selArena], error) {
	prep, err := e.selectionPrep(info, selPlan, &prepUse{family: info.Kind.String()})
	if err != nil {
		return nil, err
	}
	return e.newSelectionExec(info, selPlan, prep, par), nil
}

// selTrackState is one track's serialized scan aggregate.
type selTrackState struct {
	ID         int        `json:"id"`
	FirstMatch int        `json:"first_match"`
	LastMatch  int        `json:"last_match"`
	FirstBox   vidsim.Box `json:"first_box"`
	LastBox    vidsim.Box `json:"last_box"`
	TruthID    int        `json:"truth_id"`
	Rows       []Row      `json:"rows,omitempty"`
}

// selectionState is the serializable suspension of a selection scan:
// frame position, tracker state, the per-track aggregates (sorted by
// track ID), and the partial cost meter with its preparation charges.
// Duration probing, row ordering, and LIMIT/GAP are not part of the scan
// state: they are finalization, re-derived from the aggregates each time
// a result is read, so a standing query's answer always reflects probing
// against the current horizon — exactly like a fresh query's.
type selectionState struct {
	Pos     int             `json:"pos"`
	Tracker track.State     `json:"tracker"`
	Tracks  []selTrackState `json:"tracks,omitempty"`
	Stats   Stats           `json:"stats"`
}

// selectionKernel runs a selection query with prepared filters. The
// plan guarantees no false positives: every returned row is
// detector-verified, and duration predicates are resolved exactly by
// probing track boundaries with additional detector calls when sampling
// leaves them ambiguous (§3: "BLAZEIT can always ensure no false
// positives by running the most accurate method on the relevant frames").
//
// produce runs the cheap-filter cascade (feature extraction, content
// filters, specialized-network label filter) and the ROI detector over a
// visited-frame range with its own evaluator and buffers; merge replays
// cost charging, advances the entity-resolution tracker, and assembles
// per-track state serially per visited frame in frame order. Duration
// probing runs at finalization on the merged tracks in ascending track-ID
// order, so the Result is bit-identical at every parallelism level.
// Visited frames are stride-sampled (lo + i·step); a grown live stream
// continues the scan on the same stride grid over the new suffix.
type selectionKernel struct {
	e       *Engine
	info    *frameql.Info
	plan    SelectionPlan
	prep    *selPrep
	lo      int
	tracker *track.Tracker
	tracks  map[int]*trackAgg
}

// newSelectionKernel builds the kernel over frames lo, lo+step, ….
func (e *Engine) newSelectionKernel(info *frameql.Info, selPlan SelectionPlan, prep *selPrep, lo int) *selectionKernel {
	cutoff := track.DefaultCutoff
	if prep.step > 1 {
		// Sampled frames are step apart; inter-frame motion scales with the
		// gap, so the matching cutoff must loosen accordingly.
		cutoff = 0.35
	}
	return &selectionKernel{e: e, info: info, plan: selPlan, prep: prep, lo: lo,
		tracker: track.New(cutoff, 2*prep.step), tracks: make(map[int]*trackAgg)}
}

func (e *Engine) newSelectionExec(info *frameql.Info, selPlan SelectionPlan, prep *selPrep, par int) *scanExec[*selArena] {
	lo, hi := e.frameRange(info)
	x := newScan(e.exec, info.Kind.String(), planName(selPlan), par, (hi-lo+prep.step-1)/prep.step, false,
		e.newSelectionKernel(info, selPlan, prep, lo))
	prep.charge(&x.stats)
	return x
}

// cascade resolves which filter stages this plan's scan runs.
func (k *selectionKernel) cascade() (hasContent, hasLabel, labelFirst bool) {
	hasContent = len(k.prep.contentFilters) > 0
	hasLabel = k.prep.labelFilter != nil
	return hasContent, hasLabel, k.plan.LabelFirst && hasContent && hasLabel
}

func (k *selectionKernel) produce(sLo, sHi int) *selArena {
	e, plan, prep := k.e, k.plan, k.prep
	lo, step := k.lo, prep.step
	labelFilter := prep.labelFilter
	hasContent, hasLabel, labelFirst := k.cascade()
	headIdx := -1
	if hasLabel {
		headIdx = labelFilter.Head
	}
	// With a materialized segment the label filter reads the index's exact
	// presence-tail column (bit-identical to Evaluator.TailProb) instead of
	// running the network per frame, and chunks whose zone map proves the
	// label threshold unreachable skip frame evaluation entirely wherever
	// the cascade has no earlier stage that must still run. Skipped frames
	// replay the same charges a label rejection would, so the merge's
	// charge replay — and therefore the whole Result — is unchanged.
	seg := prep.seg
	useSeg := seg != nil && hasLabel && !plan.NoScopeOracle

	a := &selArena{flags: make([]uint8, 0, sHi-sLo)}
	a.ends = make([]int32, 0, sHi-sLo)
	var ev *specnn.Evaluator
	if !plan.NoScopeOracle && (hasContent || hasLabel) {
		if useSeg {
			if hasContent {
				// Raw descriptors only: the network never runs here.
				ev = specnn.NewEvaluator(nil, e.Test)
			}
		} else {
			ev = specnn.NewEvaluator(prep.model, e.Test)
		}
	}
	// With a segment the label threshold reads the current chunk's
	// exact presence-tail column, fetched once per chunk range (the
	// chunk-vector read); the per-frame accessor stays selectable for
	// the equivalence suite. Both read the same float64 storage.
	var t1col []float64
	t1lo := -1
	labelPass := func(f int) bool {
		if useSeg {
			if t1col != nil {
				return t1col[f-t1lo] >= labelFilter.Threshold
			}
			return seg.Tail1(headIdx, f) >= labelFilter.Threshold
		}
		return ev.TailProb(headIdx, 1) >= labelFilter.Threshold
	}
	contentPass := func() bool {
		raw := ev.Raw()
		for _, cf := range prep.contentFilters {
			if !cf.Pass(raw) {
				return false
			}
		}
		return true
	}
	// canSkip applies only where the label filter is the first stage
	// that would touch the frame, so a skip elides real work without
	// changing any flag the merge replays charges from. The consult
	// routes through the conjunction kernel so the temporal path and
	// the density schedule refute identical chunk sets.
	canSkip := useSeg && (labelFirst || !hasContent)
	var conj []index.Conjunct
	if canSkip {
		conj = prep.conjunction()
	}
	c := e.DTest.NewCounter()
	var scratch []detect.Detection
	visit := func(f int) (uint8, bool) {
		var fl uint8
		if plan.NoScopeOracle {
			if prep.presence[f] > 0 {
				fl = selDetected
			}
		} else if labelFirst {
			// Reordered cascade: the network gates first, content
			// checks reuse its feature extraction on survivors.
			if !useSeg {
				ev.Seek(f)
			}
			if labelPass(f) {
				if useSeg {
					ev.Seek(f)
				}
				if contentPass() {
					fl |= selDetected
				}
			}
		} else {
			pass := true
			if hasContent {
				ev.Seek(f)
				if pass = contentPass(); pass {
					fl |= selContentPass
				}
			}
			if pass && hasLabel {
				if !hasContent && !useSeg {
					ev.Seek(f)
				}
				pass = labelPass(f)
			}
			if pass {
				fl |= selDetected
			}
		}
		if fl&selDetected != 0 {
			scratch = c.DetectROI(f, prep.roi, scratch[:0])
			start := len(a.dets)
			// Keep all detections of the target class for identity.
			for j := range scratch {
				if scratch[j].Class == prep.class {
					a.dets = append(a.dets, scratch[j])
				}
			}
			for j := start; j < len(a.dets); j++ {
				ok, err := filters.ObjectMatches(&a.dets[j], prep.target)
				if err != nil {
					a.err = err
					return fl, false
				}
				a.matched = append(a.matched, ok)
			}
		}
		return fl, true
	}
	// The range walks index-chunk-aligned ranges of its visited
	// frames: one zone-map consultation per chunk proves a whole
	// range's label rejection without decoding its column (predicate
	// pushdown), and surviving ranges fetch the chunk's tail column
	// once.
	for i := sLo; i < sHi; {
		iEnd := sHi
		if useSeg {
			f := lo + i*step
			ci := index.ChunkOf(f)
			chunkHi := (ci + 1) * index.ChunkFrames
			// First visited index whose frame leaves the chunk.
			iEnd = min(iEnd, i+(chunkHi-f+step-1)/step)
			if canSkip && zoneRefutes(seg, ci, conj) {
				// Proven label rejection for the whole range: same zero
				// cascade bits, no per-frame work. Count each skipped
				// chunk once per scan — at the visited frame where the
				// whole scan first enters it — so shard boundaries
				// straddling a chunk never double-count it.
				var fl uint8
				if i == 0 || index.ChunkOf(f-step) != ci {
					fl = selChunkFirst
				}
				for ; i < iEnd; i++ {
					a.flags = append(a.flags, fl|selSkipped)
					a.ends = append(a.ends, int32(len(a.dets)))
					fl = 0
				}
				continue
			}
			t1col = nil
			if vectorScanEnabled {
				t1lo = ci * index.ChunkFrames
				t1col = seg.Tail1Range(headIdx, t1lo, min(chunkHi, seg.Frames()))
			}
		}
		for ; i < iEnd; i++ {
			fl, ok := visit(lo + i*step)
			if !ok {
				return a
			}
			a.flags = append(a.flags, fl)
			a.ends = append(a.ends, int32(len(a.dets)))
		}
	}
	return a
}

func (k *selectionKernel) merge(m *Stats, fold bool, blo, bhi, off0 int, a *selArena) (int, int, bool, error) {
	hasContent, hasLabel, labelFirst := k.cascade()
	hits := 0
	for i := blo; i < bhi; i++ {
		if a.err != nil {
			return i - blo + 1, hits, false, a.err
		}
		off := off0 + (i - blo)
		f := k.lo + i*k.prep.step
		fl := a.flags[off]
		if m != nil {
			if fl&selChunkFirst != 0 {
				m.IndexChunksSkipped++
				m.ConjunctionChunksSkipped++
			}
			if fl&selSkipped != 0 {
				m.IndexFramesSkipped++
			}
			// The charge replay reads only the cascade bits: a zone-skipped
			// frame replays exactly the charges of a label rejection.
			switch {
			case k.plan.NoScopeOracle:
				// Oracle knowledge is free.
			case labelFirst:
				// Every visited frame pays feature extraction and network
				// inference; content checks on survivors reuse both.
				m.FilterSeconds += feature.CostSeconds
				m.FilterSeconds += specnn.InferenceCostSeconds
			default:
				// Replay the cascade's filter charges exactly as a serial
				// scan would interleave them.
				if hasContent {
					m.FilterSeconds += feature.CostSeconds
				}
				if hasLabel && (!hasContent || fl&selContentPass != 0) {
					if !hasContent {
						m.FilterSeconds += feature.CostSeconds
					}
					m.FilterSeconds += specnn.InferenceCostSeconds
				}
			}
		}
		if fl&selDetected == 0 {
			continue
		}
		if m != nil {
			m.addDetection(k.prep.detCost)
		}
		classDets := a.frame(off)
		matched := a.frameMatched(off)
		var ids []int
		if fold {
			ids = k.tracker.Advance(f, classDets)
		}
		for j := range classDets {
			if !matched[j] {
				continue
			}
			hits++
			if !fold {
				continue
			}
			d := &classDets[j]
			id := ids[j]
			ta := k.tracks[id]
			if ta == nil {
				ta = &trackAgg{firstMatch: f, firstBox: d.Box, truthID: d.TruthID()}
				k.tracks[id] = ta
			}
			ta.lastMatch = f
			ta.lastBox = d.Box
			ta.rows = append(ta.rows, Row{
				Timestamp:  f,
				Class:      d.Class,
				Mask:       d.Box,
				TrackID:    id,
				Content:    d.Color,
				Confidence: d.Confidence,
			})
		}
	}
	return bhi - blo, hits, false, nil
}

// trackIDs returns the scan's track IDs in ascending order — the order
// serialization and finalization both walk.
func (k *selectionKernel) trackIDs() []int {
	ids := make([]int, 0, len(k.tracks))
	for id := range k.tracks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

func (k *selectionKernel) save(p *scanProgress) ([]byte, error) {
	st := selectionState{Pos: p.pos, Tracker: k.tracker.Snapshot(), Stats: p.stats}
	for _, id := range k.trackIDs() {
		ta := k.tracks[id]
		st.Tracks = append(st.Tracks, selTrackState{
			ID: id, FirstMatch: ta.firstMatch, LastMatch: ta.lastMatch,
			FirstBox: ta.firstBox, LastBox: ta.lastBox,
			TruthID: ta.truthID, Rows: ta.rows,
		})
	}
	return json.Marshal(&st)
}

func (k *selectionKernel) load(state []byte, p *scanProgress) error {
	var st selectionState
	if err := json.Unmarshal(state, &st); err != nil {
		return err
	}
	*p, k.tracker = scanProgress{pos: st.Pos, stats: st.Stats}, track.FromState(st.Tracker)
	k.tracks = make(map[int]*trackAgg, len(st.Tracks))
	for _, ts := range st.Tracks {
		k.tracks[ts.ID] = &trackAgg{
			firstMatch: ts.FirstMatch, lastMatch: ts.LastMatch,
			firstBox: ts.FirstBox, lastBox: ts.LastBox,
			truthID: ts.TruthID, rows: ts.Rows,
		}
	}
	return nil
}

func (k *selectionKernel) adopt(prev scanKernel[*selArena]) {
	o := prev.(*selectionKernel)
	k.tracker, k.tracks = o.tracker, o.tracks
}

// finish finalizes the scan: duration predicates are resolved — probing
// boundaries when sampling left them ambiguous — in ascending track-ID
// order so probe charges and evaluation metadata are deterministic, rows
// sort chronologically, and LIMIT/GAP apply. Finalization never mutates
// scan state: probe charges land on the returned result's meter only, so
// a standing query that ingests more frames and re-finalizes probes
// against the new horizon exactly as a fresh query would.
func (k *selectionKernel) finish(res *Result) {
	e, info, prep := k.e, k.info, k.prep
	lo, hi := e.frameRange(info)
	minDur := info.MinDurationFrames
	trackIDs := k.trackIDs()
	if info.Limit >= 0 && selLimitSettleEnabled {
		k.settleLimited(res, trackIDs, minDur, lo, hi)
		return
	}
	for _, id := range trackIDs {
		ta := k.tracks[id]
		qualified := false
		if minDur <= 1 {
			qualified = true
		} else {
			span := ta.lastMatch - ta.firstMatch + 1
			if span >= minDur {
				qualified = true
			} else if prep.step > 1 {
				qualified = e.probeDuration(ta, prep.target, prep.roi, prep.detCost, minDur, lo, hi, &res.Stats)
			}
		}
		if qualified {
			res.TrackIDs = append(res.TrackIDs, id)
			res.Rows = append(res.Rows, ta.rows...)
			res.evalTruthIDs = append(res.evalTruthIDs, ta.truthID)
		}
	}
	sortRows(res)
	applyLimitGap(res, info.Limit, info.Gap)
	if info.Limit >= 0 {
		k.trimToContributing(res)
	}
}

// Track settlement statuses for LIMIT finalization.
const (
	selTrackQualified = iota // duration certainly satisfied
	selTrackAmbiguous        // subsampled span too short; a probe must decide
	selTrackRejected         // duration certainly violated (or probe failed)
)

// settleLimited finalizes a LIMIT query without settling every surviving
// track first. The reference path pays duration probes for every
// ambiguous track and then throws most rows away in LIMIT/GAP trimming;
// here the trimming walk runs over candidate rows directly and a track is
// probed only when one of its rows would actually be returned. The two
// orders are provably interchangeable: a GAP-suppressed row never updates
// the gap frontier whether or not its track qualifies, and a rejected
// track's rows never update it either, so deciding suppression before
// settlement returns exactly the reference rows — just with the probes
// for never-returned tracks elided (strictly fewer detector calls, never
// more: each kept-row track is probed at most once, exactly as the
// reference probes it).
func (k *selectionKernel) settleLimited(res *Result, trackIDs []int, minDur, lo, hi int) {
	e, info, prep := k.e, k.info, k.prep
	status := make(map[int]int, len(k.tracks))
	var rows []Row
	for _, id := range trackIDs {
		ta := k.tracks[id]
		st := selTrackQualified
		if minDur > 1 {
			if span := ta.lastMatch - ta.firstMatch + 1; span < minDur {
				if prep.step > 1 {
					st = selTrackAmbiguous
				} else {
					// The full-rate scan saw the whole track: it really is
					// too short, no probe can rescue it.
					st = selTrackRejected
				}
			}
		}
		status[id] = st
		if st != selTrackRejected {
			rows = append(rows, ta.rows...)
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Timestamp != rows[j].Timestamp {
			return rows[i].Timestamp < rows[j].Timestamp
		}
		return rows[i].TrackID < rows[j].TrackID
	})
	gap, limit := info.Gap, info.Limit
	last := -1 << 40
	var contributing []int
	for _, row := range rows {
		if len(res.Rows) >= limit {
			break
		}
		// GAP suppression first: a suppressed row is dropped no matter how
		// its track would settle, so it costs no probe.
		if gap > 0 && row.Timestamp != last && row.Timestamp-last < gap {
			continue
		}
		st := status[row.TrackID]
		if st == selTrackAmbiguous {
			// First returnable row of an ambiguous track: settle it now.
			ta := k.tracks[row.TrackID]
			if e.probeDuration(ta, prep.target, prep.roi, prep.detCost, minDur, lo, hi, &res.Stats) {
				st = selTrackQualified
			} else {
				st = selTrackRejected
			}
			status[row.TrackID] = st
		}
		if st == selTrackRejected {
			continue
		}
		last = row.Timestamp
		res.Rows = append(res.Rows, row)
		if n := len(contributing); n == 0 || contributing[n-1] != row.TrackID {
			contributing = append(contributing, row.TrackID)
		}
	}
	sort.Ints(contributing)
	for i, id := range contributing {
		if i > 0 && id == contributing[i-1] {
			continue
		}
		res.TrackIDs = append(res.TrackIDs, id)
		res.evalTruthIDs = append(res.evalTruthIDs, k.tracks[id].truthID)
	}
}

// trimToContributing rewrites a LIMIT result's track metadata to the
// tracks that contribute returned rows: a qualified track whose every row
// was trimmed away is not part of the answer.
func (k *selectionKernel) trimToContributing(res *Result) {
	seen := make(map[int]bool, len(res.TrackIDs))
	for i := range res.Rows {
		seen[res.Rows[i].TrackID] = true
	}
	ids := res.TrackIDs[:0]
	truth := res.evalTruthIDs[:0]
	for i, id := range res.TrackIDs {
		if seen[id] {
			ids = append(ids, id)
			truth = append(truth, res.evalTruthIDs[i])
		}
	}
	res.TrackIDs, res.evalTruthIDs = ids, truth
}

// applyLimitGap enforces the query's LIMIT and GAP on the (sorted) result
// rows: rows within gap frames of the last returned timestamp are dropped
// (rows sharing a timestamp are kept together), and at most limit rows are
// returned.
func applyLimitGap(res *Result, limit, gap int) {
	if gap > 0 {
		kept := res.Rows[:0]
		last := -1 << 40
		for _, row := range res.Rows {
			if row.Timestamp != last && row.Timestamp-last < gap {
				continue
			}
			last = row.Timestamp
			kept = append(kept, row)
		}
		res.Rows = kept
	}
	if limit >= 0 && len(res.Rows) > limit {
		res.Rows = res.Rows[:limit]
	}
}

// probeDuration extends a candidate track outward frame by frame with
// detector calls until its guaranteed duration reaches minDur (qualify) or
// both boundaries stop matching (reject). Probing is capped at 3×minDur
// calls.
func (e *Engine) probeDuration(ta *trackAgg, target filters.Target, roi vidsim.Box, detCost float64, minDur, lo, hi int, stats *Stats) bool {
	budget := 3 * minDur
	first, last := ta.firstMatch, ta.lastMatch
	firstBox, lastBox := ta.firstBox, ta.lastBox
	var dets []detect.Detection

	probe := func(f int, ref vidsim.Box) (vidsim.Box, bool) {
		stats.addDetection(detCost)
		dets = e.DTest.DetectROI(f, roi, dets[:0])
		best := -1
		bestIOU := 0.3
		for i := range dets {
			if dets[i].Class != target.Class {
				continue
			}
			if ok, _ := filters.ObjectMatches(&dets[i], target); !ok {
				continue
			}
			if iou := dets[i].Box.IOU(ref); iou > bestIOU {
				bestIOU = iou
				best = i
			}
		}
		if best < 0 {
			return vidsim.Box{}, false
		}
		return dets[best].Box, true
	}

	growLeft, growRight := true, true
	for budget > 0 && last-first+1 < minDur && (growLeft || growRight) {
		if growLeft {
			if first-1 < lo {
				growLeft = false
			} else {
				budget--
				if box, ok := probe(first-1, firstBox); ok {
					first--
					firstBox = box
				} else {
					growLeft = false
				}
			}
		}
		if last-first+1 >= minDur {
			break
		}
		if growRight && budget > 0 {
			if last+1 >= hi {
				growRight = false
			} else {
				budget--
				if box, ok := probe(last+1, lastBox); ok {
					last++
					lastBox = box
				} else {
					growRight = false
				}
			}
		}
	}
	return last-first+1 >= minDur
}

func planName(p SelectionPlan) string {
	switch {
	case p.NoScopeOracle:
		return "selection-noscope-oracle"
	case !p.UseSpatial && !p.UseTemporal && !p.UseContent && !p.UseLabel:
		return "selection-naive"
	case p.LabelFirst && p.UseSpatial && p.UseTemporal && p.UseContent && p.UseLabel:
		return "selection-label-first"
	case p.UseSpatial && p.UseTemporal && p.UseContent && p.UseLabel:
		return "selection-all-filters"
	default:
		return fmt.Sprintf("selection-s%vt%vc%vl%v", b2i(p.UseSpatial), b2i(p.UseTemporal), b2i(p.UseContent), b2i(p.UseLabel))
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// sortRows orders result rows chronologically and track IDs ascending.
func sortRows(res *Result) {
	sort.Ints(res.TrackIDs)
	sort.Slice(res.Rows, func(i, j int) bool {
		if res.Rows[i].Timestamp != res.Rows[j].Timestamp {
			return res.Rows[i].Timestamp < res.Rows[j].Timestamp
		}
		return res.Rows[i].TrackID < res.Rows[j].TrackID
	})
}
