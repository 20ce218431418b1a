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
	span := float64(hi - lo)
	visited := 0
	if hi > lo {
		visited = (hi - lo + prep.step - 1) / prep.step
	}
	lfPlan, lfWhy := allPlan, ""
	lfPlan.LabelFirst = true
	allStages, _ := prep.stages(allPlan)
	lfStages, _ := prep.stages(lfPlan)
	if len(lfStages) < 2 {
		lfWhy = "needs both content and label filters to reorder"
	}
	occupied := e.baseStats(u, prep.class).Presence * span

	var cands []candidate
	for _, c := range []struct {
		name, detail string
		plan         SelectionPlan
		// prep is the shared preparation; nil prepares the plan's own
		// filters when it opens.
		prep       *selPrep
		est        plan.Cost
		accuracy   float64
		gated      bool
		infeasible string
	}{
		{name: "selection-all-filters", detail: "full cascade: spatial ROI, temporal step, content filters, then label filter (§8)",
			plan: allPlan, prep: prep, est: prep.estimate(allStages, visited), accuracy: selectionAccuracy},
		{name: "selection-label-first", detail: "full cascade with the label filter ahead of the content filters",
			plan: lfPlan, prep: prep, est: prep.estimate(lfStages, visited), accuracy: selectionAccuracy, infeasible: lfWhy},
		{name: "selection-naive", detail: "reference detector on every frame, no filters",
			plan: NaivePlan(), est: plan.Cost{DetectorCalls: span, DetectorSeconds: span * full}, accuracy: exactAccuracy},
		{name: "selection-noscope-oracle", detail: "detector on exactly the frames the presence oracle marks occupied (§10.1.1)",
			plan: SelectionPlan{NoScopeOracle: true}, est: plan.Cost{DetectorCalls: occupied, DetectorSeconds: occupied * full},
			accuracy: selectionAccuracy, gated: true},
	} {
		desc := selDesc(c.name, c.detail)
		if c.infeasible != "" {
			cands = append(cands, infeasible(desc, c.infeasible))
			continue
		}
		cands = append(cands, candidate{
			Plan: &costedPlan{desc: desc, est: c.est, open: func() (execution, error) {
				x, err := e.newSelectionExec(info, c.plan, c.prep, par)
				if err != nil {
					return nil, err
				}
				return x, nil
			}},
			// Never UpperBoundOnly, even under LIMIT: the selection scan
			// visits every frame and applies LIMIT/GAP on the merged rows,
			// so the full-scan estimate is what a run actually costs.
			MarginalSeconds: c.est.DetectorSeconds + c.est.FilterSeconds,
			Accuracy:        c.accuracy,
			Gated:           c.gated,
		})
	}
	if info.Limit >= 0 {
		cands = append(cands, e.densitySelectionCand(info, prep, par))
	}
	return cands, nil
}

// trainSelection is the work behind one selection shape in the prepared
// store: content predicates become frame-level threshold filters, the
// class predicate the specialized-network label filter (no held-out
// segment: no label stage), and the trained cascade's joint pass rates are
// measured on a strided sample of the held-out day — cheap planning work
// charged to nobody, like every held-out statistic. With a held-out segment
// every signal is read from its columns, the bits descriptors and the
// network would give.
func (e *Engine) trainSelection(target filters.Target, useContent bool, model *specnn.CountModel, segHeld *index.Segment) *selProducts {
	prod := &selProducts{Rates: filters.CascadeRates{Content: 1, Joint: 1}}
	var cols filters.Columns
	if segHeld != nil {
		cols = segHeld
	}
	if useContent {
		for _, pred := range target.Preds {
			if pred.Arg != "content" {
				continue
			}
			if cf := filters.TrainContentFilter(e.HeldOut, e.DHeld, target, pred, e.opts.HeldOutSample, cols); cf != nil {
				prod.Content = append(prod.Content, cf)
			}
		}
	}
	if segHeld != nil {
		prod.Label = filters.TrainLabelFilter(e.HeldOut, e.DHeld, model, segHeld.Inference(), target, e.opts.HeldOutSample)
	}
	if len(prod.Content) > 0 || prod.Label != nil {
		prod.Rates = filters.MeasureCascade(e.HeldOut, prod.Content, prod.Label, cols, e.opts.HeldOutSample)
	}
	return prod
}

// selStage is one stage of the §8 filter cascade as a scan runs it: the
// cascade is this ordered list and nothing else, so pricing, evaluation,
// the charge replay and zone skipping cannot disagree about the order.
type selStage struct {
	// kind selects the pass test a frame reaching the stage takes.
	kind selStageKind
	// charges is what a frame reaching the stage pays, in the exact order a
	// serial scan adds them to the meter.
	charges []float64
	// price holds the same seconds as the estimate multiplies them: one
	// product per term (the label-first order prices extraction plus
	// inference as a single per-frame cost).
	price []float64
	// conj is the stage's zone conjunct — the sketch that can refute a whole
	// chunk for it — or nil when the index holds none for the stage.
	conj []index.Conjunct
}

type selStageKind uint8

const (
	// stageContent passes frames whose content signals clear every content
	// filter, read from the segment's signal columns when there is one and
	// computed from the raw descriptor otherwise (the same bits).
	stageContent selStageKind = iota
	// stageLabel passes frames whose presence tail P(class >= 1) reaches the
	// label threshold, read from the segment's exact column when there is
	// one and from the network otherwise (the same bits).
	stageLabel
	// stageOracle passes frames the free presence oracle of §10.1.1 marks
	// occupied.
	stageOracle
)

// stages orders the cascade a filter plan runs over this preparation — the
// one place the order is decided. It also returns the segment the stages
// read their columns from: nil when there is no label stage or no segment,
// and the stages synthesize descriptors (and the label stage runs the
// network) per frame.
func (p *selPrep) stages(selPlan SelectionPlan) ([]selStage, *index.Segment) {
	const extract, infer = feature.CostSeconds, specnn.InferenceCostSeconds
	if selPlan.NoScopeOracle {
		// Oracle knowledge is free and replaces every filter.
		return []selStage{{kind: stageOracle}}, nil
	}
	content := selStage{kind: stageContent, charges: []float64{extract}, price: []float64{extract}}
	label := selStage{kind: stageLabel, charges: []float64{extract, infer}, price: []float64{extract, infer}}
	hasContent, hasLabel := len(p.contentFilters) > 0, p.labelFilter != nil
	if hasLabel {
		label.conj = []index.Conjunct{{Head: p.labelFilter.Head, Threshold: p.labelFilter.Threshold, Tail1: true}}
	}
	switch {
	case hasContent && hasLabel && selPlan.LabelFirst:
		// Every visited frame pays extraction and inference; the content
		// checks on survivors reuse the extracted descriptor.
		label.price = []float64{extract + infer}
		content.charges, content.price = nil, nil
		return []selStage{label, content}, p.seg
	case hasContent && hasLabel:
		// The content stage has paid for the descriptor.
		label.charges, label.price = []float64{infer}, []float64{infer}
		return []selStage{content, label}, p.seg
	case hasContent:
		return []selStage{content}, nil
	case hasLabel:
		return []selStage{label}, p.seg
	}
	return nil, nil
}

// estimate prices a cascade of this preparation over visited frames: each
// stage charges its per-frame price to the frames surviving the stages
// before it (survival measured jointly on the held-out day, since the
// filters correlate), and the detector runs on what survives the whole
// cascade. Duration-probe detector calls are not modeled; the candidate's
// accuracy factor absorbs them.
func (p *selPrep) estimate(stages []selStage, visited int) plan.Cost {
	est := plan.Cost{}
	for _, c := range p.charges {
		est.TrainSeconds += c.train
	}
	v := float64(visited)
	reach := v
	for i, st := range stages {
		for _, c := range st.price {
			est.FilterSeconds += reach * c
		}
		switch {
		case i == len(stages)-1:
			reach = v * p.rates.Joint
		case st.kind == stageContent:
			reach = v * p.rates.Content
		}
		// Survival of a leading label stage alone is not measured, and the
		// content stage behind it prices nothing.
	}
	est.DetectorCalls = reach
	est.DetectorSeconds = reach * p.detCost
	return est
}

// trackAgg accumulates one track's state during selection; it is also the
// track's form in a suspended scan's cursor.
type trackAgg struct {
	ID         int        `json:"id"`
	FirstMatch int        `json:"first_match"`
	LastMatch  int        `json:"last_match"`
	FirstBox   vidsim.Box `json:"first_box"`
	LastBox    vidsim.Box `json:"last_box"`
	TruthID    int        `json:"truth_id"`
	Rows       []Row      `json:"rows,omitempty"`
}

// ExecuteSelectionPlan runs a selection query under an explicit filter
// plan at the engine's configured parallelism.
func (e *Engine) ExecuteSelectionPlan(info *frameql.Info, plan SelectionPlan) (*Result, error) {
	return e.pin().executeSelectionPlan(info, plan, e.effectiveParallelism(0))
}

// selArena is the per-shard product of the selection scan: per visited
// frame, how many cascade stages it passed (all of them: it reached the
// detector) with its zone-skip accounting in the zoneMark bits — a
// zone-skipped frame passed none, exactly like a rejection by stage 0, which
// is what the charge replay reads — plus the target-class detections (and
// their object-predicate verdicts) of the frames that were detected.
type selArena struct {
	detArena
	flags []uint8
}

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
	rates          filters.CascadeRates
	presence       []int32
	charges        []selCharge
	// seg is the test day's materialized index segment when one already
	// exists (built by an earlier query, a background build, or loaded
	// from a warm index directory) — the label filter then reads its
	// exact presence-tail column instead of running the network per
	// frame, the content filters its signal columns instead of
	// synthesizing descriptors, and zone maps skip chunks that cannot
	// pass. Reads are bit-identical to the on-the-fly Evaluator, so
	// presence or absence of the segment changes wall-clock only; nil
	// falls back to the Evaluator. Selection never *builds* the segment:
	// the cascade's simulated charges are per-visited-frame, and
	// triggering a whole-day inference here would change the cost
	// accounting.
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

// executeSelectionPlan runs a selection query under an explicit filter
// plan with its own preparation — the direct path the lesion-study
// benchmarks use.
func (e *Engine) executeSelectionPlan(info *frameql.Info, selPlan SelectionPlan, par int) (*Result, error) {
	x, err := e.newSelectionExec(info, selPlan, nil, par)
	if err == nil {
		err = x.RunTo(-1)
	}
	if err != nil {
		return nil, err
	}
	return x.Result()
}

// selectionState is the serializable suspension of a selection scan:
// frame position, tracker state, the per-track aggregates (sorted by
// track ID), and the partial cost meter with its preparation charges.
// Duration probing, row ordering, and LIMIT/GAP are not part of the scan
// state: they are finalization, re-derived from the aggregates each time
// a result is read, so a standing query's answer always reflects probing
// against the current horizon — exactly like a fresh query's.
type selectionState struct {
	Pos     int         `json:"pos"`
	Tracker track.State `json:"tracker"`
	Tracks  []trackAgg  `json:"tracks,omitempty"`
	Stats   Stats       `json:"stats"`
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
	e    *Engine
	info *frameql.Info
	prep *selPrep
	// stages is the cascade (selPrep.stages); seg the segment its label
	// stage reads, nil when that stage runs the network.
	stages  []selStage
	seg     *index.Segment
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
	k := &selectionKernel{e: e, info: info, prep: prep, lo: lo,
		tracker: track.New(cutoff, 2*prep.step), tracks: make(map[int]*trackAgg)}
	k.stages, k.seg = prep.stages(selPlan)
	return k
}

// newSelectionExec opens the scan of one filter plan over prep, the
// preparation planning shares between the cascade orders; a nil prep
// prepares the plan's own filters first (an explicit plan, the filterless
// scan and the oracle, whose filters are not the shared ones).
func (e *Engine) newSelectionExec(info *frameql.Info, selPlan SelectionPlan, prep *selPrep, par int) (*scanExec[*selArena], error) {
	if prep == nil {
		var err error
		if prep, err = e.selectionPrep(info, selPlan, &prepUse{family: info.Kind.String()}); err != nil {
			return nil, err
		}
	}
	lo, hi := e.frameRange(info)
	x := newScan(e.exec, info.Kind.String(), planName(selPlan), par, (hi-lo+prep.step-1)/prep.step, false,
		e.newSelectionKernel(info, selPlan, prep, lo))
	prep.charge(&x.stats)
	return x, nil
}

// selFrames is one produce call's view of the frames its stages test: the
// evaluator, made on first use and positioned once per frame however many
// stages read it — only a scan holding no segment makes one — and the
// current chunk's column reads.
type selFrames struct {
	k  *selectionKernel
	ev *specnn.Evaluator
	at int
	// colLo is the first frame of the current chunk's column reads. t1col
	// is the segment's presence-tail column; nil selects the per-frame
	// accessor (the same float64 storage), which stays selectable for the
	// equivalence suite. signals holds each content filter's signal column,
	// nil when the scan holds no segment.
	colLo   int
	t1col   []float64
	signals [][]float64
}

func (r *selFrames) seek(f int) *specnn.Evaluator {
	if r.ev == nil {
		r.ev, r.at = specnn.NewEvaluator(r.k.prep.model, r.k.e.Test), -1
	}
	if r.at != f {
		r.ev.Seek(f)
		r.at = f
	}
	return r.ev
}

// pass is the stage's test of frame f.
func (r *selFrames) pass(st *selStage, f int) bool {
	prep := r.k.prep
	switch st.kind {
	case stageContent:
		for i, cf := range prep.contentFilters {
			var signal float64
			if r.signals != nil {
				signal = r.signals[i][f-r.colLo]
			} else {
				signal = cf.Signal(r.seek(f).Raw())
			}
			if !cf.Admits(signal) {
				return false
			}
		}
		return true
	case stageLabel:
		lf := prep.labelFilter
		switch {
		case r.t1col != nil:
			return r.t1col[f-r.colLo] >= lf.Threshold
		case r.k.seg != nil:
			return r.k.seg.Tail1(lf.Head, f) >= lf.Threshold
		}
		return r.seek(f).TailProb(lf.Head, 1) >= lf.Threshold
	}
	return prep.presence[f] > 0
}

func (k *selectionKernel) produce(sLo, sHi int) *selArena {
	prep, stages := k.prep, k.stages
	a := &selArena{flags: make([]uint8, 0, sHi-sLo)}
	a.ends = make([]int32, 0, sHi-sLo)
	r := selFrames{k: k}
	c := k.e.DTest.NewCounter()
	var scratch []detect.Detection
	// A chunk is skipped only where the stage the zone map refutes is the
	// first that would touch its frames: the skip then elides real work
	// without changing what the merge replays charges from, and the consult
	// is the one the density schedule prunes with, so the two refute
	// identical chunk sets.
	var conj []index.Conjunct
	if len(stages) > 0 {
		conj = stages[0].conj
	}
	zoneWalk(k.seg, conj, k.lo, prep.step, sLo, sHi,
		func(_ int, z zoneMark) {
			a.flags = append(a.flags, uint8(z))
			a.ends = append(a.ends, int32(len(a.dets)))
		},
		func(chunk, i, iEnd int) bool {
			if chunk >= 0 {
				// A segment is held (zoneWalk passes chunk -1 otherwise),
				// so the cascade reads columns, never descriptors.
				r.colLo = chunk * index.ChunkFrames
				colHi := min(r.colLo+index.ChunkFrames, k.seg.Frames())
				if vectorScanEnabled {
					r.t1col = k.seg.Tail1Range(prep.labelFilter.Head, r.colLo, colHi)
				}
				r.signals = r.signals[:0]
				for _, cf := range prep.contentFilters {
					r.signals = append(r.signals, k.seg.SignalRange(cf.Column, r.colLo, colHi))
				}
			}
			for ; i < iEnd; i++ {
				f := k.lo + i*prep.step
				passed := 0
				for passed < len(stages) && r.pass(&stages[passed], f) {
					passed++
				}
				if passed == len(stages) {
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
							return false
						}
						a.matched = append(a.matched, ok)
					}
				}
				a.flags = append(a.flags, uint8(passed))
				a.ends = append(a.ends, int32(len(a.dets)))
			}
			return true
		})
	return a
}

func (k *selectionKernel) merge(m *Stats, fold bool, blo, bhi, off0 int, a *selArena) (int, int, bool, error) {
	hits := 0
	for i := blo; i < bhi; i++ {
		if a.err != nil {
			return i - blo + 1, hits, false, a.err
		}
		off := off0 + (i - blo)
		f := k.lo + i*k.prep.step
		z := zoneMark(a.flags[off])
		passed := int(z &^ (zoneSkipped | zoneChunkFirst))
		if m != nil {
			z.count(m)
			// Replay the filter charges exactly as a serial scan interleaves
			// them: a frame pays every stage it reached.
			for s := 0; s <= passed && s < len(k.stages); s++ {
				for _, c := range k.stages[s].charges {
					m.FilterSeconds += c
				}
			}
		}
		if passed < len(k.stages) {
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
				ta = &trackAgg{ID: id, FirstMatch: f, FirstBox: d.Box, TruthID: d.TruthID()}
				k.tracks[id] = ta
			}
			ta.LastMatch = f
			ta.LastBox = d.Box
			ta.Rows = append(ta.Rows, Row{
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
		st.Tracks = append(st.Tracks, *k.tracks[id])
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
	for i := range st.Tracks {
		k.tracks[st.Tracks[i].ID] = &st.Tracks[i]
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
			span := ta.LastMatch - ta.FirstMatch + 1
			if span >= minDur {
				qualified = true
			} else if prep.step > 1 {
				qualified = e.probeDuration(ta, prep.target, prep.roi, prep.detCost, minDur, lo, hi, &res.Stats)
			}
		}
		if qualified {
			res.TrackIDs = append(res.TrackIDs, id)
			res.Rows = append(res.Rows, ta.Rows...)
			res.evalTruthIDs = append(res.evalTruthIDs, ta.TruthID)
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
			if span := ta.LastMatch - ta.FirstMatch + 1; span < minDur {
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
			rows = append(rows, ta.Rows...)
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
		res.evalTruthIDs = append(res.evalTruthIDs, k.tracks[id].TruthID)
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
	first, last := ta.FirstMatch, ta.LastMatch
	firstBox, lastBox := ta.FirstBox, ta.LastBox
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
