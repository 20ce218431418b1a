package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"sort"

	"repro/internal/frameql"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/vidsim"
)

// This file is the planner's feedback loop: a per-(family, plan)
// calibration store that turns observed actual-vs-estimate cost ratios
// from executed PlanReports into multiplicative correction factors, a
// per-family sliding window of estimate errors (what /statz and the
// drift detector read), and the drift test Advance runs for standing
// queries. Calibration is answer-neutral by construction — it rescales
// the marginal estimates Choose compares, never the plans themselves, and
// every candidate is already pinned bit-identical — so the only thing it
// can change is which candidate a cost-based pick runs.

const (
	// calibWindow is how many recent actual/estimate ratios each
	// (family, plan) entry keeps; the correction factor is their median,
	// so a single outlier execution cannot swing the pick.
	calibWindow = 16
	// calibMinObs is how many executions a (family, plan) pair must have
	// fed back before its correction activates — and before a gated
	// density candidate graduates to cost-chosen. Below it the planner
	// prices with the raw estimate, reproducing the uncalibrated picks
	// exactly (the cold-store regression contract).
	calibMinObs = 3
	// driftWindow is the per-family sliding window length (in executed
	// reports) of relative estimate errors.
	driftWindow = 32
	// driftChunks is how many trailing index chunks the live-window
	// presence re-measurement covers when Advance checks a standing
	// query's stream for selectivity drift.
	driftChunks = 32
	// presenceDriftFactor is the multiplicative band the live-window
	// presence may move within (relative to the held-out presence the
	// estimates were priced from) before Advance schedules a re-plan.
	presenceDriftFactor = 2.0
	// minCorrection floors corrections for upper-bound-only estimates,
	// whose actuals may legitimately fall far below the estimate
	// (early-exit LIMIT scans).
	minCorrection = 0.01
)

// calibEntry accumulates one (family, plan) pair's observed
// actual/estimate cost ratios in a fixed-size ring.
type calibEntry struct {
	ratios []float64
	next   int
	count  uint64
}

func (c *calibEntry) add(r float64) {
	if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
		return
	}
	if len(c.ratios) < calibWindow {
		c.ratios = append(c.ratios, r)
	} else {
		c.ratios[c.next] = r
		c.next = (c.next + 1) % calibWindow
	}
	c.count++
}

// median returns the windowed median ratio (1 with an empty window).
func (c *calibEntry) median() float64 {
	if len(c.ratios) == 0 {
		return 1
	}
	s := append([]float64(nil), c.ratios...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// errWindow is a per-family sliding window of relative estimate errors —
// the recent-history view behind the lifetime-cumulative mean /statz
// always had.
type errWindow struct {
	vals  []float64
	next  int
	count uint64
}

func (w *errWindow) add(v float64) {
	if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	if len(w.vals) < driftWindow {
		w.vals = append(w.vals, v)
	} else {
		w.vals[w.next] = v
		w.next = (w.next + 1) % driftWindow
	}
	w.count++
}

func (w *errWindow) mean() float64 {
	if len(w.vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range w.vals {
		sum += v
	}
	return sum / float64(len(w.vals))
}

func calibKey(family, planName string) string { return family + "|" + planName }

// observe feeds one executed report into the calibration store and the
// family's error window. Forced executions feed both: calibration learns
// from every execution (hint-forced density runs are exactly how the
// gated candidate warms up), and the drift detector must see standing
// queries, which resume by forcing their pinned plan. Callers hold p.mu.
func (p *plannerState) observe(rep *plan.Report) {
	if rep.ActualSeconds <= 0 {
		return
	}
	if rep.Chosen != "" && rep.EstimateSeconds > 0 {
		key := calibKey(rep.Family, rep.Chosen)
		ent := p.calib[key]
		if ent == nil {
			ent = &calibEntry{}
			p.calib[key] = ent
		}
		ent.add(rep.ActualSeconds / rep.EstimateSeconds)
	}
	base := rep.CalibratedSeconds
	if base <= 0 {
		base = rep.EstimateSeconds
	}
	if base > 0 {
		w := p.famErr[rep.Family]
		if w == nil {
			w = &errWindow{}
			p.famErr[rep.Family] = w
		}
		w.add(math.Abs(rep.ActualSeconds-base) / base)
	}
}

// clampCorrection bounds a raw windowed-median ratio to the candidate's
// claimed accuracy band: the estimate already promises the actual within
// [est/acc, est*acc], so a correction outside that band says more about
// pooled-workload noise than about the candidate. Upper-bound-only
// estimates (early-exit LIMIT scans) may legitimately observe actuals far
// below the estimate, so their lower clamp is the global floor instead.
func clampCorrection(r, acc float64, upperBoundOnly bool) float64 {
	if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
		return 1
	}
	if acc <= 1 {
		acc = exactAccuracy
	}
	lo := 1 / acc
	if upperBoundOnly {
		lo = minCorrection
	}
	if r < lo {
		return lo
	}
	if r > acc {
		return acc
	}
	return r
}

// applyCalibration rescales every feasible candidate's marginal estimate
// by its fitted correction factor, recording the raw marginal and the
// factor for the report table, and graduates density candidates whose
// calibration has warmed past calibMinObs observations (removing their
// gate so the cost-based pick may choose them). A cold store leaves every
// candidate untouched — factor 1, gate intact — reproducing the
// uncalibrated planner exactly.
func (e *Engine) applyCalibration(family string, cands []candidate) {
	p := e.planner
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range cands {
		c := &cands[i]
		if c.Plan == nil || c.Infeasible != "" {
			continue
		}
		c.RawMarginal = c.MarginalSeconds
		c.Correction = 1
		ent := p.calib[calibKey(family, c.Plan.Describe().Name)]
		var obs uint64
		if ent != nil {
			obs = ent.count
		}
		if obs >= calibMinObs {
			c.Correction = clampCorrection(ent.median(), c.Accuracy, c.UpperBoundOnly)
			c.MarginalSeconds = c.RawMarginal * c.Correction
		}
		if c.Gated && c.GateReason == densityGateReason {
			if obs >= calibMinObs {
				c.Gated = false
				c.GateReason = ""
			} else {
				c.GateReason = fmt.Sprintf("%s (calibration warmup: %d/%d observed executions)",
					densityGateReason, obs, calibMinObs)
			}
		}
	}
}

// WindowErrorStat is one family's sliding-window estimate-error summary,
// in the form stats pages report it.
type WindowErrorStat struct {
	// MeanError is the mean relative |actual−calibrated|/calibrated error
	// over the window.
	MeanError float64 `json:"mean_error"`
	// Samples is how many of the window's slots are filled.
	Samples int `json:"samples"`
	// Lifetime counts every observation ever fed to the window.
	Lifetime uint64 `json:"lifetime"`
}

// --- persistence ---

// calibEntryWire is the gob form of one calibration entry. The ring is
// flattened to insertion order so a reloaded entry replays identically.
type calibEntryWire struct {
	Ratios []float64
	Count  uint64
}

// calibBlob is the gob wire form of the calibration store.
type calibBlob struct {
	Entries map[string]calibEntryWire
}

// ordered returns the ring's ratios oldest-first.
func (c *calibEntry) ordered() []float64 {
	if len(c.ratios) < calibWindow {
		return append([]float64(nil), c.ratios...)
	}
	out := make([]float64, 0, calibWindow)
	out = append(out, c.ratios[c.next:]...)
	out = append(out, c.ratios[:c.next]...)
	return out
}

// saveCalibration persists the calibration store into the index tier,
// alongside the held-out summaries, so warm restarts keep their learning.
func (e *Engine) saveCalibration() error {
	p := e.planner
	p.mu.Lock()
	blob := calibBlob{Entries: make(map[string]calibEntryWire, len(p.calib))}
	for k, ent := range p.calib {
		blob.Entries[k] = calibEntryWire{Ratios: ent.ordered(), Count: ent.count}
	}
	p.mu.Unlock()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(blob); err != nil {
		return err
	}
	return e.idx.SaveCalibration(buf.Bytes())
}

// loadCalibration seeds the calibration store from a persisted snapshot,
// if the index tier holds a valid one. Unlike the held-out summaries,
// calibration is learned state rather than a derivable cache — but it is
// still answer-neutral: it can only change which candidate a cost-based
// pick runs, and every candidate is pinned bit-identical.
func (e *Engine) loadCalibration() {
	data, ok := e.idx.LoadCalibration()
	if !ok {
		return
	}
	var blob calibBlob
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&blob); err != nil {
		return
	}
	p := e.planner
	p.mu.Lock()
	defer p.mu.Unlock()
	for k, w := range blob.Entries {
		ent := &calibEntry{}
		for _, r := range w.Ratios {
			ent.add(r)
		}
		ent.count = w.Count
		p.calib[k] = ent
	}
}

// --- drift detection ---

// replanBoundary returns the next chunk-aligned horizon strictly beyond
// the given one: the deterministic epoch boundary a drift-triggered
// re-plan is deferred to.
func replanBoundary(horizon int) int {
	return (horizon/index.ChunkFrames + 1) * index.ChunkFrames
}

// liveWindowPresence re-measures a class's presence rate over the last
// driftChunks chunks of its pinned index segment — the sliding window of
// live frames the drift detector compares against the held-out presence
// candidate pricing used. It is a pure function of the pinned zone maps,
// so every view of the same snapshot agrees.
func (e *Engine) liveWindowPresence(class vidsim.Class) (float64, bool) {
	seg := e.idx.PeekSegment([]vidsim.Class{class}, e.Test)
	if seg == nil {
		return 0, false
	}
	pin := seg.At(e.Test)
	h := pin.Model().HeadIndex(class)
	if h < 0 {
		return 0, false
	}
	n := pin.Chunks()
	lo := n - driftChunks
	if lo < 0 {
		lo = 0
	}
	heads := []int{h}
	frames, hits := 0, 0
	for ci := lo; ci < n; ci++ {
		hits += pin.DensityAt(ci, heads)
		frames += pin.Zone(ci).Frames
	}
	if frames == 0 {
		return 0, false
	}
	return float64(hits) / float64(frames), true
}

// detectDrift decides whether a just-advanced standing query's world has
// moved enough that its pinned plan should be re-priced: either the
// execution's actual cost fell outside the calibrated estimate's claimed
// accuracy band, or the live window's re-measured presence has left the
// band around the held-out presence the estimate was priced from. Only
// live engines drift — a full-day stream cannot change under a cursor.
func (e *Engine) detectDrift(info *frameql.Info, chosen *candidate, rep *plan.Report) bool {
	if !e.Live() {
		return false
	}
	if calEst := rep.CalibratedSeconds; calEst > 0 && rep.ActualSeconds > 0 {
		acc := chosen.Accuracy
		if acc <= 1 {
			acc = exactAccuracy
		}
		if rep.ActualSeconds > calEst*acc {
			return true
		}
		if !chosen.UpperBoundOnly && rep.ActualSeconds*acc < calEst {
			return true
		}
	}
	u := &prepUse{family: info.Kind.String()}
	for _, c := range info.Classes {
		class := vidsim.Class(c)
		held := e.baseStats(u, class).Presence
		live, ok := e.liveWindowPresence(class)
		if !ok || held <= 0 {
			continue
		}
		if live > held*presenceDriftFactor || live*presenceDriftFactor < held {
			return true
		}
	}
	return false
}
