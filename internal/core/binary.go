package core

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/frameql"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/vidsim"
)

// enumerateBinary produces the binary-detection candidate set (paper §4's
// FNR WITHIN / FPR WITHIN queries): the NoScope-style cascade versus the
// exact scan. The cascade's verification need is priced by measuring, on
// the held-out day, how many frames score inside the uncertain band
// between the cascade thresholds.
func (e *Engine) enumerateBinary(info *frameql.Info, par int, u *prepUse) ([]candidate, error) {
	class := vidsim.Class(info.Classes[0])
	fnrBudget, fprBudget := 0.0, 0.0
	if info.FNRWithin != nil {
		fnrBudget = *info.FNRWithin
	}
	if info.FPRWithin != nil {
		fprBudget = *info.FPRWithin
	}
	lo, hi := e.frameRange(info)
	span := hi - lo
	full := e.DTest.FullFrameCost()

	exactEst := plan.Cost{DetectorCalls: float64(span), DetectorSeconds: float64(span) * full}
	cascadeDesc := plan.Description{
		Name:   "binary-cascade",
		Family: frameql.KindBinary.String(),
		Detail: "specialized-network cascade; detector verifies only the uncertain score band",
	}

	model, trainCost, modelErr := e.Model([]vidsim.Class{class})
	if modelErr != nil {
		// No specialization possible: the exact plan (detector everywhere)
		// trivially satisfies any budget.
		exactPlan := &costedPlan{
			desc:  binaryExactDesc(),
			est:   exactEst,
			notes: []string{fmt.Sprintf("specialization unavailable (%v); exact scan", modelErr)},
			open: func() (execution, error) {
				return e.newBinaryExec(info, class, nil, par), nil
			},
		}
		cands := []candidate{
			infeasible(cascadeDesc, fmt.Sprintf("specialization unavailable: %v", modelErr)),
			binaryExactCand(exactPlan, info),
		}
		if info.Limit >= 0 {
			cands = append(cands, infeasible(densityDesc(frameql.KindBinary.String()),
				fmt.Sprintf("specialization unavailable: %v", modelErr)))
		}
		return cands, nil
	}
	head := model.HeadIndex(class)

	segHeld, heldCost, err := e.segment([]vidsim.Class{class}, e.HeldOut)
	if err != nil {
		return nil, err
	}
	infHeld := segHeld.Inference()
	th, err := prepared(e, u, e.shapeKey("binary", model, heldModelFP(e, segHeld), class, fnrBudget, fprBudget), func() (*binaryBand, error) {
		th := &binaryBand{}
		th.LowT, th.HighT = e.binaryThresholds(infHeld, head, class, fnrBudget, fprBudget)
		// Uncertain-band fraction on the held-out day prices the cascade's
		// verification volume; detector labels there are offline.
		band := 0
		for f := 0; f < infHeld.Frames(); f++ {
			if s := infHeld.TailProb(head, f, 1); s >= th.LowT && s < th.HighT {
				band++
			}
		}
		if infHeld.Frames() > 0 {
			th.BandFrac = float64(band) / float64(infHeld.Frames())
		}
		return th, nil
	})
	if err != nil {
		return nil, err
	}
	segTest, infCost, err := e.segment([]vidsim.Class{class}, e.Test)
	if err != nil {
		return nil, err
	}
	verifyEst := th.BandFrac * float64(span)
	prep := binaryPrep{trainCost: trainCost, heldCost: heldCost, infCost: infCost,
		lowT: th.LowT, highT: th.HighT, seg: segTest, head: head}
	cascadePlan := &costedPlan{
		desc: cascadeDesc,
		est: plan.Cost{
			TrainSeconds:    trainCost + heldCost,
			SpecNNSeconds:   infCost,
			DetectorCalls:   verifyEst,
			DetectorSeconds: verifyEst * full,
		},
		open: func() (execution, error) {
			return e.newBinaryExec(info, class, &prep, par), nil
		},
	}
	cascadeCand := candidate{
		Plan: cascadePlan,
		// Whole-day scoring is index investment (the paper's indexed
		// accounting); the marginal cost is uncertain-band verification.
		MarginalSeconds: verifyEst * full,
		Accuracy:        binaryAccuracy,
	}
	exactPlan := &costedPlan{
		desc: binaryExactDesc(),
		est:  exactEst,
		open: func() (execution, error) {
			return e.newBinaryExec(info, class, nil, par), nil
		},
	}
	cands := []candidate{cascadeCand, binaryExactCand(exactPlan, info)}
	if info.Limit >= 0 {
		cands = append(cands, e.densityBinaryCand(info, class, &prep, th.BandFrac, par))
	}
	return cands, nil
}

func binaryExactDesc() plan.Description {
	return plan.Description{
		Name:   "binary-exact",
		Family: frameql.KindBinary.String(),
		Detail: "reference detector on every frame in range",
	}
}

func binaryExactCand(p *costedPlan, info *frameql.Info) candidate {
	return candidate{
		Plan:            p,
		MarginalSeconds: p.est.DetectorSeconds,
		Accuracy:        exactAccuracy,
		UpperBoundOnly:  info.Limit >= 0,
	}
}

// binaryPrep carries the cascade's enumeration products: per-call index
// charges, the held-out-chosen thresholds, and the test-day segment
// (columns plus zone maps).
type binaryPrep struct {
	trainCost float64
	heldCost  float64
	infCost   float64
	lowT      float64
	highT     float64
	seg       *index.Segment
	head      int
}

// charge replays the cascade's preparation charges onto a cost meter.
func (p *binaryPrep) charge(st *Stats) {
	st.TrainSeconds += p.trainCost
	st.TrainSeconds += p.heldCost
	st.note("cascade thresholds: reject < %.4f, accept >= %.4f", p.lowT, p.highT)
	st.SpecNNSeconds += p.infCost
}

// binaryScanState is the serializable suspension of a binary-detection
// scan: frame position, LIMIT/GAP progress, the uncertain-band
// verification count (for the cascade's closing note), and the partial
// cost meter with its prep charges.
type binaryScanState struct {
	Pos          int   `json:"pos"`
	Finished     bool  `json:"finished"`
	LastReturned int   `json:"last_returned"`
	Verified     int   `json:"verified"`
	Frames       []int `json:"frames,omitempty"`
	Stats        Stats `json:"stats"`
}

// binaryKernel is both binary-detection plans. With a prep it is the
// cascade: every frame is scored with the specialized network, accepted
// above the high threshold, rejected below the low one, and the uncertain
// band goes to the reference detector. Without one it is the exact plan:
// the detector verifies every frame. The decision per frame is pure and
// fans out; GAP/LIMIT bookkeeping and cost charging replay serially per
// frame in the merge. A grown live stream continues over the new suffix
// with the same held-out-chosen thresholds (ingest extends the segment
// first, so scores cover the new horizon).
//
// Zone-map skipping: a chunk whose maximum presence tail is below the
// reject threshold cannot contain a verified or accepted frame — every
// frame in it is rejected unverified, which charges nothing and emits
// nothing. Such chunk ranges are skipped without reading per-frame
// scores; the zero-valued verdicts stand in for the rejections, so the
// answer and the simulated meter are bit-identical to the full scan.
type binaryKernel struct {
	e        *Engine
	info     *frameql.Info
	class    vidsim.Class
	prep     *binaryPrep
	lo       int
	fullCost float64
	last     int
	verified int
	frames   []int
}

// newBinaryKernel builds the kernel over frames lo, lo+1, …; a nil prep
// selects the exact plan.
func (e *Engine) newBinaryKernel(info *frameql.Info, class vidsim.Class, prep *binaryPrep, lo int) *binaryKernel {
	return &binaryKernel{e: e, info: info, class: class, prep: prep, lo: lo,
		fullCost: e.DTest.FullFrameCost(), last: -1 << 40}
}

// newBinaryExec opens the temporal scan of either binary plan, replaying
// the cascade's preparation charges when there is one.
func (e *Engine) newBinaryExec(info *frameql.Info, class vidsim.Class, prep *binaryPrep, par int) *scanExec[[]binVerdict] {
	lo, hi := e.frameRange(info)
	name := "binary-exact"
	if prep != nil {
		name = "binary-cascade"
	}
	x := newScan(e.exec, info.Kind.String(), name, par, hi-lo, info.Limit >= 0,
		e.newBinaryKernel(info, class, prep, lo))
	if prep != nil {
		prep.charge(&x.stats)
	}
	return x
}

type binVerdict struct {
	positive bool
	verified bool
	zone     zoneMark
}

// conjunction is the cascade's reject threshold expressed as a
// conjunction: the temporal zone consult routes through the same kernel
// the density schedule prunes with, so the two refute identical chunk
// sets.
func (p *binaryPrep) conjunction() []index.Conjunct {
	return []index.Conjunct{{Head: p.head, N: 1, Threshold: p.lowT}}
}

func (k *binaryKernel) produce(lo, hi int) []binVerdict {
	verdicts := make([]binVerdict, hi-lo)
	if k.prep == nil {
		for i, n := range k.e.detectorCounts(k.class, k.lo+lo, k.lo+hi) {
			verdicts[i] = binVerdict{verified: true, positive: n > 0}
		}
		return verdicts
	}
	c := k.e.DTest.NewCounter()
	// A refuted chunk's frames are rejected unverified, proven by the zone
	// map (its scores are never decoded); surviving ranges are scored in
	// batch against the columnar distribution (ScoreTail reproduces the
	// per-frame accessor bit for bit; the per-frame reference path stays
	// selectable for the equivalence suite).
	seg, head := k.prep.seg, k.prep.head
	vector := vectorScanEnabled
	var scores []float64
	zoneWalk(seg, k.prep.conjunction(), k.lo, 1, lo, hi,
		func(i int, z zoneMark) { verdicts[i-lo].zone = z },
		func(_, i, iEnd int) bool {
			if vector {
				if cap(scores) < iEnd-i {
					scores = make([]float64, iEnd-i)
				}
				scores = scores[:iEnd-i]
				seg.ScoreTail(head, 1, k.lo+i, k.lo+iEnd, scores)
			}
			for ; i < iEnd; i++ {
				v := &verdicts[i-lo]
				var score float64
				if vector {
					score = scores[len(scores)-(iEnd-i)]
				} else {
					score = seg.Inference().TailProb(head, k.lo+i, 1)
				}
				switch {
				case score < k.prep.lowT:
					// rejected unverified
				case score >= k.prep.highT:
					v.positive = true
				default:
					v.verified = true
					v.positive = c.CountAt(k.lo+i, k.class) > 0
				}
			}
			return true
		})
	return verdicts
}

func (k *binaryKernel) merge(m *Stats, fold bool, blo, bhi, off0 int, verdicts []binVerdict) (int, int, bool, error) {
	limit, gap := k.info.Limit, k.info.Gap
	hits := 0
	for i := blo; i < bhi; i++ {
		v := verdicts[off0+(i-blo)]
		if m != nil {
			v.zone.count(m)
			if v.verified {
				m.addDetection(k.fullCost)
				if k.prep != nil {
					// Counts uncertain-band verifications; the exact plan
					// has no band.
					k.verified++
				}
			}
		}
		if !v.positive {
			continue
		}
		hits++
		f := k.lo + i
		if !fold || gap > 0 && f-k.last < gap {
			continue
		}
		k.last = f
		k.frames = append(k.frames, f)
		if limit >= 0 && len(k.frames) >= limit {
			return i - blo + 1, hits, true, nil
		}
	}
	return bhi - blo, hits, false, nil
}

func (k *binaryKernel) save(p *scanProgress) ([]byte, error) {
	return json.Marshal(&binaryScanState{Pos: p.pos, Finished: p.finished, LastReturned: k.last,
		Verified: k.verified, Frames: k.frames, Stats: p.stats})
}

func (k *binaryKernel) load(state []byte, p *scanProgress) error {
	var st binaryScanState
	if err := json.Unmarshal(state, &st); err != nil {
		return err
	}
	*p = scanProgress{pos: st.Pos, finished: st.Finished, stats: st.Stats}
	k.last, k.verified, k.frames = st.LastReturned, st.Verified, st.Frames
	return nil
}

func (k *binaryKernel) adopt(prev scanKernel[[]binVerdict]) {
	o := prev.(*binaryKernel)
	k.last, k.verified, k.frames = o.last, o.verified, o.frames
}

// finish returns a view of the returned frames: they are append-only, so a
// capacity-capped slice stays valid while the scan continues.
func (k *binaryKernel) finish(res *Result) {
	res.Frames = k.frames[:len(k.frames):len(k.frames)]
	if k.prep != nil {
		lo, hi := k.e.frameRange(k.info)
		res.Stats.note("verified %d of %d frames in the uncertain band", k.verified, hi-lo)
	}
}

// binaryThresholds picks the cascade thresholds on the held-out day.
// Detector labels for the held-out day are part of the offline labeled set.
//
// The low threshold rejects at most fnrBudget/2 of true positives; the
// high threshold accepts at most fprBudget/2 of true negatives — half of
// each budget is held back as slack for distribution shift between the
// held-out and unseen days.
func (e *Engine) binaryThresholds(infHeld interface {
	TailProb(head, frame, n int) float64
	Frames() int
}, head int, class vidsim.Class, fnrBudget, fprBudget float64) (low, high float64) {
	var posScores, negScores []float64
	for f := 0; f < infHeld.Frames(); f++ {
		score := infHeld.TailProb(head, f, 1)
		if e.DHeld.CountAt(f, class) > 0 {
			posScores = append(posScores, score)
		} else {
			negScores = append(negScores, score)
		}
	}
	sort.Float64s(posScores)
	sort.Float64s(negScores)

	// Low threshold: the (fnrBudget/2)-quantile of positive scores; every
	// score below it is rejected unverified.
	low = 0.0
	if len(posScores) > 0 && fnrBudget > 0 {
		k := int(float64(len(posScores)) * fnrBudget / 2)
		if k >= len(posScores) {
			k = len(posScores) - 1
		}
		low = posScores[k]
	}
	// High threshold: the (1 - fprBudget/2)-quantile of negative scores;
	// every score at or above it is accepted unverified.
	high = 1.0
	if len(negScores) > 0 && fprBudget > 0 {
		k := int(float64(len(negScores)) * (1 - fprBudget/2))
		if k >= len(negScores) {
			k = len(negScores) - 1
		}
		high = negScores[k]
	}
	if high < low {
		// Crossed thresholds would skip verification where it is needed;
		// widen the verify band to cover both.
		low, high = high, low
	}
	return low, high
}
