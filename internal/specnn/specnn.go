// Package specnn implements BlazeIt's specialized networks: small models
// trained to mimic the expensive reference detector on a reduced task —
// per-frame object *counting* and multi-class presence — rather than the
// binary detection prior work specialized for (paper §3, §6.2, §7).
//
// The pipeline follows the paper's §6.2/§9 recipe:
//
//   - the number of count classes per head is the highest count occurring
//     in at least 1% of labeled frames, plus one;
//   - training uses up to 150,000 frames of the labeled day, labels taken
//     from the reference detector, one epoch of SGD with momentum 0.9 and
//     batch size 16;
//   - the held-out day estimates the model's error with the bootstrap;
//   - inference over unseen video costs 1e-4 simulated seconds per frame
//     (the paper's 10,000 fps figure).
//
// A trained CountModel exposes per-frame count probability distributions,
// which downstream optimizations consume three ways: directly (query
// rewriting), as a control variate (aggregation), and as an importance
// score (scrubbing).
package specnn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"repro/internal/detect"
	"repro/internal/feature"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/vidsim"
)

// InferenceCostSeconds is the simulated per-frame inference cost
// (10,000 fps, paper §5).
const InferenceCostSeconds = 1e-4

// TrainCostSeconds is the simulated per-frame training cost (forward +
// backward ≈ 3× inference).
const TrainCostSeconds = 3e-4

// DefaultTrainFrames is the paper's training set size (§6.2).
const DefaultTrainFrames = 150_000

// MinClassFraction is the fraction of labeled frames a count value must
// reach to get its own class (§6.2: "at least 1% of the video").
const MinClassFraction = 0.01

// Options configures specialized-network training.
type Options struct {
	// TrainFrames caps the number of labeled frames used for training
	// (default DefaultTrainFrames).
	TrainFrames int
	// Hidden is the trunk width (default 32); the stand-in for the paper's
	// tiny 10-layer ResNet.
	Hidden int
	// LearningRate for SGD (default 0.05).
	LearningRate float64
	// Epochs of training (default 1, as in the paper).
	Epochs int
	// L2 weight decay (default 3e-5; long-duration streams have few
	// independent scenes per day, so light regularization improves
	// day-to-day generalization). Set negative to disable.
	L2 float64
	// Seed drives initialization, frame sampling, and shuffling.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.TrainFrames == 0 {
		o.TrainFrames = DefaultTrainFrames
	}
	if o.Hidden == 0 {
		o.Hidden = 32
	}
	if o.LearningRate == 0 {
		o.LearningRate = 0.05
	}
	if o.Epochs == 0 {
		o.Epochs = 1
	}
	if o.L2 == 0 {
		o.L2 = 3e-5
	}
	if o.L2 < 0 {
		o.L2 = 0
	}
	return o
}

// Head describes one counting head of a trained model.
type Head struct {
	// Class is the object class this head counts.
	Class vidsim.Class
	// Classes is the number of count classes; predictions saturate at
	// Classes-1 objects.
	Classes int
}

// CountModel is a trained specialized counting network for one stream.
type CountModel struct {
	// Net is the underlying network.
	Net *nn.Net
	// HeadInfo lists the heads in network order.
	HeadInfo []Head
	// Mu and Sigma standardize descriptors before the network sees them
	// (the paper normalizes inputs with standard ImageNet statistics, §9;
	// here the statistics come from the training set itself).
	Mu, Sigma []float64
	// TrainSimSeconds is the simulated time spent training.
	TrainSimSeconds float64
	// TrainLoss is the final-epoch mean training loss.
	TrainLoss float64
}

// Normalize standardizes a raw descriptor in place.
func (m *CountModel) Normalize(x []float64) {
	for i := range x {
		x[i] = (x[i] - m.Mu[i]) / m.Sigma[i]
	}
}

// HeadIndex returns the index of the head counting class, or -1.
func (m *CountModel) HeadIndex(class vidsim.Class) int {
	for i, h := range m.HeadInfo {
		if h.Class == class {
			return i
		}
	}
	return -1
}

// ErrInsufficientExamples is returned when the labeled day has too few
// examples of a requested class to train on; the optimizer then falls back
// to plain sampling (Algorithm 1's precondition).
var ErrInsufficientExamples = fmt.Errorf("specnn: insufficient training examples")

// Train fits a specialized counting network on the labeled day for the
// given object classes. Labels come from the reference detector (the
// labeled set is precomputed offline in the paper's protocol, so detector
// calls here are not metered); the returned model carries its simulated
// training cost.
func Train(labeled *vidsim.Video, det *detect.Detector, classes []vidsim.Class, opts Options) (*CountModel, error) {
	opts = opts.withDefaults()
	if len(classes) == 0 {
		return nil, fmt.Errorf("specnn: no classes requested")
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	n := opts.TrainFrames
	if n > labeled.Frames {
		n = labeled.Frames
	}
	frames := sampleFrames(labeled.Frames, n, rng)

	// Label every selected frame with the detector.
	labels := make([][]int, len(classes)) // [class][sample]
	for i := range labels {
		labels[i] = make([]int, len(frames))
	}
	var dets []detect.Detection
	for si, f := range frames {
		dets = det.Detect(f, dets[:0])
		for ci, class := range classes {
			c := 0
			for di := range dets {
				if dets[di].Class == class {
					c++
				}
			}
			labels[ci][si] = c
		}
	}

	// Class-count binning: highest count covering >= 1% of frames, plus one.
	heads := make([]Head, len(classes))
	specs := make([]nn.HeadSpec, len(classes))
	for ci, class := range classes {
		maxC := binCount(labels[ci])
		if maxC == 0 {
			return nil, fmt.Errorf("%w: class %q never appears in >=%.0f%% of labeled frames",
				ErrInsufficientExamples, class, MinClassFraction*100)
		}
		heads[ci] = Head{Class: class, Classes: maxC + 1}
		specs[ci] = nn.HeadSpec{Name: string(class), Classes: maxC + 1}
	}

	// Build training samples: descriptor -> clipped counts.
	ex := feature.NewExtractor(labeled)
	samples := make([]nn.Sample, len(frames))
	for si, f := range frames {
		x := make([]float64, feature.Dim)
		ex.Frame(f, x)
		y := make([]int, len(classes))
		for ci := range classes {
			c := labels[ci][si]
			if c >= heads[ci].Classes {
				c = heads[ci].Classes - 1
			}
			y[ci] = c
		}
		samples[si] = nn.Sample{X: x, Y: y}
	}

	// Standardize features with training-set statistics.
	mu := make([]float64, feature.Dim)
	sigma := make([]float64, feature.Dim)
	for _, s := range samples {
		for i, v := range s.X {
			mu[i] += v
		}
	}
	for i := range mu {
		mu[i] /= float64(len(samples))
	}
	for _, s := range samples {
		for i, v := range s.X {
			d := v - mu[i]
			sigma[i] += d * d
		}
	}
	for i := range sigma {
		sigma[i] = math.Sqrt(sigma[i] / float64(len(samples)))
		if sigma[i] < 1e-6 {
			sigma[i] = 1
		}
	}
	for _, s := range samples {
		for i := range s.X {
			s.X[i] = (s.X[i] - mu[i]) / sigma[i]
		}
	}

	net := nn.New(nn.Config{
		Inputs: feature.Dim,
		Hidden: []int{opts.Hidden},
		Heads:  specs,
		Seed:   opts.Seed,
	})
	loss, err := net.Train(samples, nn.TrainOpts{
		LearningRate: opts.LearningRate,
		Momentum:     0.9,
		BatchSize:    16,
		Epochs:       opts.Epochs,
		L2:           opts.L2,
		Seed:         opts.Seed + 1,
	})
	if err != nil {
		return nil, err
	}
	return &CountModel{
		Net:             net,
		HeadInfo:        heads,
		Mu:              mu,
		Sigma:           sigma,
		TrainSimSeconds: float64(len(samples)*opts.Epochs) * TrainCostSeconds,
		TrainLoss:       loss,
	}, nil
}

// binCount returns the highest count value that occurs in at least
// MinClassFraction of the labels.
func binCount(labels []int) int {
	if len(labels) == 0 {
		return 0
	}
	mx := 0
	for _, c := range labels {
		if c > mx {
			mx = c
		}
	}
	hist := make([]int, mx+1)
	for _, c := range labels {
		hist[c]++
	}
	cut := int(math.Ceil(MinClassFraction * float64(len(labels))))
	best := 0
	for c := mx; c >= 1; c-- {
		if hist[c] >= cut {
			best = c
			break
		}
	}
	return best
}

// sampleFrames returns n distinct frames: evenly spaced when n covers the
// video densely, otherwise a random subset, always sorted.
func sampleFrames(total, n int, rng *rand.Rand) []int {
	if n >= total {
		out := make([]int, total)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, n)
	stride := float64(total) / float64(n)
	for i := range out {
		// Even strides with per-stride jitter: stratified sampling.
		base := float64(i) * stride
		out[i] = int(base) + rng.Intn(int(math.Max(1, stride)))
		if out[i] >= total {
			out[i] = total - 1
		}
	}
	return out
}

// Inference holds the specialized network's outputs over every frame of a
// video: the per-frame count distribution per head. It is the "index" the
// paper's scrubbing and aggregation optimizations share (§10.3: "if we
// suppose that the videos are pre-indexed with the output of the
// specialized NNs...").
type Inference struct {
	// Model is the generating model.
	Model *CountModel
	// Video is the video inference ran over.
	Video *vidsim.Video
	// SimSeconds is the simulated inference cost (frames × 1e-4 s, plus
	// the feature-extraction filter cost).
	SimSeconds float64

	frames int
	probs  [][]float32 // [head][frame*Classes + class]
}

// Run executes the specialized network over every frame of v, in parallel
// across CPUs, and returns the per-frame count distributions.
func Run(m *CountModel, v *vidsim.Video) *Inference {
	cols, _ := RunRange(m, v, 0, v.Frames)
	return NewInferenceFromColumns(m, v, v.Frames, cols.Probs)
}

// Columns is one inference pass's raw columnar output over a frame range,
// every column indexed from the range's first frame.
type Columns struct {
	// Probs holds per-head float32 count-distribution columns, indexed
	// [(f-lo)*Classes + c] (the Inference storage format).
	Probs [][]float32
	// Tail1 holds a per-head float64 presence-tail column: P(count >= 1)
	// at full predictor precision, the exact quantity
	// Evaluator.TailProb(head, 1) computes, before the float32 rounding
	// the distribution columns undergo.
	Tail1 [][]float64
	// Signals holds one column per frame-level content UDF, in
	// feature.FrameUDFs order: the UDF's surrogate over the frame's raw
	// descriptor, the exact value a content filter compares.
	Signals [][]float64
}

// RunRange executes the specialized network over frames [lo, hi) of v, in
// parallel across CPUs, and returns its raw columns. The materialized index
// persists all of them: the distribution columns reconstruct an Inference
// bit-identically, the exact tail column lets the selection cascade's label
// filter compare against its threshold with the same bits an on-the-fly
// Evaluator would, and the content-signal columns let its content filters
// compare without synthesizing a descriptor — the pass already has each
// frame's raw descriptor in hand. The returned simulated cost covers the
// range's inference and feature extraction.
func RunRange(m *CountModel, v *vidsim.Video, lo, hi int) (cols Columns, simSeconds float64) {
	n := hi - lo
	if n < 0 {
		n = 0
	}
	cols = Columns{
		Probs:   make([][]float32, len(m.HeadInfo)),
		Tail1:   make([][]float64, len(m.HeadInfo)),
		Signals: make([][]float64, len(feature.FrameUDFs)),
	}
	for hIdx, h := range m.HeadInfo {
		cols.Probs[hIdx] = make([]float32, n*h.Classes)
		cols.Tail1[hIdx] = make([]float64, n)
	}
	for u := range cols.Signals {
		cols.Signals[u] = make([]float64, n)
	}
	simSeconds = float64(n) * (InferenceCostSeconds + feature.CostSeconds)
	if n == 0 {
		return cols, simSeconds
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = 1
	}
	// One contiguous range per worker, each with its own extractor and
	// predictor. parallel.For re-raises a worker's panic (a corrupt model, a
	// bad descriptor) on the caller, where the serve pool's recover contains
	// it; a bare goroutine would take the process down.
	chunk := (n + workers - 1) / workers
	parallel.For(workers, workers, func(w int) {
		wLo := w * chunk
		wHi := min(wLo+chunk, n)
		if wLo >= wHi {
			return
		}
		ex := feature.NewExtractor(v)
		pred := m.Net.NewPredictor()
		x := make([]float64, feature.Dim)
		for i := wLo; i < wHi; i++ {
			ex.Frame(lo+i, x)
			// Content signals read the raw descriptor: record them before
			// Normalize rewrites it in place.
			for u := range feature.FrameUDFs {
				cols.Signals[u][i] = feature.FrameUDFs[u].Signal(x)
			}
			m.Normalize(x)
			ps := pred.Probs(x)
			for hIdx, headProbs := range ps {
				k := m.HeadInfo[hIdx].Classes
				dst := cols.Probs[hIdx][i*k : (i+1)*k]
				for c, p := range headProbs {
					dst[c] = float32(p)
				}
				// Mirror Evaluator.TailProb(head, 1) exactly: float64
				// summation in ascending count order, clamped at 1.
				s := 0.0
				for c := 1; c < len(headProbs); c++ {
					s += headProbs[c]
				}
				if s > 1 {
					s = 1
				}
				cols.Tail1[hIdx][i] = s
			}
		}
	})
	return cols, simSeconds
}

// NewInferenceFromColumns reconstructs an Inference from raw distribution
// columns, as produced by RunRange (or loaded back from a persisted index
// segment). probs must hold one column per model head, each of length
// frames × head classes; the simulated cost is recomputed from the frame
// count with the same formula Run charges, so a reconstructed Inference is
// indistinguishable — bit for bit — from a freshly run one.
func NewInferenceFromColumns(m *CountModel, v *vidsim.Video, frames int, probs [][]float32) *Inference {
	return &Inference{
		Model:      m,
		Video:      v,
		SimSeconds: float64(frames) * (InferenceCostSeconds + feature.CostSeconds),
		frames:     frames,
		probs:      probs,
	}
}

// HeadColumn returns the head's raw distribution column, indexed
// [frame*Classes + class]. The column is shared storage: callers must
// treat it as read-only.
func (inf *Inference) HeadColumn(head int) []float32 { return inf.probs[head] }

// Frames returns the number of frames covered.
func (inf *Inference) Frames() int { return inf.frames }

// Inference values are immutable after Run returns: every accessor is a
// pure read, so one Inference may be shared by any number of concurrent
// shard workers.

// Evaluator bundles the per-goroutine state needed to run a trained model
// frame by frame over a video: a feature extractor, a predictor, and
// descriptor buffers. It is the batched evaluation handle sharded query
// plans hand each worker — the CountModel itself is read-only and shared,
// while each worker owns one Evaluator. Not safe for concurrent use.
type Evaluator struct {
	m    *CountModel
	ex   *feature.Extractor
	pred interface {
		Probs(x []float64) [][]float64
	}
	raw   []float64
	norm  []float64
	frame int
	probs [][]float64 // lazily computed for the current frame
}

// NewEvaluator returns an Evaluator running m over v's frames. A nil
// model is allowed for raw-descriptor-only use (Seek/Raw); Probs and
// TailProb then must not be called.
func NewEvaluator(m *CountModel, v *vidsim.Video) *Evaluator {
	ev := &Evaluator{
		m:     m,
		ex:    feature.NewExtractor(v),
		raw:   make([]float64, feature.Dim),
		frame: -1,
	}
	if m != nil {
		ev.pred = m.Net.NewPredictor()
		ev.norm = make([]float64, feature.Dim)
	}
	return ev
}

// Seek positions the evaluator on a frame, extracting its raw descriptor.
// The network run is deferred until Probs/TailProb is called, so callers
// that reject a frame on the raw descriptor alone never pay for it.
func (ev *Evaluator) Seek(frame int) {
	ev.ex.Frame(frame, ev.raw)
	ev.frame = frame
	ev.probs = nil
}

// Raw returns the current frame's raw (unnormalized) descriptor — the
// input the cheap content filters consume. Valid until the next Seek.
func (ev *Evaluator) Raw() []float64 { return ev.raw }

// Probs runs the network on the current frame (once; repeated calls are
// free) and returns the per-head count distributions.
func (ev *Evaluator) Probs() [][]float64 {
	if ev.probs == nil {
		copy(ev.norm, ev.raw)
		ev.m.Normalize(ev.norm)
		ev.probs = ev.pred.Probs(ev.norm)
	}
	return ev.probs
}

// TailProb returns P(count >= n) for the head on the current frame.
func (ev *Evaluator) TailProb(head, n int) float64 {
	probs := ev.Probs()[head]
	if n >= len(probs) {
		n = len(probs) - 1
	}
	if n <= 0 {
		return 1
	}
	s := 0.0
	for c := n; c < len(probs); c++ {
		s += probs[c]
	}
	if s > 1 {
		s = 1
	}
	return s
}

// Prob returns P(count == c) for the head at the frame.
func (inf *Inference) Prob(head, frame, c int) float64 {
	k := inf.Model.HeadInfo[head].Classes
	return float64(inf.probs[head][frame*k+c])
}

// ExpectedCount returns the head's expected count at the frame: the
// continuous signal used as the control variate.
func (inf *Inference) ExpectedCount(head, frame int) float64 {
	k := inf.Model.HeadInfo[head].Classes
	row := inf.probs[head][frame*k : (frame+1)*k]
	e := 0.0
	for c, p := range row {
		e += float64(c) * float64(p)
	}
	return e
}

// PredCount returns the head's argmax count at the frame: the discrete
// prediction used for query rewriting.
func (inf *Inference) PredCount(head, frame int) int {
	k := inf.Model.HeadInfo[head].Classes
	row := inf.probs[head][frame*k : (frame+1)*k]
	best, bi := float32(-1), 0
	for c, p := range row {
		if p > best {
			best, bi = p, c
		}
	}
	return bi
}

// TailProb returns P(count >= n) for the head at the frame: the importance
// score scrubbing ranks frames by. n above the head's top class yields the
// top class's probability (the distribution saturates).
func (inf *Inference) TailProb(head, frame, n int) float64 {
	k := inf.Model.HeadInfo[head].Classes
	if n >= k {
		n = k - 1
	}
	if n <= 0 {
		return 1
	}
	row := inf.probs[head][frame*k : (frame+1)*k]
	s := 0.0
	for c := n; c < k; c++ {
		s += float64(row[c])
	}
	if s > 1 { // float32 accumulation can overshoot by an ulp
		s = 1
	}
	return s
}

// ExpectedMoments returns the exact mean and variance of the expected-count
// signal over all frames — control variates need E[t] and Var(t) exactly,
// which is affordable precisely because the specialized network is so cheap
// (paper §6.3).
func (inf *Inference) ExpectedMoments(head int) (mean, variance float64) {
	var o stats.Online
	for f := 0; f < inf.frames; f++ {
		o.Add(inf.ExpectedCount(head, f))
	}
	return o.Mean(), o.Variance()
}

// HeldOutErrors computes per-frame signed errors (prediction − detector
// truth) on a sample of the held-out video, using the calibrated expected
// count — the same quantity query rewriting would return. The detector
// labels are part of the offline labeled set, so detector calls are not
// metered; the returned simulated cost covers only the specialized
// network's inference.
func HeldOutErrors(m *CountModel, heldOut *vidsim.Video, det *detect.Detector, class vidsim.Class, sampleN int, seed int64) (errs []float64, simSeconds float64, err error) {
	hi := m.HeadIndex(class)
	if hi < 0 {
		return nil, 0, fmt.Errorf("specnn: model has no head for class %q", class)
	}
	rng := rand.New(rand.NewSource(seed))
	frames := sampleFrames(heldOut.Frames, sampleN, rng)
	ex := feature.NewExtractor(heldOut)
	pred := m.Net.NewPredictor()
	x := make([]float64, feature.Dim)
	var dets []detect.Detection
	errs = make([]float64, len(frames))
	for i, f := range frames {
		ex.Frame(f, x)
		m.Normalize(x)
		probs := pred.Probs(x)[hi]
		e := 0.0
		for c, p := range probs {
			e += float64(c) * p
		}
		truth := 0
		dets = det.Detect(f, dets[:0])
		for di := range dets {
			if dets[di].Class == class {
				truth++
			}
		}
		errs[i] = e - float64(truth)
	}
	return errs, float64(len(frames)) * (InferenceCostSeconds + feature.CostSeconds), nil
}

// MeanExpectedCount returns the frame-averaged expected count — the answer
// query rewriting returns for an FCOUNT query (Algorithm 1's τ).
func (inf *Inference) MeanExpectedCount(head int) float64 {
	mean, _ := inf.ExpectedMoments(head)
	return mean
}

// BiasWithin estimates, with b bootstrap resamples of the held-out signed
// errors, the probability that the model's frame-averaged count bias is
// within tol — Algorithm 1's P(err < uerr) test.
func BiasWithin(errs []float64, tol float64, b int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return stats.BootstrapProbBelow(errs, b, tol, rng, func(xs []float64) float64 {
		return math.Abs(stats.Mean(xs))
	})
}
