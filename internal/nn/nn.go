// Package nn is a minimal neural-network library used to train BlazeIt's
// specialized networks from scratch, with no dependencies outside the
// standard library.
//
// It provides dense layers with ReLU activations, a multi-head softmax
// classifier (one output head per object class, as Section 7.1 of the paper
// prescribes for class-imbalance reasons), cross-entropy loss, and SGD with
// momentum — the same training recipe the paper uses for its "tiny ResNet"
// specialized models (SGD, momentum 0.9, batch size 16, one epoch).
//
// All initialization and shuffling is driven by an explicit seed so training
// is fully reproducible.
package nn

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// HeadSpec describes one classification head of a multi-head network.
type HeadSpec struct {
	// Name identifies the head, conventionally the object class it counts
	// (e.g. "car").
	Name string
	// Classes is the number of output classes. For a counting head trained
	// to distinguish 0..k objects, Classes is k+1.
	Classes int
}

// Config specifies a multi-head classifier.
type Config struct {
	// Inputs is the dimensionality of the input feature vector.
	Inputs int
	// Hidden lists the widths of the shared trunk's hidden layers. An empty
	// slice yields multinomial logistic regression per head.
	Hidden []int
	// Heads lists the output heads. There must be at least one.
	Heads []HeadSpec
	// Seed drives weight initialization.
	Seed int64
}

// dense is a fully connected layer y = Wx + b with SGD-momentum state.
type dense struct {
	In, Out int
	W       []float64 // row-major, Out rows by In columns
	B       []float64
	vW      []float64
	vB      []float64
}

func newDense(in, out int, rng *rand.Rand) *dense {
	d := &dense{
		In:  in,
		Out: out,
		W:   make([]float64, in*out),
		B:   make([]float64, out),
		vW:  make([]float64, in*out),
		vB:  make([]float64, out),
	}
	// He initialization, appropriate for ReLU trunks.
	scale := math.Sqrt(2.0 / float64(in))
	for i := range d.W {
		d.W[i] = rng.NormFloat64() * scale
	}
	return d
}

// forward computes Wx+b into out (len Out).
func (d *dense) forward(x, out []float64) {
	for o := 0; o < d.Out; o++ {
		row := d.W[o*d.In : (o+1)*d.In]
		s := d.B[o]
		for i, xi := range x {
			s += row[i] * xi
		}
		out[o] = s
	}
}

// backward accumulates parameter gradients for upstream gradient dy and
// input x, and writes the input gradient into dx (if non-nil).
func (d *dense) backward(x, dy, dx, gW, gB []float64) {
	for o := 0; o < d.Out; o++ {
		g := dy[o]
		gB[o] += g
		row := gW[o*d.In : (o+1)*d.In]
		for i, xi := range x {
			row[i] += g * xi
		}
	}
	if dx != nil {
		for i := 0; i < d.In; i++ {
			s := 0.0
			for o := 0; o < d.Out; o++ {
				s += d.W[o*d.In+i] * dy[o]
			}
			dx[i] = s
		}
	}
}

// step applies an SGD-with-momentum update using accumulated gradients
// scaled by invBatch.
func (d *dense) step(gW, gB []float64, lr, momentum, invBatch float64) {
	for i := range d.W {
		d.vW[i] = momentum*d.vW[i] - lr*gW[i]*invBatch
		d.W[i] += d.vW[i]
	}
	for i := range d.B {
		d.vB[i] = momentum*d.vB[i] - lr*gB[i]*invBatch
		d.B[i] += d.vB[i]
	}
}

// Net is a multi-head MLP classifier: a shared ReLU trunk feeding one
// softmax head per HeadSpec.
type Net struct {
	cfg   Config
	trunk []*dense
	heads []*dense
}

// New constructs a network from cfg. It panics on invalid configuration;
// configurations are programmer-supplied, not user data.
func New(cfg Config) *Net {
	if cfg.Inputs <= 0 {
		panic("nn: Config.Inputs must be positive")
	}
	if len(cfg.Heads) == 0 {
		panic("nn: Config.Heads must not be empty")
	}
	for _, h := range cfg.Heads {
		if h.Classes < 2 {
			panic(fmt.Sprintf("nn: head %q needs at least 2 classes", h.Name))
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := &Net{cfg: cfg}
	in := cfg.Inputs
	for _, h := range cfg.Hidden {
		n.trunk = append(n.trunk, newDense(in, h, rng))
		in = h
	}
	for _, h := range cfg.Heads {
		n.heads = append(n.heads, newDense(in, h.Classes, rng))
	}
	return n
}

// Config returns the configuration the network was built with.
func (n *Net) Config() Config { return n.cfg }

// Heads returns the head specifications.
func (n *Net) Heads() []HeadSpec { return n.cfg.Heads }

// HeadIndex returns the index of the head with the given name, or -1.
func (n *Net) HeadIndex(name string) int {
	for i, h := range n.cfg.Heads {
		if h.Name == name {
			return i
		}
	}
	return -1
}

// scratch holds per-forward temporary buffers so inference over millions of
// frames does not allocate.
type scratch struct {
	acts  [][]float64 // trunk activations, acts[0] is the input copy
	grads [][]float64
	heads [][]float64
}

func (n *Net) newScratch() *scratch {
	s := &scratch{}
	s.acts = append(s.acts, make([]float64, n.cfg.Inputs))
	for _, l := range n.trunk {
		s.acts = append(s.acts, make([]float64, l.Out))
	}
	for _, a := range s.acts {
		s.grads = append(s.grads, make([]float64, len(a)))
	}
	for _, h := range n.heads {
		s.heads = append(s.heads, make([]float64, h.Out))
	}
	return s
}

// forwardInto runs the trunk and all heads, leaving logits in s.heads and
// trunk activations in s.acts.
func (n *Net) forwardInto(x []float64, s *scratch) {
	copy(s.acts[0], x)
	for i, l := range n.trunk {
		l.forward(s.acts[i], s.acts[i+1])
		relu(s.acts[i+1])
	}
	top := s.acts[len(s.acts)-1]
	for i, h := range n.heads {
		h.forward(top, s.heads[i])
	}
}

func relu(xs []float64) {
	for i, x := range xs {
		if x < 0 {
			xs[i] = 0
		}
	}
}

// Softmax converts logits to probabilities in place, numerically stably.
func Softmax(logits []float64) {
	mx := logits[0]
	for _, v := range logits[1:] {
		if v > mx {
			mx = v
		}
	}
	s := 0.0
	for i, v := range logits {
		e := math.Exp(v - mx)
		logits[i] = e
		s += e
	}
	for i := range logits {
		logits[i] /= s
	}
}

// Predictor wraps a Net with reusable buffers for allocation-free inference.
// A Predictor is not safe for concurrent use; create one per goroutine.
type Predictor struct {
	net *Net
	s   *scratch
}

// NewPredictor returns a Predictor over n.
func (n *Net) NewPredictor() *Predictor {
	return &Predictor{net: n, s: n.newScratch()}
}

// Probs runs inference and returns per-head class probabilities. The
// returned slices are owned by the Predictor and overwritten by the next
// call; copy them if they must be retained.
func (p *Predictor) Probs(x []float64) [][]float64 {
	if len(x) != p.net.cfg.Inputs {
		panic(fmt.Sprintf("nn: input dim %d, want %d", len(x), p.net.cfg.Inputs))
	}
	p.net.forwardInto(x, p.s)
	for _, h := range p.s.heads {
		Softmax(h)
	}
	return p.s.heads
}

// Predict returns the argmax class per head.
func (p *Predictor) Predict(x []float64) []int {
	probs := p.Probs(x)
	out := make([]int, len(probs))
	for i, ps := range probs {
		out[i] = argmax(ps)
	}
	return out
}

func argmax(xs []float64) int {
	best, bi := xs[0], 0
	for i, v := range xs[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// Sample is one training example: an input vector and a target class per
// head. A target of -1 masks that head out of the loss for this sample.
type Sample struct {
	X []float64
	Y []int
}

// TrainOpts controls Train.
type TrainOpts struct {
	// LearningRate for SGD. Defaults to 0.05 if zero.
	LearningRate float64
	// Momentum coefficient. Defaults to 0.9 if zero (set Negative to disable).
	Momentum float64
	// BatchSize defaults to 16 (the paper's batch size).
	BatchSize int
	// Epochs defaults to 1 (the paper trains for one epoch).
	Epochs int
	// Seed drives shuffling.
	Seed int64
	// L2 weight decay coefficient (0 disables).
	L2 float64
}

func (o TrainOpts) withDefaults() TrainOpts {
	if o.LearningRate == 0 {
		o.LearningRate = 0.05
	}
	if o.Momentum == 0 {
		o.Momentum = 0.9
	}
	if o.Momentum < 0 {
		o.Momentum = 0
	}
	if o.BatchSize == 0 {
		o.BatchSize = 16
	}
	if o.Epochs == 0 {
		o.Epochs = 1
	}
	return o
}

// ErrNoSamples is returned by Train when the training set is empty.
var ErrNoSamples = errors.New("nn: no training samples")

// Train fits the network with minibatch SGD + momentum and per-head softmax
// cross-entropy, returning the mean training loss of the final epoch.
func (n *Net) Train(samples []Sample, opts TrainOpts) (float64, error) {
	if len(samples) == 0 {
		return 0, ErrNoSamples
	}
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	s := n.newScratch()

	// Gradient accumulators mirroring every layer.
	gTrunkW := make([][]float64, len(n.trunk))
	gTrunkB := make([][]float64, len(n.trunk))
	for i, l := range n.trunk {
		gTrunkW[i] = make([]float64, len(l.W))
		gTrunkB[i] = make([]float64, len(l.B))
	}
	gHeadW := make([][]float64, len(n.heads))
	gHeadB := make([][]float64, len(n.heads))
	for i, h := range n.heads {
		gHeadW[i] = make([]float64, len(h.W))
		gHeadB[i] = make([]float64, len(h.B))
	}
	headDX := make([]float64, trunkOutDim(n))
	headDY := make([][]float64, len(n.heads))
	for i, h := range n.heads {
		headDY[i] = make([]float64, h.Out)
	}

	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}

	var lastLoss float64
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		totalLoss, count := 0.0, 0
		for start := 0; start < len(order); start += opts.BatchSize {
			end := start + opts.BatchSize
			if end > len(order) {
				end = len(order)
			}
			batch := order[start:end]
			zeroAll(gTrunkW)
			zeroAll(gTrunkB)
			zeroAll(gHeadW)
			zeroAll(gHeadB)
			for _, idx := range batch {
				sm := samples[idx]
				if len(sm.Y) != len(n.heads) {
					return 0, fmt.Errorf("nn: sample has %d targets, want %d", len(sm.Y), len(n.heads))
				}
				n.forwardInto(sm.X, s)
				top := s.acts[len(s.acts)-1]
				topGrad := s.grads[len(s.grads)-1]
				for i := range topGrad {
					topGrad[i] = 0
				}
				for hi, h := range n.heads {
					y := sm.Y[hi]
					if y < 0 {
						continue
					}
					if y >= h.Out {
						return 0, fmt.Errorf("nn: target %d out of range for head %q (%d classes)", y, n.cfg.Heads[hi].Name, h.Out)
					}
					probs := headDY[hi]
					copy(probs, s.heads[hi])
					Softmax(probs)
					totalLoss += -math.Log(math.Max(probs[y], 1e-12))
					count++
					// dL/dlogit = p - onehot(y)
					probs[y] -= 1
					h.backward(top, probs, headDX, gHeadW[hi], gHeadB[hi])
					for i := range topGrad {
						topGrad[i] += headDX[i]
					}
				}
				// Back through trunk with ReLU masks.
				for li := len(n.trunk) - 1; li >= 0; li-- {
					act := s.acts[li+1]
					dy := s.grads[li+1]
					for i := range dy {
						if act[i] <= 0 {
							dy[i] = 0
						}
					}
					var dx []float64
					if li > 0 {
						dx = s.grads[li]
					}
					n.trunk[li].backward(s.acts[li], dy, dx, gTrunkW[li], gTrunkB[li])
				}
			}
			inv := 1.0 / float64(len(batch))
			if opts.L2 > 0 {
				applyL2(n, gTrunkW, gHeadW, opts.L2, float64(len(batch)))
			}
			for i, l := range n.trunk {
				l.step(gTrunkW[i], gTrunkB[i], opts.LearningRate, opts.Momentum, inv)
			}
			for i, h := range n.heads {
				h.step(gHeadW[i], gHeadB[i], opts.LearningRate, opts.Momentum, inv)
			}
		}
		if count > 0 {
			lastLoss = totalLoss / float64(count)
		}
	}
	return lastLoss, nil
}

func applyL2(n *Net, gTrunkW, gHeadW [][]float64, l2, batch float64) {
	for i, l := range n.trunk {
		for j, w := range l.W {
			gTrunkW[i][j] += l2 * w * batch
		}
	}
	for i, h := range n.heads {
		for j, w := range h.W {
			gHeadW[i][j] += l2 * w * batch
		}
	}
}

func trunkOutDim(n *Net) int {
	if len(n.trunk) == 0 {
		return n.cfg.Inputs
	}
	return n.trunk[len(n.trunk)-1].Out
}

func zeroAll(gs [][]float64) {
	for _, g := range gs {
		for i := range g {
			g[i] = 0
		}
	}
}

// Fingerprint hashes what the network computes with — layer shapes, weights
// and biases, bit for bit (FNV-1a) — so two networks with equal fingerprints
// are the same function. Training state (momentum) is not part of it.
func (n *Net) Fingerprint() uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) { h = (h ^ v) * 1099511628211 }
	for _, layers := range [][]*dense{n.trunk, n.heads} {
		for _, l := range layers {
			mix(uint64(l.In))
			mix(uint64(l.Out))
			for _, w := range l.W {
				mix(math.Float64bits(w))
			}
			for _, b := range l.B {
				mix(math.Float64bits(b))
			}
		}
	}
	return h
}

// netState is the gob-serializable form of a Net.
type netState struct {
	Cfg   Config
	Trunk []denseState
	Heads []denseState
}

type denseState struct {
	In, Out int
	W, B    []float64
}

// MarshalBinary encodes the network (architecture and weights) with gob.
func (n *Net) MarshalBinary() ([]byte, error) {
	st := netState{Cfg: n.cfg}
	for _, l := range n.trunk {
		st.Trunk = append(st.Trunk, denseState{l.In, l.Out, l.W, l.B})
	}
	for _, h := range n.heads {
		st.Heads = append(st.Heads, denseState{h.In, h.Out, h.W, h.B})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes a network previously encoded by MarshalBinary.
func (n *Net) UnmarshalBinary(data []byte) error {
	var st netState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return err
	}
	rebuilt := New(st.Cfg)
	for i, l := range rebuilt.trunk {
		if i >= len(st.Trunk) || st.Trunk[i].In != l.In || st.Trunk[i].Out != l.Out {
			return errors.New("nn: corrupt trunk state")
		}
		copy(l.W, st.Trunk[i].W)
		copy(l.B, st.Trunk[i].B)
	}
	for i, h := range rebuilt.heads {
		if i >= len(st.Heads) || st.Heads[i].In != h.In || st.Heads[i].Out != h.Out {
			return errors.New("nn: corrupt head state")
		}
		copy(h.W, st.Heads[i].W)
		copy(h.B, st.Heads[i].B)
	}
	*n = *rebuilt
	return nil
}
