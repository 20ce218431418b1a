package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewPanicsOnBadConfig(t *testing.T) {
	cases := []Config{
		{Inputs: 0, Heads: []HeadSpec{{"a", 2}}},
		{Inputs: 4},
		{Inputs: 4, Heads: []HeadSpec{{"a", 1}}},
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			New(cfg)
		}()
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	f := func(a, b, c float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) {
			return true
		}
		// Clamp to avoid overflow-to-zero pathologies in the property.
		clamp := func(x float64) float64 { return math.Max(-500, math.Min(500, x)) }
		xs := []float64{clamp(a), clamp(b), clamp(c)}
		Softmax(xs)
		s := xs[0] + xs[1] + xs[2]
		if math.Abs(s-1) > 1e-9 {
			return false
		}
		for _, v := range xs {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxStableWithLargeLogits(t *testing.T) {
	xs := []float64{1000, 999, 998}
	Softmax(xs)
	if math.IsNaN(xs[0]) || xs[0] < xs[1] || xs[1] < xs[2] {
		t.Errorf("unstable softmax: %v", xs)
	}
}

func TestDeterministicInit(t *testing.T) {
	cfg := Config{Inputs: 8, Hidden: []int{4}, Heads: []HeadSpec{{"h", 3}}, Seed: 42}
	a, b := New(cfg), New(cfg)
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	pa := a.NewPredictor().Probs(x)
	pb := b.NewPredictor().Probs(x)
	for i := range pa[0] {
		if pa[0][i] != pb[0][i] {
			t.Fatalf("same seed, different outputs: %v vs %v", pa[0], pb[0])
		}
	}
	c := New(Config{Inputs: 8, Hidden: []int{4}, Heads: []HeadSpec{{"h", 3}}, Seed: 43})
	pc := c.NewPredictor().Probs(x)
	same := true
	for i := range pa[0] {
		if pa[0][i] != pc[0][i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical networks")
	}
}

func TestPredictorPanicsOnWrongDim(t *testing.T) {
	n := New(Config{Inputs: 4, Heads: []HeadSpec{{"h", 2}}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong input dim")
		}
	}()
	n.NewPredictor().Probs([]float64{1, 2})
}

func TestHeadIndex(t *testing.T) {
	n := New(Config{Inputs: 2, Heads: []HeadSpec{{"car", 3}, {"bus", 2}}})
	if n.HeadIndex("car") != 0 || n.HeadIndex("bus") != 1 || n.HeadIndex("boat") != -1 {
		t.Error("HeadIndex lookup failed")
	}
	if len(n.Heads()) != 2 {
		t.Error("Heads() wrong length")
	}
}

func TestTrainEmptyReturnsError(t *testing.T) {
	n := New(Config{Inputs: 2, Heads: []HeadSpec{{"h", 2}}})
	if _, err := n.Train(nil, TrainOpts{}); err != ErrNoSamples {
		t.Errorf("want ErrNoSamples, got %v", err)
	}
}

func TestTrainRejectsBadTargets(t *testing.T) {
	n := New(Config{Inputs: 2, Heads: []HeadSpec{{"h", 2}}})
	if _, err := n.Train([]Sample{{X: []float64{1, 0}, Y: []int{5}}}, TrainOpts{}); err == nil {
		t.Error("expected error for out-of-range target")
	}
	if _, err := n.Train([]Sample{{X: []float64{1, 0}, Y: []int{0, 1}}}, TrainOpts{}); err == nil {
		t.Error("expected error for target arity mismatch")
	}
}

// makeBlobs builds a linearly separable two-class dataset.
func makeBlobs(n int, seed int64) []Sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Sample, n)
	for i := range out {
		cls := i % 2
		cx := -2.0
		if cls == 1 {
			cx = 2.0
		}
		out[i] = Sample{
			X: []float64{cx + rng.NormFloat64()*0.5, rng.NormFloat64() * 0.5},
			Y: []int{cls},
		}
	}
	return out
}

func TestTrainLearnsSeparableData(t *testing.T) {
	n := New(Config{Inputs: 2, Hidden: []int{8}, Heads: []HeadSpec{{"h", 2}}, Seed: 1})
	train := makeBlobs(800, 2)
	if _, err := n.Train(train, TrainOpts{Epochs: 5, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	test := makeBlobs(200, 4)
	p := n.NewPredictor()
	correct := 0
	for _, s := range test {
		if p.Predict(s.X)[0] == s.Y[0] {
			correct++
		}
	}
	acc := float64(correct) / float64(len(test))
	if acc < 0.95 {
		t.Errorf("accuracy %.3f on separable blobs, want >= 0.95", acc)
	}
}

func TestTrainReducesLoss(t *testing.T) {
	n := New(Config{Inputs: 2, Hidden: []int{8}, Heads: []HeadSpec{{"h", 2}}, Seed: 1})
	train := makeBlobs(400, 7)
	first, err := n.Train(train, TrainOpts{Epochs: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	later, err := n.Train(train, TrainOpts{Epochs: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if later >= first {
		t.Errorf("loss did not decrease: first epoch %.4f, after more training %.4f", first, later)
	}
}

func TestMultiHeadMaskedTargets(t *testing.T) {
	// Two heads; each sample supervises only one. Both heads must learn.
	n := New(Config{Inputs: 2, Hidden: []int{8}, Heads: []HeadSpec{{"a", 2}, {"b", 2}}, Seed: 5})
	rng := rand.New(rand.NewSource(9))
	var samples []Sample
	for i := 0; i < 1200; i++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64()}
		ya := 0
		if x[0] > 0 {
			ya = 1
		}
		yb := 0
		if x[1] > 0 {
			yb = 1
		}
		if i%2 == 0 {
			samples = append(samples, Sample{X: x, Y: []int{ya, -1}})
		} else {
			samples = append(samples, Sample{X: x, Y: []int{-1, yb}})
		}
	}
	if _, err := n.Train(samples, TrainOpts{Epochs: 6, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	p := n.NewPredictor()
	okA, okB, total := 0, 0, 0
	for i := 0; i < 300; i++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64()}
		pred := p.Predict(x)
		wantA, wantB := 0, 0
		if x[0] > 0 {
			wantA = 1
		}
		if x[1] > 0 {
			wantB = 1
		}
		if pred[0] == wantA {
			okA++
		}
		if pred[1] == wantB {
			okB++
		}
		total++
	}
	if float64(okA)/float64(total) < 0.9 || float64(okB)/float64(total) < 0.9 {
		t.Errorf("multi-head accuracy too low: a=%d/%d b=%d/%d", okA, total, okB, total)
	}
}

func TestProbsAreValidDistribution(t *testing.T) {
	n := New(Config{Inputs: 3, Hidden: []int{5}, Heads: []HeadSpec{{"h", 4}}, Seed: 11})
	p := n.NewPredictor()
	f := func(a, b, c float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) ||
			math.IsInf(a, 0) || math.IsInf(b, 0) || math.IsInf(c, 0) {
			return true
		}
		clamp := func(x float64) float64 { return math.Max(-1e6, math.Min(1e6, x)) }
		probs := p.Probs([]float64{clamp(a), clamp(b), clamp(c)})[0]
		s := 0.0
		for _, v := range probs {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
			s += v
		}
		return math.Abs(s-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	n := New(Config{Inputs: 4, Hidden: []int{6}, Heads: []HeadSpec{{"h", 3}}, Seed: 21})
	train := make([]Sample, 100)
	rng := rand.New(rand.NewSource(22))
	for i := range train {
		train[i] = Sample{
			X: []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()},
			Y: []int{rng.Intn(3)},
		}
	}
	if _, err := n.Train(train, TrainOpts{}); err != nil {
		t.Fatal(err)
	}
	data, err := n.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var m Net
	if err := m.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	x := []float64{0.3, -0.2, 1.5, 0.7}
	pa := n.NewPredictor().Probs(x)[0]
	pb := m.NewPredictor().Probs(x)[0]
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("round-trip changed outputs: %v vs %v", pa, pb)
		}
	}
}

// TestFingerprintFollowsWeights: a network keeps its fingerprint through a
// marshal round trip (momentum is not part of it), and loses it when any
// weight moves or the initialization differs.
func TestFingerprintFollowsWeights(t *testing.T) {
	cfg := Config{Inputs: 4, Hidden: []int{6}, Heads: []HeadSpec{{"h", 3}}, Seed: 21}
	n := New(cfg)
	fresh := n.Fingerprint()
	if New(cfg).Fingerprint() != fresh {
		t.Fatal("same configuration and seed, different fingerprints")
	}
	cfg.Seed = 22
	if New(cfg).Fingerprint() == fresh {
		t.Fatal("different initialization, same fingerprint")
	}
	if _, err := n.Train([]Sample{{X: []float64{1, 0, -1, 2}, Y: []int{1}}, {X: []float64{0, 1, 1, -1}, Y: []int{2}}}, TrainOpts{}); err != nil {
		t.Fatal(err)
	}
	trained := n.Fingerprint()
	if trained == fresh {
		t.Fatal("training moved weights but not the fingerprint")
	}
	data, err := n.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var m Net
	if err := m.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if m.Fingerprint() != trained {
		t.Fatal("round trip changed the fingerprint")
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	var m Net
	if err := m.UnmarshalBinary([]byte("garbage")); err == nil {
		t.Error("expected error on corrupt data")
	}
}

func TestTrainOptsDefaults(t *testing.T) {
	o := TrainOpts{}.withDefaults()
	if o.LearningRate != 0.05 || o.Momentum != 0.9 || o.BatchSize != 16 || o.Epochs != 1 {
		t.Errorf("unexpected defaults: %+v", o)
	}
	o = TrainOpts{Momentum: -1}.withDefaults()
	if o.Momentum != 0 {
		t.Errorf("negative momentum should disable: %+v", o)
	}
}

func TestCountingHeadLearnsCounts(t *testing.T) {
	// Regression-style sanity: features are count + noise; the head should
	// recover counts well above chance. This mirrors how specialized NNs
	// are used for FCOUNT queries.
	n := New(Config{Inputs: 4, Hidden: []int{12}, Heads: []HeadSpec{{"car", 4}}, Seed: 33})
	rng := rand.New(rand.NewSource(34))
	mk := func(count int) []float64 {
		base := float64(count)
		return []float64{
			base + rng.NormFloat64()*0.3,
			base*0.5 + rng.NormFloat64()*0.3,
			rng.NormFloat64(),
			base*0.25 + rng.NormFloat64()*0.3,
		}
	}
	var train []Sample
	for i := 0; i < 2000; i++ {
		c := rng.Intn(4)
		train = append(train, Sample{X: mk(c), Y: []int{c}})
	}
	if _, err := n.Train(train, TrainOpts{Epochs: 3, Seed: 35}); err != nil {
		t.Fatal(err)
	}
	p := n.NewPredictor()
	correct := 0
	const trials = 500
	for i := 0; i < trials; i++ {
		c := rng.Intn(4)
		if p.Predict(mk(c))[0] == c {
			correct++
		}
	}
	if acc := float64(correct) / trials; acc < 0.8 {
		t.Errorf("counting accuracy %.3f, want >= 0.8", acc)
	}
}

// TestGradientsMatchNumerical verifies the analytic backward pass against
// central finite differences on a small network — the canonical
// correctness check for hand-written backprop.
func TestGradientsMatchNumerical(t *testing.T) {
	cfg := Config{Inputs: 3, Hidden: []int{4}, Heads: []HeadSpec{{"a", 3}, {"b", 2}}, Seed: 99}
	sample := Sample{X: []float64{0.5, -1.2, 0.8}, Y: []int{2, 0}}

	// Loss of the network at its current parameters.
	loss := func(n *Net) float64 {
		p := n.NewPredictor()
		probs := p.Probs(sample.X)
		l := 0.0
		for hi, y := range sample.Y {
			l += -math.Log(math.Max(probs[hi][y], 1e-15))
		}
		return l
	}

	// Analytic gradient via one SGD step with lr=eta, momentum=0:
	// theta' = theta - eta*g, so g = (theta - theta')/eta.
	const eta = 1e-6
	base := New(cfg)
	before, err := base.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.Train([]Sample{sample}, TrainOpts{
		LearningRate: eta, Momentum: -1, BatchSize: 1, Epochs: 1, L2: -1, Seed: 5,
	}); err != nil {
		t.Fatal(err)
	}
	after, err := base.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	var orig, stepped Net
	if err := orig.UnmarshalBinary(before); err != nil {
		t.Fatal(err)
	}
	if err := stepped.UnmarshalBinary(after); err != nil {
		t.Fatal(err)
	}

	// Numerical gradient for a selection of parameters: perturb the
	// serialized weights directly through gob round trips.
	checkLayer := func(get func(n *Net) []float64, name string) {
		w0 := get(&orig)
		w1 := get(&stepped)
		for _, idx := range []int{0, len(w0) / 2, len(w0) - 1} {
			analytic := (w0[idx] - w1[idx]) / eta

			const h = 1e-5
			var plus, minus Net
			if err := plus.UnmarshalBinary(before); err != nil {
				t.Fatal(err)
			}
			if err := minus.UnmarshalBinary(before); err != nil {
				t.Fatal(err)
			}
			get(&plus)[idx] += h
			get(&minus)[idx] -= h
			numeric := (loss(&plus) - loss(&minus)) / (2 * h)

			if math.Abs(analytic-numeric) > 1e-3*math.Max(1, math.Abs(numeric)) {
				t.Errorf("%s[%d]: analytic %g vs numeric %g", name, idx, analytic, numeric)
			}
		}
	}
	checkLayer(func(n *Net) []float64 { return n.trunk[0].W }, "trunk.W")
	checkLayer(func(n *Net) []float64 { return n.trunk[0].B }, "trunk.B")
	checkLayer(func(n *Net) []float64 { return n.heads[0].W }, "head0.W")
	checkLayer(func(n *Net) []float64 { return n.heads[1].W }, "head1.W")
	checkLayer(func(n *Net) []float64 { return n.heads[1].B }, "head1.B")
}
