package specnn

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/detect"
	"repro/internal/feature"
	"repro/internal/nn"
	"repro/internal/vidsim"
)

// testSetup generates small train/held-out/test videos plus detectors.
type testSetup struct {
	train, held, test    *vidsim.Video
	dTrain, dHeld, dTest *detect.Detector
}

func setup(t *testing.T, stream string, scale float64) *testSetup {
	t.Helper()
	cfg, err := vidsim.Stream(stream)
	if err != nil {
		t.Fatal(err)
	}
	cfg = cfg.Scaled(scale)
	s := &testSetup{
		train: vidsim.Generate(cfg, 0),
		held:  vidsim.Generate(cfg, 1),
		test:  vidsim.Generate(cfg, 2),
	}
	s.dTrain, err = detect.New(s.train)
	if err != nil {
		t.Fatal(err)
	}
	s.dHeld, _ = detect.New(s.held)
	s.dTest, _ = detect.New(s.test)
	return s
}

func trainSmall(t *testing.T, s *testSetup, classes []vidsim.Class) *CountModel {
	t.Helper()
	m, err := Train(s.train, s.dTrain, classes, Options{
		TrainFrames: 12000,
		Epochs:      2,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTrainProducesReasonableModel(t *testing.T) {
	s := setup(t, "taipei", 0.02)
	m := trainSmall(t, s, []vidsim.Class{vidsim.Car})
	if m.HeadIndex(vidsim.Car) != 0 {
		t.Fatal("missing car head")
	}
	if m.HeadInfo[0].Classes < 2 {
		t.Fatalf("car head has %d classes, want >= 2", m.HeadInfo[0].Classes)
	}
	if m.TrainSimSeconds <= 0 {
		t.Error("training must carry simulated cost")
	}

	// The model must beat the trivial always-predict-the-mode baseline on
	// held-out mean absolute count error.
	errs, sim, err := HeldOutErrors(m, s.held, s.dHeld, vidsim.Car, 3000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if sim <= 0 {
		t.Error("held-out evaluation must carry simulated cost")
	}
	mae := 0.0
	for _, e := range errs {
		mae += math.Abs(e)
	}
	mae /= float64(len(errs))
	if mae > 0.8 {
		t.Errorf("held-out MAE %.3f, want <= 0.8 (mean count ~1.1)", mae)
	}
}

func TestTrainInsufficientExamples(t *testing.T) {
	s := setup(t, "taipei", 0.01)
	// No boats in taipei: Train must refuse.
	_, err := Train(s.train, s.dTrain, []vidsim.Class{vidsim.Boat}, Options{TrainFrames: 3000, Seed: 1})
	if err == nil {
		t.Fatal("expected ErrInsufficientExamples")
	}
	if !errorsIs(err, ErrInsufficientExamples) {
		t.Fatalf("got %v, want ErrInsufficientExamples", err)
	}
}

func errorsIs(err, target error) bool {
	for e := err; e != nil; {
		if e == target {
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}

func TestTrainNoClasses(t *testing.T) {
	s := setup(t, "taipei", 0.005)
	if _, err := Train(s.train, s.dTrain, nil, Options{TrainFrames: 100}); err == nil {
		t.Error("expected error for empty class list")
	}
}

func TestBinCount(t *testing.T) {
	labels := make([]int, 1000)
	for i := 0; i < 400; i++ {
		labels[i] = 1
	}
	for i := 400; i < 420; i++ {
		labels[i] = 2 // 2% of frames
	}
	for i := 420; i < 425; i++ {
		labels[i] = 7 // 0.5%: below the 1% bar
	}
	if got := binCount(labels); got != 2 {
		t.Errorf("binCount = %d, want 2", got)
	}
	if got := binCount(make([]int, 100)); got != 0 {
		t.Errorf("all-zero binCount = %d, want 0", got)
	}
	if got := binCount(nil); got != 0 {
		t.Errorf("empty binCount = %d, want 0", got)
	}
}

func TestSampleFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fs := sampleFrames(1000, 100, rng)
	if len(fs) != 100 {
		t.Fatalf("len = %d", len(fs))
	}
	for i, f := range fs {
		if f < 0 || f >= 1000 {
			t.Fatalf("frame %d out of range", f)
		}
		if i > 0 && f < fs[i-1] {
			t.Fatal("frames not sorted")
		}
	}
	all := sampleFrames(50, 100, rng)
	if len(all) != 50 {
		t.Fatalf("oversampling should return all frames, got %d", len(all))
	}
}

func TestInferenceProbsConsistent(t *testing.T) {
	s := setup(t, "taipei", 0.01)
	m := trainSmall(t, s, []vidsim.Class{vidsim.Car})
	inf := Run(m, s.test)
	if inf.Frames() != s.test.Frames {
		t.Fatal("frame count mismatch")
	}
	if inf.SimSeconds <= 0 {
		t.Error("inference must carry simulated cost")
	}
	k := m.HeadInfo[0].Classes
	for f := 0; f < inf.Frames(); f += 501 {
		sum := 0.0
		for c := 0; c < k; c++ {
			p := inf.Prob(0, f, c)
			if p < 0 || p > 1 {
				t.Fatalf("P(count=%d)=%v out of range", c, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-4 {
			t.Fatalf("frame %d: probs sum to %v", f, sum)
		}
		// TailProb telescopes.
		if math.Abs(inf.TailProb(0, f, 0)-1) > 1e-9 {
			t.Fatal("TailProb(0) must be 1")
		}
		prev := 1.0
		for n := 1; n < k; n++ {
			tp := inf.TailProb(0, f, n)
			if tp > prev+1e-9 {
				t.Fatalf("TailProb not monotone at n=%d: %v > %v", n, tp, prev)
			}
			prev = tp
		}
		// Saturating n beyond the top class.
		if inf.TailProb(0, f, k+5) != inf.TailProb(0, f, k-1) {
			t.Fatal("TailProb should saturate at the top class")
		}
		// ExpectedCount within [0, k-1].
		e := inf.ExpectedCount(0, f)
		if e < 0 || e > float64(k-1) {
			t.Fatalf("ExpectedCount %v out of range", e)
		}
		// PredCount is a valid class.
		if pc := inf.PredCount(0, f); pc < 0 || pc >= k {
			t.Fatalf("PredCount %d out of range", pc)
		}
	}
}

func TestInferenceDeterministicAcrossRuns(t *testing.T) {
	s := setup(t, "taipei", 0.005)
	m := trainSmall(t, s, []vidsim.Class{vidsim.Car})
	a := Run(m, s.test)
	b := Run(m, s.test)
	for f := 0; f < a.Frames(); f += 97 {
		if a.ExpectedCount(0, f) != b.ExpectedCount(0, f) {
			t.Fatal("parallel inference is nondeterministic")
		}
	}
}

func TestModelTracksDetectorCounts(t *testing.T) {
	// The estimated mean count from the specialized model should be close
	// to the detector-derived mean on the test day — the property Figure 4
	// and Table 4 rely on.
	s := setup(t, "taipei", 0.02)
	m := trainSmall(t, s, []vidsim.Class{vidsim.Car})
	inf := Run(m, s.test)
	est := inf.MeanExpectedCount(0)

	truth := 0.0
	n := 0
	for f := 0; f < s.test.Frames; f += 7 {
		truth += float64(s.dTest.CountAt(f, vidsim.Car))
		n++
	}
	truth /= float64(n)
	if math.Abs(est-truth) > 0.25 {
		t.Errorf("specialized estimate %.3f vs detector truth %.3f (diff > 0.25)", est, truth)
	}
}

func TestExpectedMoments(t *testing.T) {
	s := setup(t, "taipei", 0.005)
	m := trainSmall(t, s, []vidsim.Class{vidsim.Car})
	inf := Run(m, s.test)
	mean, variance := inf.ExpectedMoments(0)
	if variance < 0 {
		t.Fatal("negative variance")
	}
	// Cross-check against direct accumulation.
	s1, s2 := 0.0, 0.0
	for f := 0; f < inf.Frames(); f++ {
		e := inf.ExpectedCount(0, f)
		s1 += e
		s2 += e * e
	}
	n := float64(inf.Frames())
	if math.Abs(mean-s1/n) > 1e-9 {
		t.Errorf("mean %v vs direct %v", mean, s1/n)
	}
	directVar := (s2 - s1*s1/n) / (n - 1)
	if math.Abs(variance-directVar) > 1e-6*math.Max(1, directVar) {
		t.Errorf("variance %v vs direct %v", variance, directVar)
	}
}

func TestBiasWithin(t *testing.T) {
	// Tight, centered errors: high probability of small bias.
	centered := make([]float64, 500)
	rng := rand.New(rand.NewSource(5))
	for i := range centered {
		centered[i] = rng.NormFloat64() * 0.1
	}
	if p := BiasWithin(centered, 0.1, 300, 6); p < 0.95 {
		t.Errorf("centered errors: P = %v, want high", p)
	}
	// Strongly biased errors: low probability.
	biased := make([]float64, 500)
	for i := range biased {
		biased[i] = 0.5 + rng.NormFloat64()*0.1
	}
	if p := BiasWithin(biased, 0.1, 300, 7); p > 0.05 {
		t.Errorf("biased errors: P = %v, want low", p)
	}
}

func TestMultiHeadTraining(t *testing.T) {
	s := setup(t, "taipei", 0.02)
	m := trainSmall(t, s, []vidsim.Class{vidsim.Car, vidsim.Bus})
	if m.HeadIndex(vidsim.Car) < 0 || m.HeadIndex(vidsim.Bus) < 0 {
		t.Fatal("expected both heads")
	}
	inf := Run(m, s.test)
	// Bus head: occupancy is ~12%, so mean expected count must be well
	// below the car head's.
	carMean, _ := inf.ExpectedMoments(m.HeadIndex(vidsim.Car))
	busMean, _ := inf.ExpectedMoments(m.HeadIndex(vidsim.Bus))
	if busMean >= carMean {
		t.Errorf("bus mean %.3f should be below car mean %.3f", busMean, carMean)
	}
}

func TestHeldOutErrorsUnknownClass(t *testing.T) {
	s := setup(t, "taipei", 0.005)
	m := trainSmall(t, s, []vidsim.Class{vidsim.Car})
	if _, _, err := HeldOutErrors(m, s.held, s.dHeld, vidsim.Boat, 100, 1); err == nil {
		t.Error("expected error for class with no head")
	}
}

// randomModel is an untrained two-head model over random weights: inference
// equivalences must hold for any net, not just a trained one.
func randomModel(seed int64) *CountModel {
	rng := rand.New(rand.NewSource(seed))
	mu, sigma := make([]float64, feature.Dim), make([]float64, feature.Dim)
	for i := range mu {
		mu[i], sigma[i] = rng.NormFloat64(), 0.5+rng.Float64()
	}
	heads := []Head{{Class: vidsim.Car, Classes: 4}, {Class: vidsim.Bus, Classes: 3}}
	return &CountModel{
		Net: nn.New(nn.Config{Inputs: feature.Dim, Hidden: []int{16}, Seed: seed,
			Heads: []nn.HeadSpec{{Name: "car", Classes: 4}, {Name: "bus", Classes: 3}}}),
		HeadInfo: heads, Mu: mu, Sigma: sigma,
	}
}

// TestRunRangeMatchesSerialReference: the per-worker fan-out writes the
// columns a serial frame-by-frame Evaluator computes, bit for bit, at any
// worker count and for a range that divides unevenly among the workers —
// the content signals over the raw descriptor, before normalization.
func TestRunRangeMatchesSerialReference(t *testing.T) {
	s := setup(t, "taipei", 0.002)
	m := randomModel(11)
	const lo = 37
	hi := s.test.Frames - 5
	for _, procs := range []int{1, 3, 4} {
		prev := runtime.GOMAXPROCS(procs)
		cols, _ := RunRange(m, s.test, lo, hi)
		runtime.GOMAXPROCS(prev)
		probs, tail1 := cols.Probs, cols.Tail1
		ev := NewEvaluator(m, s.test)
		for f := lo; f < hi; f++ {
			ev.Seek(f)
			for u, udf := range feature.FrameUDFs {
				if got, want := cols.Signals[u][f-lo], udf.Signal(ev.Raw()); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%d workers: %s frame %d: %v, serial %v", procs, udf.Name, f, got, want)
				}
			}
			for h, dist := range ev.Probs() {
				k := m.HeadInfo[h].Classes
				for c, p := range dist {
					if got := probs[h][(f-lo)*k+c]; got != float32(p) {
						t.Fatalf("%d workers: head %d frame %d count %d: %v, serial %v", procs, h, f, c, got, float32(p))
					}
				}
				if got, want := tail1[h][f-lo], ev.TailProb(h, 1); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%d workers: head %d frame %d: tail %v, serial %v", procs, h, f, got, want)
				}
			}
		}
	}
}

// TestRunRangeWorkerPanicReachesCaller: a panic inside an inference worker
// (here a model whose normalization statistics are truncated) must surface
// on the calling goroutine, where a server's per-task recover contains it;
// on a bare goroutine it would end the process.
func TestRunRangeWorkerPanicReachesCaller(t *testing.T) {
	s := setup(t, "taipei", 0.002)
	m := randomModel(11)
	m.Mu = m.Mu[:feature.Dim-1]
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	defer func() {
		if recover() == nil {
			t.Error("RunRange returned from a corrupt model without panicking")
		}
	}()
	RunRange(m, s.test, 0, s.test.Frames)
}
