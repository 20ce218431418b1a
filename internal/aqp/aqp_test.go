package aqp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/stats"
)

// synthPopulation builds a population of counts plus a correlated control
// signal with the given correlation strength.
func synthPopulation(n int, corrNoise float64, seed int64) (m, t []float64) {
	rng := rand.New(rand.NewSource(seed))
	m = make([]float64, n)
	t = make([]float64, n)
	for i := range m {
		// Bursty counts in 0..6.
		base := rng.Float64() * 3
		if rng.Float64() < 0.05 {
			base += rng.Float64() * 3
		}
		m[i] = math.Floor(base)
		t[i] = m[i] + rng.NormFloat64()*corrNoise
	}
	return m, t
}

func popMean(xs []float64) float64 { return stats.Mean(xs) }

func TestSamplerDistinct(t *testing.T) {
	s := NewSampler(1000, 42)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		f := s.Next()
		if f < 0 || f >= 1000 {
			t.Fatalf("frame %d out of range", f)
		}
		if seen[f] {
			t.Fatalf("duplicate frame %d", f)
		}
		seen[f] = true
	}
}

func TestSamplerCoverage(t *testing.T) {
	// Exhausting the sampler must enumerate the full population.
	s := NewSampler(100, 7)
	sum := 0
	for i := 0; i < 100; i++ {
		sum += s.Next()
	}
	if sum != 99*100/2 {
		t.Errorf("sampler did not cover population: sum = %d", sum)
	}
}

func TestSampleMeetsErrorTarget(t *testing.T) {
	m, _ := synthPopulation(200000, 0, 1)
	truth := popMean(m)
	misses := 0
	const runs = 40
	for r := 0; r < runs; r++ {
		res := Sample(Options{
			ErrorTarget: 0.1,
			Confidence:  0.95,
			Range:       7,
			Population:  len(m),
			Seed:        int64(r),
		}, func(f int) float64 { return m[f] })
		if !res.Converged {
			t.Fatalf("run %d did not converge", r)
		}
		if math.Abs(res.Estimate-truth) > 0.1 {
			misses++
		}
	}
	// 95% confidence: allow a few misses out of 40, not many.
	if misses > 5 {
		t.Errorf("%d/%d runs exceeded the error bound", misses, runs)
	}
}

func TestSampleStartupSize(t *testing.T) {
	m, _ := synthPopulation(100000, 0, 2)
	res := Sample(Options{
		ErrorTarget: 0.05,
		Range:       7,
		Population:  len(m),
		Seed:        3,
	}, func(f int) float64 { return m[f] })
	// Startup alone is K/eps = 140.
	if res.Samples < 140 {
		t.Errorf("samples %d below the K/eps startup floor 140", res.Samples)
	}
}

func TestSampleBudgetExhaustion(t *testing.T) {
	// Tiny population with an unreachable error target: must consume the
	// whole population and report non-convergence with the exact mean.
	m := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	res := Sample(Options{
		ErrorTarget: 1e-9,
		Range:       10,
		Population:  len(m),
		Seed:        4,
	}, func(f int) float64 { return m[f] })
	if res.Converged && res.Samples < len(m) {
		t.Error("cannot converge to 1e-9 by sampling a 10-element population")
	}
	if res.Samples != len(m) {
		t.Errorf("samples = %d, want full population", res.Samples)
	}
	if math.Abs(res.Estimate-4.5) > 1e-9 {
		t.Errorf("exhaustive estimate = %v, want 4.5", res.Estimate)
	}
}

func TestControlVariatesUnbiased(t *testing.T) {
	m, ts := synthPopulation(100000, 0.5, 5)
	truth := popMean(m)
	tau := popMean(ts)
	varT := stats.Variance(ts)
	var errs []float64
	for r := 0; r < 30; r++ {
		res := ControlVariates(Options{
			ErrorTarget: 0.05,
			Range:       7,
			Population:  len(m),
			Seed:        int64(100 + r),
		}, func(f int) float64 { return m[f] },
			func(f int) float64 { return ts[f] }, tau, varT)
		errs = append(errs, res.Estimate-truth)
	}
	bias := stats.Mean(errs)
	if math.Abs(bias) > 0.02 {
		t.Errorf("control variates bias = %v, want ~0", bias)
	}
}

func TestControlVariatesReducesSamples(t *testing.T) {
	// Strongly correlated control signal: CV should need far fewer samples
	// than plain sampling at the same error target.
	m, ts := synthPopulation(200000, 0.3, 6)
	tau := popMean(ts)
	varT := stats.Variance(ts)

	var plainTotal, cvTotal int
	for r := 0; r < 10; r++ {
		opts := Options{
			ErrorTarget: 0.02,
			Range:       7,
			Population:  len(m),
			Seed:        int64(200 + r),
		}
		plain := Sample(opts, func(f int) float64 { return m[f] })
		cv := ControlVariates(opts, func(f int) float64 { return m[f] },
			func(f int) float64 { return ts[f] }, tau, varT)
		plainTotal += plain.Samples
		cvTotal += cv.Samples
		if cv.Correlation < 0.8 {
			t.Errorf("run %d: correlation %.3f unexpectedly low", r, cv.Correlation)
		}
	}
	if cvTotal >= plainTotal {
		t.Errorf("control variates used %d samples vs plain %d; expected a reduction", cvTotal, plainTotal)
	}
	// The paper reports up to ~2x on real signals; a near-perfect signal
	// should do at least 1.5x here.
	if float64(plainTotal)/float64(cvTotal) < 1.5 {
		t.Errorf("reduction %0.2fx below 1.5x (plain %d, cv %d)",
			float64(plainTotal)/float64(cvTotal), plainTotal, cvTotal)
	}
}

func TestControlVariatesMeetsErrorTarget(t *testing.T) {
	m, ts := synthPopulation(200000, 0.5, 8)
	truth := popMean(m)
	tau := popMean(ts)
	varT := stats.Variance(ts)
	misses := 0
	const runs = 40
	for r := 0; r < runs; r++ {
		res := ControlVariates(Options{
			ErrorTarget: 0.05,
			Range:       7,
			Population:  len(m),
			Seed:        int64(300 + r),
		}, func(f int) float64 { return m[f] },
			func(f int) float64 { return ts[f] }, tau, varT)
		if math.Abs(res.Estimate-truth) > 0.05 {
			misses++
		}
	}
	if misses > 5 {
		t.Errorf("%d/%d CV runs exceeded the error bound", misses, runs)
	}
}

func TestControlVariatesUselessSignal(t *testing.T) {
	// An uncorrelated signal must not hurt correctness (and c should be
	// near zero).
	m, _ := synthPopulation(100000, 0, 9)
	rng := rand.New(rand.NewSource(10))
	noise := make([]float64, len(m))
	for i := range noise {
		noise[i] = rng.NormFloat64()
	}
	truth := popMean(m)
	res := ControlVariates(Options{
		ErrorTarget: 0.05,
		Range:       7,
		Population:  len(m),
		Seed:        11,
	}, func(f int) float64 { return m[f] },
		func(f int) float64 { return noise[f] }, popMean(noise), stats.Variance(noise))
	if math.Abs(res.Estimate-truth) > 0.06 {
		t.Errorf("estimate %v vs truth %v", res.Estimate, truth)
	}
	if math.Abs(res.C) > 0.5 {
		t.Errorf("c = %v for uncorrelated signal, want near 0", res.C)
	}
}

func TestControlVariatesZeroVarianceSignal(t *testing.T) {
	m, _ := synthPopulation(50000, 0, 12)
	res := ControlVariates(Options{
		ErrorTarget: 0.1,
		Range:       7,
		Population:  len(m),
		Seed:        13,
	}, func(f int) float64 { return m[f] },
		func(f int) float64 { return 1.0 }, 1.0, 0)
	if res.C != 0 {
		t.Errorf("constant signal should degrade to plain sampling, c = %v", res.C)
	}
	if !res.Converged {
		t.Error("plain fallback should converge")
	}
}

func TestTighterErrorNeedsMoreSamples(t *testing.T) {
	m, _ := synthPopulation(500000, 0, 14)
	prev := 0
	for _, eps := range []float64{0.1, 0.05, 0.02, 0.01} {
		res := Sample(Options{
			ErrorTarget: eps,
			Range:       7,
			Population:  len(m),
			Seed:        15,
		}, func(f int) float64 { return m[f] })
		if res.Samples < prev {
			t.Errorf("eps=%v used %d samples, fewer than looser bound's %d", eps, res.Samples, prev)
		}
		prev = res.Samples
	}
}
