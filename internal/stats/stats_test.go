package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{}, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.xs); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestVariance(t *testing.T) {
	if got := Variance([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !almostEqual(got, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, 32.0/7.0)
	}
	if got := Variance([]float64{3}); got != 0 {
		t.Errorf("Variance of single sample = %v, want 0", got)
	}
	if got := Variance(nil); got != 0 {
		t.Errorf("Variance(nil) = %v, want 0", got)
	}
}

func TestCovarianceMatchesVarianceOnSelf(t *testing.T) {
	xs := []float64{1, 3, 2, 8, 5, 4}
	if got, want := Covariance(xs, xs), Variance(xs); !almostEqual(got, want, 1e-12) {
		t.Errorf("Cov(x,x) = %v, want Var(x) = %v", got, want)
	}
}

func TestCovarianceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Covariance([]float64{1, 2}, []float64{1})
}

func TestCorrelationPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Correlation(xs, ys); !almostEqual(got, 1, 1e-12) {
		t.Errorf("Correlation = %v, want 1", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Correlation(xs, neg); !almostEqual(got, -1, 1e-12) {
		t.Errorf("Correlation = %v, want -1", got)
	}
	flat := []float64{3, 3, 3, 3, 3}
	if got := Correlation(xs, flat); got != 0 {
		t.Errorf("Correlation with constant = %v, want 0", got)
	}
}

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.025, -1.959963984540054},
		{0.95, 1.6448536269514722},
		{0.841344746068543, 1.0},
		{0.999, 3.090232306167813},
		{0.001, -3.090232306167813},
	}
	for _, c := range cases {
		if got := NormalQuantile(c.p); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("NormalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestNormalQuantileEdges(t *testing.T) {
	if !math.IsInf(NormalQuantile(0), -1) {
		t.Error("NormalQuantile(0) should be -Inf")
	}
	if !math.IsInf(NormalQuantile(1), 1) {
		t.Error("NormalQuantile(1) should be +Inf")
	}
	if !math.IsNaN(NormalQuantile(-0.1)) || !math.IsNaN(NormalQuantile(1.1)) {
		t.Error("out-of-range p should be NaN")
	}
}

func TestNormalQuantileInvertsCDF(t *testing.T) {
	f := func(u float64) bool {
		p := math.Mod(math.Abs(u), 0.98) + 0.01 // p in [0.01, 0.99)
		x := NormalQuantile(p)
		return almostEqual(NormalCDF(x), p, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestZScoreForConfidence(t *testing.T) {
	if got := ZScoreForConfidence(0.95); !almostEqual(got, 1.959963984540054, 1e-9) {
		t.Errorf("z(0.95) = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for confidence out of range")
		}
	}()
	ZScoreForConfidence(1.5)
}

func TestFinitePopulationCorrection(t *testing.T) {
	if got := FinitePopulationCorrection(1, 100); !almostEqual(got, 1, 1e-12) {
		t.Errorf("fpc(1,100) = %v, want 1", got)
	}
	if got := FinitePopulationCorrection(100, 100); got != 0 {
		t.Errorf("fpc(n=N) = %v, want 0", got)
	}
	if got := FinitePopulationCorrection(50, 1); got != 1 {
		t.Errorf("fpc with N<=1 = %v, want 1", got)
	}
	got := FinitePopulationCorrection(10, 100)
	want := math.Sqrt(90.0 / 99.0)
	if !almostEqual(got, want, 1e-12) {
		t.Errorf("fpc(10,100) = %v, want %v", got, want)
	}
}

func TestOnlineMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 1000)
	var o Online
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 5
		o.Add(xs[i])
	}
	if !almostEqual(o.Mean(), Mean(xs), 1e-9) {
		t.Errorf("online mean %v vs batch %v", o.Mean(), Mean(xs))
	}
	if !almostEqual(o.Variance(), Variance(xs), 1e-9) {
		t.Errorf("online var %v vs batch %v", o.Variance(), Variance(xs))
	}
	if o.N() != 1000 {
		t.Errorf("N = %d", o.N())
	}
}

func TestOnlineCovMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 500
	xs := make([]float64, n)
	ys := make([]float64, n)
	var o OnlineCov
	for i := 0; i < n; i++ {
		xs[i] = rng.NormFloat64()
		ys[i] = 0.8*xs[i] + 0.2*rng.NormFloat64()
		o.Add(xs[i], ys[i])
	}
	if !almostEqual(o.Covariance(), Covariance(xs, ys), 1e-9) {
		t.Errorf("online cov %v vs batch %v", o.Covariance(), Covariance(xs, ys))
	}
	if !almostEqual(o.VarianceX(), Variance(xs), 1e-9) {
		t.Errorf("online varX %v vs batch %v", o.VarianceX(), Variance(xs))
	}
	if !almostEqual(o.VarianceY(), Variance(ys), 1e-9) {
		t.Errorf("online varY %v vs batch %v", o.VarianceY(), Variance(ys))
	}
	if !almostEqual(o.Correlation(), Correlation(xs, ys), 1e-9) {
		t.Errorf("online corr %v vs batch %v", o.Correlation(), Correlation(xs, ys))
	}
	if !almostEqual(o.MeanX(), Mean(xs), 1e-9) || !almostEqual(o.MeanY(), Mean(ys), 1e-9) {
		t.Error("online means diverge from batch")
	}
}

func TestOnlineCovZeroValue(t *testing.T) {
	var o OnlineCov
	if o.Covariance() != 0 || o.VarianceX() != 0 || o.Correlation() != 0 {
		t.Error("zero-value OnlineCov should report zero moments")
	}
	o.Add(1, 2)
	if o.Covariance() != 0 {
		t.Error("single pair should report zero covariance")
	}
}

func TestBootstrapProbBelow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = 0.02 + 0.005*rng.NormFloat64() // errors around 0.02
	}
	p := BootstrapProbBelow(xs, 400, 0.05, rng, Mean)
	if p < 0.99 {
		t.Errorf("P(err<0.05) = %v, want near 1", p)
	}
	p = BootstrapProbBelow(xs, 400, 0.01, rng, Mean)
	if p > 0.01 {
		t.Errorf("P(err<0.01) = %v, want near 0", p)
	}
	if got := BootstrapProbBelow(nil, 10, 1, rng, Mean); got != 0 {
		t.Errorf("empty input: got %v, want 0", got)
	}
}

func TestMeanAbsError(t *testing.T) {
	got := MeanAbsError([]float64{1, 2, 3}, []float64{2, 2, 1})
	if !almostEqual(got, 1, 1e-12) {
		t.Errorf("MeanAbsError = %v, want 1", got)
	}
	if MeanAbsError(nil, nil) != 0 {
		t.Error("empty MAE should be 0")
	}
}

// Property: variance is translation invariant and scales quadratically.
func TestVarianceProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(50)
		xs := make([]float64, n)
		shifted := make([]float64, n)
		scaled := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
			shifted[i] = xs[i] + 42
			scaled[i] = xs[i] * 3
		}
		v := Variance(xs)
		return almostEqual(Variance(shifted), v, 1e-6*math.Max(1, v)) &&
			almostEqual(Variance(scaled), 9*v, 1e-6*math.Max(1, 9*v))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: correlation is bounded in [-1, 1].
func TestCorrelationBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(100)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = rng.NormFloat64()
		}
		r := Correlation(xs, ys)
		return r >= -1-1e-9 && r <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
