// Package stats provides the statistical primitives BlazeIt's query
// optimizations are built on: normal quantiles for CLT-based stopping rules,
// sample moments with finite-population corrections, covariance and
// correlation for the control-variates estimator, online (Welford)
// accumulators for streaming sampling, and bootstrap confidence intervals
// for estimating specialized-network error on held-out data.
//
// All functions operate on float64 and are deterministic given a seeded
// *rand.Rand where randomness is involved.
package stats

import (
	"math"
	"math/rand"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased (n-1 denominator) sample variance of xs.
// It returns 0 when fewer than two samples are given.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	mu := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - mu
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Covariance returns the unbiased sample covariance of the paired samples
// xs and ys. The slices must have equal length; fewer than two pairs yield 0.
func Covariance(xs, ys []float64) float64 {
	n := len(xs)
	if n != len(ys) {
		panic("stats: covariance of slices with different lengths")
	}
	if n < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	s := 0.0
	for i := range xs {
		s += (xs[i] - mx) * (ys[i] - my)
	}
	return s / float64(n-1)
}

// Correlation returns the Pearson correlation coefficient of xs and ys.
// It returns 0 when either sequence has zero variance.
func Correlation(xs, ys []float64) float64 {
	vx, vy := Variance(xs), Variance(ys)
	if vx == 0 || vy == 0 {
		return 0
	}
	return Covariance(xs, ys) / math.Sqrt(vx*vy)
}

// FinitePopulationCorrection returns the factor sqrt((N-n)/(N-1)) applied to
// the standard error when sampling n items without replacement from a
// population of N. It returns 1 when N <= 1 or n >= N is not meaningful.
func FinitePopulationCorrection(n, populationN int) float64 {
	if populationN <= 1 || n <= 0 {
		return 1
	}
	if n >= populationN {
		return 0
	}
	return math.Sqrt(float64(populationN-n) / float64(populationN-1))
}

// NormalQuantile returns the quantile (percent-point function, the inverse
// CDF) of the standard normal distribution at probability p in (0, 1).
//
// It uses the Acklam rational approximation refined by one step of Halley's
// method, which is accurate to ~1e-15 over the full domain — far tighter
// than the stopping rules here require.
func NormalQuantile(p float64) float64 {
	if math.IsNaN(p) || p <= 0 || p >= 1 {
		if p == 0 {
			return math.Inf(-1)
		}
		if p == 1 {
			return math.Inf(1)
		}
		return math.NaN()
	}
	x := acklam(p)
	// One Halley refinement using the exact CDF via math.Erfc.
	e := 0.5*math.Erfc(-x/math.Sqrt2) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	return x - u/(1+x*u/2)
}

// acklam is Peter Acklam's rational approximation to the normal quantile.
func acklam(p float64) float64 {
	var a = [6]float64{
		-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00,
	}
	var b = [5]float64{
		-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01,
	}
	var c = [6]float64{
		-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00,
	}
	var d = [4]float64{
		7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00,
	}
	const plow = 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > 1-plow:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}

// NormalCDF returns the cumulative distribution function of the standard
// normal distribution at x.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// ZScoreForConfidence returns the two-sided z value for the given confidence
// level in (0, 1): the paper's Q(1 - delta/2) with delta = 1 - confidence.
// For example, ZScoreForConfidence(0.95) ≈ 1.96.
func ZScoreForConfidence(confidence float64) float64 {
	if confidence <= 0 || confidence >= 1 {
		panic("stats: confidence must be in (0, 1)")
	}
	delta := 1 - confidence
	return NormalQuantile(1 - delta/2)
}

// Online accumulates a running mean and variance with Welford's algorithm.
// The zero value is ready to use.
type Online struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates x into the accumulator.
func (o *Online) Add(x float64) {
	o.n++
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
}

// N returns the number of samples observed so far.
func (o *Online) N() int { return o.n }

// Mean returns the running mean, or 0 before any sample.
func (o *Online) Mean() float64 { return o.mean }

// Variance returns the unbiased running sample variance.
func (o *Online) Variance() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n-1)
}

// StdDev returns the unbiased running sample standard deviation.
func (o *Online) StdDev() float64 { return math.Sqrt(o.Variance()) }

// OnlineState is the serializable form of an Online accumulator, letting
// suspended sampling plans carry their partial moments across sessions.
// Restoring it reproduces the accumulator bit-for-bit: the fields are the
// accumulator's exact internals, not derived statistics.
type OnlineState struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
}

// State snapshots the accumulator.
func (o *Online) State() OnlineState {
	return OnlineState{N: o.n, Mean: o.mean, M2: o.m2}
}

// Restore sets the accumulator to a previously snapshotted state.
func (o *Online) Restore(s OnlineState) {
	o.n, o.mean, o.m2 = s.N, s.Mean, s.M2
}

// OnlineCov accumulates running covariance between two paired series, along
// with the marginal moments of each. The zero value is ready to use.
type OnlineCov struct {
	n       int
	meanX   float64
	meanY   float64
	m2x     float64
	m2y     float64
	cMoment float64
}

// Add incorporates the pair (x, y), updating means, variances, and the
// cross moment with Welford-style updates.
func (o *OnlineCov) Add(x, y float64) {
	o.n++
	n := float64(o.n)
	dx := x - o.meanX
	dy := y - o.meanY
	o.meanX += dx / n
	o.meanY += dy / n
	o.m2x += dx * (x - o.meanX)
	o.m2y += dy * (y - o.meanY)
	o.cMoment += dx * (y - o.meanY)
}

// N returns the number of pairs observed.
func (o *OnlineCov) N() int { return o.n }

// MeanX returns the running mean of the first series.
func (o *OnlineCov) MeanX() float64 { return o.meanX }

// MeanY returns the running mean of the second series.
func (o *OnlineCov) MeanY() float64 { return o.meanY }

// Covariance returns the unbiased running sample covariance.
func (o *OnlineCov) Covariance() float64 {
	if o.n < 2 {
		return 0
	}
	return o.cMoment / float64(o.n-1)
}

// VarianceX returns the unbiased running variance of the first series.
func (o *OnlineCov) VarianceX() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2x / float64(o.n-1)
}

// VarianceY returns the unbiased running variance of the second series.
func (o *OnlineCov) VarianceY() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2y / float64(o.n-1)
}

// Correlation returns the running Pearson correlation, or 0 if either
// variance is zero.
func (o *OnlineCov) Correlation() float64 {
	vx, vy := o.VarianceX(), o.VarianceY()
	if vx == 0 || vy == 0 {
		return 0
	}
	return o.Covariance() / math.Sqrt(vx*vy)
}

// OnlineCovState is the serializable form of an OnlineCov accumulator
// (see OnlineState).
type OnlineCovState struct {
	N       int     `json:"n"`
	MeanX   float64 `json:"mean_x"`
	MeanY   float64 `json:"mean_y"`
	M2X     float64 `json:"m2x"`
	M2Y     float64 `json:"m2y"`
	CMoment float64 `json:"c_moment"`
}

// State snapshots the accumulator.
func (o *OnlineCov) State() OnlineCovState {
	return OnlineCovState{N: o.n, MeanX: o.meanX, MeanY: o.meanY, M2X: o.m2x, M2Y: o.m2y, CMoment: o.cMoment}
}

// Restore sets the accumulator to a previously snapshotted state.
func (o *OnlineCov) Restore(s OnlineCovState) {
	o.n, o.meanX, o.meanY, o.m2x, o.m2y, o.cMoment = s.N, s.MeanX, s.MeanY, s.M2X, s.M2Y, s.CMoment
}

// Bootstrap resamples xs b times with replacement using rng and returns the
// bootstrap distribution of the statistic f.
func Bootstrap(xs []float64, b int, rng *rand.Rand, f func([]float64) float64) []float64 {
	if len(xs) == 0 {
		return nil
	}
	out := make([]float64, b)
	buf := make([]float64, len(xs))
	for i := 0; i < b; i++ {
		for j := range buf {
			buf[j] = xs[rng.Intn(len(xs))]
		}
		out[i] = f(buf)
	}
	return out
}

// BootstrapProbBelow estimates, via b bootstrap resamples, the probability
// that the statistic f of the sampling distribution of xs is at most bound.
// BlazeIt uses this to decide whether a specialized NN's held-out error is
// within the user's tolerance at the requested confidence (Algorithm 1).
func BootstrapProbBelow(xs []float64, b int, bound float64, rng *rand.Rand, f func([]float64) float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	dist := Bootstrap(xs, b, rng, f)
	c := 0
	for _, v := range dist {
		if v <= bound {
			c++
		}
	}
	return float64(c) / float64(len(dist))
}

// MeanAbsError returns the mean absolute difference between paired slices.
func MeanAbsError(pred, truth []float64) float64 {
	if len(pred) != len(truth) {
		panic("stats: MeanAbsError length mismatch")
	}
	if len(pred) == 0 {
		return 0
	}
	s := 0.0
	for i := range pred {
		s += math.Abs(pred[i] - truth[i])
	}
	return s / float64(len(pred))
}
