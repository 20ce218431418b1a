// Package aqp implements BlazeIt's approximate aggregation machinery
// (paper §6): an adaptive sampling procedure with an absolute error bound,
// and the control-variates estimator that uses a specialized network's
// per-frame signal to shrink sampling variance.
//
// The sampling procedure follows §6.1: it starts with K/ε samples (K being
// the range of the estimated quantity, from an ε-net argument), grows the
// sample linearly each round, and terminates when the CLT bound
// Q(1−δ/2)·σ̂/√n (with the finite-population correction) drops below the
// error target ε.
//
// Control variates (§6.3) replace each measured value m with
// m + c·(t − τ), where t is the specialized network's cheap signal for the
// same frame, τ = E[t] is computed exactly over the whole video (cheap,
// because the network runs at 10,000 fps), and c = −Cov(m,t)/Var(t) is
// estimated from the samples gathered so far. The corrected estimator is
// unbiased for any c and has variance (1 − Corr(m,t)²)·Var(m) at the
// optimal c — sampling stops earlier in exact proportion to the squared
// correlation.
//
// The package holds the procedure's two halves: the draw order (Sampler)
// and the estimator with its stopping rule (Estimator). Sample and
// ControlVariates are the serial loop over them; the engine runs the same
// two as a scan over the draw order, whose operator owns fan-out and
// suspension — a draw is the unit it can stop at, and since the k-th draw
// is a pure function of (seed, k) and the stopping rule fires only at
// round boundaries, where it stops never changes what it computes.
package aqp

import (
	"math"

	"repro/internal/hrand"
	"repro/internal/stats"
)

// Options configures an adaptive sampling run.
type Options struct {
	// ErrorTarget is the absolute error tolerance ε (required, > 0).
	ErrorTarget float64
	// Confidence is the confidence level (default 0.95).
	Confidence float64
	// Range is K, the range of the estimated quantity (max value + 1 for
	// counts). The startup sample size is K/ε.
	Range float64
	// Population is the number of frames sampling draws from (required).
	Population int
	// Seed drives frame selection.
	Seed int64
	// MaxSamples caps the sample budget; 0 means the whole population.
	MaxSamples int
}

func (o Options) withDefaults() Options {
	if o.Confidence == 0 {
		o.Confidence = 0.95
	}
	if o.Range <= 0 {
		o.Range = 1
	}
	if o.MaxSamples <= 0 || o.MaxSamples > o.Population {
		o.MaxSamples = o.Population
	}
	return o
}

// startupSamples returns the initial sample count K/ε, clamped to at least
// 2 and at most the population.
func (o Options) startupSamples() int {
	n := int(math.Ceil(o.Range / o.ErrorTarget))
	if n < 2 {
		n = 2
	}
	if n > o.MaxSamples {
		n = o.MaxSamples
	}
	return n
}

// Result reports an adaptive sampling outcome.
type Result struct {
	// Estimate is the final estimate of the mean.
	Estimate float64
	// Samples is the number of expensive measurements taken (detector
	// calls, in BlazeIt's use).
	Samples int
	// Rounds is the number of adaptive rounds executed.
	Rounds int
	// StdErr is the final standard error of the estimator.
	StdErr float64
	// Converged is false if the sample budget ran out before the error
	// target was met (the estimate is then exact over the population when
	// Samples == Population, or best-effort otherwise).
	Converged bool
	// C is the control-variate coefficient used (0 for plain sampling).
	C float64
	// Correlation is the sample correlation between measurement and
	// control signal (0 for plain sampling).
	Correlation float64
}

// samplerShards is the fixed number of PRNG shards the sampler partitions
// the population into. Fixed — never derived from the parallelism level —
// so the draw schedule is identical however many workers measure the
// draws.
const samplerShards = 32

// aqpSalt namespaces the sampler's hash draws within the hrand domain.
const aqpSalt int64 = 0xaa9b

// Sampler draws uniformly without replacement from [0, population)
// using one independent hrand.Stream per contiguous population shard,
// keyed by (salt, seed, shard). Draws cycle the shards round-robin in a
// seed-derived random order, so the k-th global draw is a pure function
// of (seed, k) — concurrent measurement of the drawn frames cannot
// perturb the schedule.
//
// Within a shard, draws are a lazy Fisher–Yates over the shard's range:
// exact sampling without replacement. Across shards, the visiting order
// is a seed-keyed permutation rather than shard-index order: shards are
// contiguous time ranges, and a small sample drawn in index order would
// cover only the start of the day, badly biasing estimates on streams
// with diurnal structure. The result is balanced (stratified) sampling,
// not simple random sampling: inclusion probabilities are uniform only
// up to the ±1-frame shard-size rounding (negligible at real population
// sizes), and because balanced allocation cannot increase the variance
// of a mean over proportional strata, the SRS-based CLT stopping rule
// the adaptive loop applies is conservative — the error bound still
// holds, at the cost of at most a few extra samples.
type Sampler struct {
	shards []samplerShard
	perm   []int // seed-derived shard visiting order
	cur    int   // round-robin cursor into perm
}

type samplerShard struct {
	stream *hrand.Stream
	lo     int
	size   int
	drawn  int
	remap  map[int]int
}

// NewSampler returns the draw order of a population under a seed.
func NewSampler(population int, seed int64) *Sampler {
	n := samplerShards
	if n > population {
		n = population
	}
	if n < 1 {
		n = 1
	}
	s := &Sampler{shards: make([]samplerShard, n), perm: make([]int, n)}
	for i := range s.shards {
		lo := i * population / n
		hi := (i + 1) * population / n
		s.shards[i] = samplerShard{
			stream: hrand.NewStream(aqpSalt, seed, int64(i)),
			lo:     lo,
			size:   hi - lo,
			remap:  make(map[int]int),
		}
	}
	// Fisher–Yates over the shard indices, driven by its own hrand stream
	// (key -1 cannot collide with a shard index).
	permStream := hrand.NewStream(aqpSalt, seed, -1)
	for i := range s.perm {
		s.perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := permStream.Intn(i + 1)
		s.perm[i], s.perm[j] = s.perm[j], s.perm[i]
	}
	return s
}

// Next returns the next distinct frame; it must be called at most
// population times.
func (s *Sampler) Next() int {
	for {
		sh := &s.shards[s.perm[s.cur]]
		s.cur = (s.cur + 1) % len(s.perm)
		if sh.drawn >= sh.size {
			continue // shard exhausted; round-robin skips it
		}
		i := sh.drawn
		j := i + sh.stream.Intn(sh.size-i)
		vi, ok := sh.remap[i]
		if !ok {
			vi = i
		}
		vj, ok := sh.remap[j]
		if !ok {
			vj = j
		}
		// Position i is drawn now and never read again: only j's value
		// moves.
		sh.remap[j] = vi
		sh.drawn++
		return sh.lo + vj
	}
}

// Estimator is the adaptive sampling procedure over a stream of draws:
// the moment accumulators, the control-variate correction when a signal is
// set, and the CLT stopping rule applied at each round boundary.
type Estimator struct {
	opts  Options
	z     float64
	round int
	// signal is the control variate's cheap per-frame value t, nil for
	// plain sampling; tau and varT are its exact mean and variance.
	signal    func(frame int) float64
	tau, varT float64

	acc  stats.Online    // plain sampling's measurements
	mo   stats.OnlineCov // (measurement, signal) pairs under control variates
	res  Result
	done bool
}

// NewEstimator starts plain adaptive sampling (the §6.1 procedure).
func NewEstimator(opts Options) *Estimator {
	opts = opts.withDefaults()
	return &Estimator{opts: opts, z: stats.ZScoreForConfidence(opts.Confidence), round: opts.startupSamples()}
}

// NewControlVariatesEstimator starts adaptive sampling with the method of
// control variates (§6.3): signal gives the cheap per-frame control value t,
// and tau and varT are its exact mean and variance over the whole
// population. A non-positive control variance degrades to plain sampling —
// a constant control signal cannot reduce variance.
func NewControlVariatesEstimator(opts Options, signal func(frame int) float64, tau, varT float64) *Estimator {
	e := NewEstimator(opts)
	if varT > 0 {
		e.signal, e.tau, e.varT = signal, tau, varT
	}
	return e
}

// RoundSize is the number of draws per round: the startup sample size K/ε,
// by which the sample also grows each round (linear growth). The last
// round is cut at the budget.
func (e *Estimator) RoundSize() int { return e.round }

// Budget is the most draws the procedure takes.
func (e *Estimator) Budget() int { return e.opts.MaxSamples }

// Samples returns the number of measurements folded so far.
func (e *Estimator) Samples() int {
	if e.signal != nil {
		return e.mo.N()
	}
	return e.acc.N()
}

// Add folds the measurement m of the drawn frame and, when that draw ends a
// round, applies the stopping rule; it reports whether sampling has ended.
// Draws must arrive in draw order. The rule fires only at round
// boundaries, so how a caller batches or pauses between draws never moves
// a stopping decision.
func (e *Estimator) Add(frame int, m float64) bool {
	if e.signal != nil {
		e.mo.Add(m, e.signal(frame))
	} else {
		e.acc.Add(m)
	}
	n := e.Samples()
	if n%e.round != 0 && n < e.opts.MaxSamples {
		return false
	}
	e.res.Rounds++
	var se float64
	if e.signal != nil {
		// Optimal coefficient from the samples so far, using the exact
		// control variance (lower-variance estimate than the sample one).
		c := -e.mo.Covariance() / e.varT
		e.res.C = c
		e.res.Correlation = e.mo.Correlation()
		// Var(m + c t) = Var(m) + c² Var(t) + 2c Cov(m, t).
		v := e.mo.VarianceX() + c*c*e.varT + 2*c*e.mo.Covariance()
		if v < 0 {
			v = 0
		}
		se = math.Sqrt(v/float64(n)) * stats.FinitePopulationCorrection(n, e.opts.Population)
	} else {
		se = e.acc.StdDev() / math.Sqrt(float64(n)) * stats.FinitePopulationCorrection(n, e.opts.Population)
	}
	if e.z*se < e.opts.ErrorTarget {
		e.res.Converged = true
		e.res.StdErr = se
		e.done = true
	} else if n >= e.opts.MaxSamples {
		e.res.StdErr = se
		e.done = true
	}
	return e.done
}

// Result reports the outcome: final once Add has reported the end, the
// running estimate otherwise.
func (e *Estimator) Result() Result {
	res := e.res
	if e.signal != nil {
		res.Estimate = e.mo.MeanX() + res.C*(e.mo.MeanY()-e.tau)
		res.Samples = e.mo.N()
	} else {
		res.Estimate = e.acc.Mean()
		res.Samples = e.acc.N()
	}
	return res
}

// State is the serializable form of an Estimator: the partial Result's
// stopping-rule fields and the moment accumulators. Acc holds plain
// sampling's, Cov the control-variates pairs.
type State struct {
	Rounds      int                  `json:"rounds"`
	Converged   bool                 `json:"converged"`
	StdErr      float64              `json:"std_err"`
	C           float64              `json:"c"`
	Correlation float64              `json:"correlation"`
	Done        bool                 `json:"done"`
	Acc         stats.OnlineState    `json:"acc"`
	Cov         stats.OnlineCovState `json:"cov"`
}

// State snapshots the estimator.
func (e *Estimator) State() State {
	return State{Rounds: e.res.Rounds, Converged: e.res.Converged, StdErr: e.res.StdErr,
		C: e.res.C, Correlation: e.res.Correlation, Done: e.done, Acc: e.acc.State(), Cov: e.mo.State()}
}

// Restore rewinds an estimator built with the same options to a snapshot.
func (e *Estimator) Restore(st State) {
	e.res.Rounds, e.res.Converged, e.res.StdErr = st.Rounds, st.Converged, st.StdErr
	e.res.C, e.res.Correlation, e.done = st.C, st.Correlation, st.Done
	e.acc.Restore(st.Acc)
	e.mo.Restore(st.Cov)
}

// Sample runs the adaptive sampling procedure of §6.1 with measure giving
// the expensive per-frame value (e.g. the detector's object count).
func Sample(opts Options, measure func(frame int) float64) Result {
	return run(NewEstimator(opts), measure)
}

// ControlVariates runs adaptive sampling with the method of control
// variates (§6.3). signal gives the cheap per-frame control value t;
// tau and varT are its exact mean and variance over the whole population
// (computable because the specialized network is ~1000× cheaper than the
// detector). measure remains the expensive ground-truth value m.
func ControlVariates(opts Options, measure, signal func(frame int) float64, tau, varT float64) Result {
	return run(NewControlVariatesEstimator(opts, signal, tau, varT), measure)
}

// run measures draws in order until the estimator stops.
func run(e *Estimator, measure func(frame int) float64) Result {
	smp := NewSampler(e.opts.Population, e.opts.Seed)
	for range e.opts.MaxSamples {
		f := smp.Next()
		if e.Add(f, measure(f)) {
			break
		}
	}
	return e.Result()
}
