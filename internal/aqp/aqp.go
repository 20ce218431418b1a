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
package aqp

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/hrand"
	"repro/internal/parallel"
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
	// Parallelism is the number of workers measuring drawn frames
	// concurrently (<= 1 measures serially). The draw schedule and the
	// accumulation order are fixed by the sharded sampler regardless of
	// this value, so estimates are bit-identical at every level; measure
	// functions must be safe for concurrent use when it exceeds 1.
	Parallelism int
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

// samplerShards is the fixed number of PRNG shards the sharded sampler
// partitions the population into. Fixed — never derived from the
// parallelism level — so the draw schedule is identical however many
// workers measure the draws.
const samplerShards = 32

// aqpSalt namespaces the sampler's hash draws within the hrand domain.
const aqpSalt int64 = 0xaa9b

// shardedSampler draws uniformly without replacement from [0, population)
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
type shardedSampler struct {
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

func newShardedSampler(population int, seed int64) *shardedSampler {
	n := samplerShards
	if n > population {
		n = population
	}
	if n < 1 {
		n = 1
	}
	s := &shardedSampler{shards: make([]samplerShard, n), perm: make([]int, n)}
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

// next returns the next distinct frame; it must be called at most
// population times.
func (s *shardedSampler) next() int {
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
		sh.remap[i], sh.remap[j] = vj, vi
		sh.drawn++
		return sh.lo + vj
	}
}

// SamplerState is the serializable draw state of the sharded sampler: the
// round-robin cursor plus, per shard, the number of draws made and the
// lazy Fisher–Yates remap entries. The shard streams themselves need no
// state beyond the draw count — the k-th draw is the pure hash
// U64(salt, seed, shard, k).
type SamplerState struct {
	Cur    int                `json:"cur"`
	Shards []SamplerShardSave `json:"shards"`
}

// SamplerShardSave is one shard's draw state.
type SamplerShardSave struct {
	Drawn int      `json:"drawn"`
	Remap [][2]int `json:"remap,omitempty"`
}

// state snapshots the sampler.
func (s *shardedSampler) state() SamplerState {
	st := SamplerState{Cur: s.cur, Shards: make([]SamplerShardSave, len(s.shards))}
	for i := range s.shards {
		sh := &s.shards[i]
		sv := SamplerShardSave{Drawn: sh.drawn}
		for k, v := range sh.remap {
			sv.Remap = append(sv.Remap, [2]int{k, v})
		}
		// Sorted so serialized state is deterministic (maps iterate
		// randomly).
		sort.Slice(sv.Remap, func(a, b int) bool { return sv.Remap[a][0] < sv.Remap[b][0] })
		st.Shards[i] = sv
	}
	return st
}

// restore rewinds the sampler to a snapshotted state. The sampler must
// have been built over the same (population, seed); the shard count pins
// that.
func (s *shardedSampler) restore(st SamplerState) error {
	if len(st.Shards) != len(s.shards) {
		return fmt.Errorf("aqp: sampler state has %d shards, sampler has %d", len(st.Shards), len(s.shards))
	}
	s.cur = st.Cur
	for i := range s.shards {
		sh := &s.shards[i]
		sv := &st.Shards[i]
		sh.drawn = sv.Drawn
		sh.stream.SeekTo(int64(sv.Drawn))
		sh.remap = make(map[int]int, len(sv.Remap))
		for _, kv := range sv.Remap {
			sh.remap[kv[0]] = kv[1]
		}
	}
	return nil
}

// measureInto fills vals[i] = measure(frames[i]), fanning out to
// parallelism workers over contiguous chunks when asked. The output is
// positional, so accumulation order never depends on worker scheduling.
func measureInto(frames []int, vals []float64, parallelism int, measure func(frame int) float64) {
	if parallelism <= 1 || len(frames) < 2 {
		for i, f := range frames {
			vals[i] = measure(f)
		}
		return
	}
	parallel.For(parallelism, len(frames), func(i int) {
		vals[i] = measure(frames[i])
	})
}

// Sample runs the adaptive sampling procedure of §6.1 with measure giving
// the expensive per-frame value (e.g. the detector's object count). Each
// round's batch of frames is drawn up front from the sharded sampler and
// measured with Options.Parallelism workers; measure must be safe for
// concurrent use when that exceeds 1.
func Sample(opts Options, measure func(frame int) float64) Result {
	r := NewRun(opts, measure)
	r.RunTo(-1)
	return r.Result()
}

// ControlVariates runs adaptive sampling with the method of control
// variates (§6.3). signal gives the cheap per-frame control value t;
// tau and varT are its exact mean and variance over the whole population
// (computable because the specialized network is ~1000× cheaper than the
// detector). measure remains the expensive ground-truth value m.
func ControlVariates(opts Options, measure, signal func(frame int) float64, tau, varT float64) Result {
	r := NewControlVariatesRun(opts, measure, signal, tau, varT)
	r.RunTo(-1)
	return r.Result()
}

// RunState is the serializable suspension point of an adaptive sampling
// Run: the per-shard draw state and the partial moment accumulators. A
// run restored from it continues the exact draw-and-accumulate sequence
// an uninterrupted run performs, so suspend-then-resume estimates are
// bit-identical — adaptive rounds are the suspension granularity.
type RunState struct {
	// Population pins the frame population the state was drawn from: a
	// sampling schedule is meaningless over a different population, so
	// restoring onto a grown live stream must start a fresh run instead.
	Population int `json:"population"`
	// Rounds / Converged / CV fields mirror the partial Result.
	Rounds      int     `json:"rounds"`
	Converged   bool    `json:"converged"`
	StdErr      float64 `json:"std_err"`
	C           float64 `json:"c"`
	Correlation float64 `json:"correlation"`
	Done        bool    `json:"done"`
	// Sampler is the sharded sampler's draw state.
	Sampler SamplerState `json:"sampler"`
	// Acc holds the plain accumulator (Sample runs), Cov the paired one
	// (control-variates runs).
	Acc stats.OnlineState    `json:"acc"`
	Cov stats.OnlineCovState `json:"cov"`
}

// Run is a suspendable adaptive sampling execution: Sample (and
// ControlVariates) split into explicit rounds so a standing query can
// stop between rounds, serialize its state, and continue later with
// bit-identical results.
type Run struct {
	opts    Options
	z       float64
	smp     *shardedSampler
	measure func(frame int) float64
	signal  func(frame int) float64
	cv      bool
	tau     float64
	varT    float64

	acc    stats.Online
	mo     stats.OnlineCov
	res    Result
	done   bool
	frames []int
	vals   []float64
}

// NewRun starts a plain adaptive sampling run (the §6.1 procedure).
func NewRun(opts Options, measure func(frame int) float64) *Run {
	opts = opts.withDefaults()
	return &Run{
		opts:    opts,
		z:       stats.ZScoreForConfidence(opts.Confidence),
		smp:     newShardedSampler(opts.Population, opts.Seed),
		measure: measure,
	}
}

// NewControlVariatesRun starts an adaptive sampling run with the method
// of control variates (§6.3). A non-positive control variance degrades to
// plain sampling, exactly as ControlVariates does.
func NewControlVariatesRun(opts Options, measure, signal func(frame int) float64, tau, varT float64) *Run {
	if varT <= 0 {
		// A constant control signal cannot reduce variance.
		return NewRun(opts, measure)
	}
	r := NewRun(opts, measure)
	r.cv = true
	r.signal = signal
	r.tau = tau
	r.varT = varT
	return r
}

// Done reports whether the run has terminated (converged or budget
// exhausted).
func (r *Run) Done() bool { return r.done }

// Samples returns the number of expensive measurements taken so far.
func (r *Run) Samples() int {
	if r.cv {
		return r.mo.N()
	}
	return r.acc.N()
}

// step executes one adaptive round: draw a batch, measure it (fanning out
// per Options.Parallelism), accumulate sequentially, and apply the CLT
// stopping rule. The body is the former Sample/ControlVariates loop body,
// verbatim, so one-shot and stepped executions are bit-identical.
func (r *Run) step() {
	r.res.Rounds++
	// Linear growth: each round adds another startup-sized batch.
	batch := r.opts.startupSamples()
	if rem := r.opts.MaxSamples - r.Samples(); batch > rem {
		batch = rem
	}
	r.frames = r.frames[:0]
	for i := 0; i < batch; i++ {
		r.frames = append(r.frames, r.smp.next())
	}
	if cap(r.vals) < len(r.frames) {
		r.vals = make([]float64, len(r.frames))
	}
	r.vals = r.vals[:len(r.frames)]
	// The expensive measurement fans out; any cheap control signal is
	// read during sequential accumulation.
	measureInto(r.frames, r.vals, r.opts.Parallelism, r.measure)
	var se float64
	if r.cv {
		for i, f := range r.frames {
			r.mo.Add(r.vals[i], r.signal(f))
		}
		// Optimal coefficient from the samples so far, using the exact
		// control variance (lower-variance estimate than the sample one).
		c := -r.mo.Covariance() / r.varT
		r.res.C = c
		r.res.Correlation = r.mo.Correlation()
		// Var(m + c t) = Var(m) + c² Var(t) + 2c Cov(m, t).
		v := r.mo.VarianceX() + c*c*r.varT + 2*c*r.mo.Covariance()
		if v < 0 {
			v = 0
		}
		se = math.Sqrt(v/float64(r.mo.N())) *
			stats.FinitePopulationCorrection(r.mo.N(), r.opts.Population)
	} else {
		for _, v := range r.vals {
			r.acc.Add(v)
		}
		se = r.acc.StdDev() / math.Sqrt(float64(r.acc.N())) *
			stats.FinitePopulationCorrection(r.acc.N(), r.opts.Population)
	}
	if r.z*se < r.opts.ErrorTarget {
		r.res.Converged = true
		r.res.StdErr = se
		r.done = true
		return
	}
	if r.Samples() >= r.opts.MaxSamples {
		r.res.StdErr = se
		r.done = true
	}
}

// RunTo executes adaptive rounds until at least `samples` measurements
// have been taken or the run terminates; samples < 0 runs to completion.
func (r *Run) RunTo(samples int) {
	for !r.done && (samples < 0 || r.Samples() < samples) {
		r.step()
	}
}

// Result reports the run's outcome: final after Done, the running
// estimate otherwise.
func (r *Run) Result() Result {
	res := r.res
	if r.cv {
		res.Estimate = r.mo.MeanX() + res.C*(r.mo.MeanY()-r.tau)
		res.Samples = r.mo.N()
	} else {
		res.Estimate = r.acc.Mean()
		res.Samples = r.acc.N()
	}
	return res
}

// State snapshots the run for later Restore.
func (r *Run) State() RunState {
	return RunState{
		Population:  r.opts.Population,
		Rounds:      r.res.Rounds,
		Converged:   r.res.Converged,
		StdErr:      r.res.StdErr,
		C:           r.res.C,
		Correlation: r.res.Correlation,
		Done:        r.done,
		Sampler:     r.smp.state(),
		Acc:         r.acc.State(),
		Cov:         r.mo.State(),
	}
}

// Restore rewinds the run to a snapshotted state. It fails when the
// state was drawn from a different population (the caller should start a
// fresh run over the new population instead).
func (r *Run) Restore(st RunState) error {
	if st.Population != r.opts.Population {
		return fmt.Errorf("aqp: state covers population %d, run targets %d", st.Population, r.opts.Population)
	}
	r.res.Rounds = st.Rounds
	r.res.Converged = st.Converged
	r.res.StdErr = st.StdErr
	r.res.C = st.C
	r.res.Correlation = st.Correlation
	r.done = st.Done
	r.acc.Restore(st.Acc)
	r.mo.Restore(st.Cov)
	return r.smp.restore(st.Sampler)
}
