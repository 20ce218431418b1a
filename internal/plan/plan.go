// Package plan is BlazeIt's physical-plan layer: the vocabulary the
// cost-based optimizer (paper §5) uses to enumerate, price, choose, and
// report candidate execution plans.
//
// The engine's per-kind enumerators produce every viable candidate for a
// query — e.g. specialized-network query rewriting, control variates,
// plain adaptive sampling, and a naive scan for an aggregate — each priced
// in the same simulated-seconds currency execution is metered in, from
// cheap inputs only (stream configuration, cached held-out error
// statistics, filter selectivities). Choose picks the candidate with the
// lowest marginal estimate; Force selects a candidate by name, which is
// how query hints and the experiment baselines run alternative plans
// through the same machinery.
//
// Candidate selection uses the marginal (per-execution) estimate, not the
// total: one-time index investments — specialized-network training and
// whole-day labeling inference — are excluded from the comparison,
// following the paper's "BlazeIt (indexed)" accounting in which those
// costs amortize across every query over the same class. Excluding them
// also keeps the pick cache-state-independent: a choice that flipped
// between cold and warm caches would make repeated queries
// non-deterministic. Ties resolve to enumeration order, so enumerators
// list the preferred plan first.
//
// Marginal estimates may additionally be calibrated by execution feedback:
// the engine's planner multiplies each candidate's raw marginal by a
// correction factor fitted from that candidate's observed actual-vs-
// estimate cost ratios (see the calibration store in internal/core). A
// calibrated pick can therefore evolve as a deployment observes its
// workload — deliberately, and answer-neutrally: every candidate is
// pinned bit-identical, so calibration reorders candidate choice only.
// Costed carries both the raw and the calibrated marginal so reports stay
// auditable.
package plan

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/stats"
)

// Cost is an estimated simulated-cost breakdown, mirroring the execution
// cost meter's components. Estimates are expected charges for the next
// execution: training and inference components reflect the engine's cache
// state (zero when already paid), so a candidate's estimate is directly
// comparable to the Stats the execution actually records.
type Cost struct {
	// DetectorCalls estimates reference-detector invocations.
	DetectorCalls float64 `json:"detector_calls"`
	// DetectorSeconds is their simulated cost.
	DetectorSeconds float64 `json:"detector_seconds"`
	// SpecNNSeconds covers specialized-network inference.
	SpecNNSeconds float64 `json:"specnn_seconds"`
	// FilterSeconds covers cheap filters.
	FilterSeconds float64 `json:"filter_seconds"`
	// TrainSeconds covers training and threshold computation.
	TrainSeconds float64 `json:"train_seconds"`
}

// Total is the full estimated simulated cost, training included.
func (c Cost) Total() float64 {
	return c.DetectorSeconds + c.SpecNNSeconds + c.FilterSeconds + c.TrainSeconds
}

// Description identifies a physical plan.
type Description struct {
	// Name is the plan's unique name within its family; it is also the
	// Stats.Plan label the plan's execution records.
	Name string `json:"name"`
	// Family is the query kind the plan answers (aggregate, scrubbing, …).
	Family string `json:"family"`
	// Detail is a one-line human-readable summary of the strategy.
	Detail string `json:"detail,omitempty"`
}

// Plan is one executable physical plan for an analyzed query.
//
// Plans are resumable operators, not one-shot functions: Open returns an
// Execution that consumes the plan's work in deterministic progress units
// and can suspend at any unit boundary into a serializable state blob.
// The contract every implementation owes: an execution that suspends,
// round-trips its state through Snapshot/Restore (possibly in another
// process), and continues is bit-identical — answers, rows, and the full
// simulated cost meter — to one uninterrupted run over the same input, at
// every parallelism level. Run is the one-shot convenience over Open.
type Plan[R any] interface {
	// Describe identifies the plan.
	Describe() Description
	// EstimateCost prices the plan's next execution from cheap inputs,
	// without executing it.
	EstimateCost() Cost
	// Open starts a resumable execution of the plan.
	Open() (Execution[R], error)
}

// Execution is one resumable run of a physical plan. Progress is measured
// in plan-defined units consumed in a deterministic order: visited frames
// for scan plans, measured samples for adaptive sampling plans, rank-order
// positions for confidence-ranked search. An implementation may overshoot a
// RunTo watermark to an internal boundary of its own; because the unit
// sequence is fixed, where an execution suspends can never change what it
// computes.
type Execution[R any] interface {
	// RunTo executes until at least `units` progress units are consumed or
	// the plan completes; units < 0 runs to completion.
	RunTo(units int) error
	// Done reports whether the execution has completed: no further RunTo
	// can change its result for the current input.
	Done() bool
	// Pos returns the number of progress units consumed so far; Total
	// returns the number the full input holds (-1 when unknown up front,
	// as for adaptive sampling).
	Pos() int
	Total() int
	// Snapshot serializes the execution's accumulator state — frame
	// position, PRNG stream positions, partial aggregates, LIMIT progress,
	// emitted rows, the partial cost meter — into a self-contained blob.
	Snapshot() ([]byte, error)
	// Restore rewinds a freshly opened execution to a snapshotted state.
	// When the plan's input has grown since the snapshot (a live stream
	// extended by ingest), implementations either continue over the new
	// suffix (prefix-decomposable scans) or deterministically restart over
	// the full new input (population-dependent sampling and ranking) —
	// both yield exactly what an uninterrupted run over the new input
	// yields.
	Restore(state []byte) error
	// Result returns the execution's outcome; it must only be called once
	// Done, and must not mutate execution state (a standing query reads a
	// result, ingests more input, and continues).
	Result() (R, error)
}

// Run executes a plan to completion — the one-shot path every
// non-standing query takes.
func Run[R any](p Plan[R]) (R, error) {
	var zero R
	ex, err := p.Open()
	if err != nil {
		return zero, err
	}
	if err := ex.RunTo(-1); err != nil {
		return zero, err
	}
	return ex.Result()
}

// Costed pairs a Plan with the planner's selection metadata.
type Costed[R any] struct {
	// Plan is the candidate itself; nil only for infeasible candidates.
	Plan Plan[R]
	// MarginalSeconds is the decision metric: the estimated
	// per-execution cost excluding one-time index investments (training
	// and whole-day labeling inference — the paper's indexed
	// accounting). It is a pure function of the query, the cached
	// planning statistics, and the planner's calibration state — never of
	// cache state — so the pick is deterministic for a fixed calibration
	// store.
	MarginalSeconds float64
	// RawMarginal is MarginalSeconds before calibration: the enumerator's
	// static estimate. Zero means no calibration was applied (the two
	// metrics coincide).
	RawMarginal float64
	// Correction is the multiplicative calibration factor applied to
	// RawMarginal to produce MarginalSeconds; zero or one means none.
	Correction float64
	// Infeasible, when non-empty, explains why the candidate cannot run
	// for this query (it still appears in EXPLAIN output).
	Infeasible string
	// Gated marks plans that are enumerable and hint-forcible but never
	// chosen by the cost-based pick: the idealized oracle baselines,
	// which assume knowledge a deployed system does not have.
	Gated bool
	// GateReason, when non-empty, overrides the report's default gating
	// explanation for this candidate.
	GateReason string
	// Accuracy is the multiplicative accuracy factor claimed for the
	// estimate: the actual cost of a fresh execution is expected within
	// [Total/Accuracy, Total*Accuracy]. Zero means exact (within float
	// noise).
	Accuracy float64
	// UpperBoundOnly marks estimates that are upper bounds: early-exit
	// (LIMIT) scans may cost arbitrarily less than estimated.
	UpperBoundOnly bool
	// Prepared records where the enumeration found the candidate family's
	// prepared planning state: "hit" (served from the engine's store),
	// "miss" (computed by this enumeration), or empty when the family has
	// none. Cache provenance, so NewReport leaves it out; EXPLAIN adds it.
	Prepared string
}

// Choose picks the feasible, ungated candidate with the lowest marginal
// estimate; ties resolve to enumeration order, so enumerators list the
// preferred plan first. It returns an error when no candidate is
// choosable.
func Choose[R any](cands []Costed[R]) (*Costed[R], error) {
	best := -1
	for i := range cands {
		c := &cands[i]
		if c.Infeasible != "" || c.Gated || c.Plan == nil {
			continue
		}
		if best < 0 || c.MarginalSeconds < cands[best].MarginalSeconds {
			best = i
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("plan: no feasible candidate among %s", candidateNames(cands))
	}
	return &cands[best], nil
}

// Force selects the first candidate matching one of the given names
// (case-insensitive), for hint-forced execution. Gated candidates may be
// forced; infeasible ones may not.
func Force[R any](cands []Costed[R], names ...string) (*Costed[R], error) {
	for _, name := range names {
		for i := range cands {
			c := &cands[i]
			if c.Plan == nil || !strings.EqualFold(c.Plan.Describe().Name, name) {
				continue
			}
			if c.Infeasible != "" {
				return nil, fmt.Errorf("plan: %s is not executable for this query: %s", c.Plan.Describe().Name, c.Infeasible)
			}
			return c, nil
		}
	}
	return nil, fmt.Errorf("plan: no candidate named %s; candidates are %s",
		strings.Join(names, " or "), candidateNames(cands))
}

func candidateNames[R any](cands []Costed[R]) string {
	names := make([]string, 0, len(cands))
	for i := range cands {
		if cands[i].Plan != nil {
			names = append(names, cands[i].Plan.Describe().Name)
		}
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// Candidate is the report/wire form of one enumerated plan.
type Candidate struct {
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	// Estimate is the expected cost breakdown of the next execution.
	Estimate Cost `json:"estimate"`
	// EstimateSeconds is Estimate.Total(), denormalized for display.
	EstimateSeconds float64 `json:"estimate_seconds"`
	// MarginalSeconds is the cache-independent decision metric the
	// planner compared candidates by — calibrated when the planner has
	// feedback for this candidate.
	MarginalSeconds float64 `json:"marginal_seconds"`
	// RawMarginalSeconds is the enumerator's static marginal estimate
	// before calibration.
	RawMarginalSeconds float64 `json:"raw_marginal_seconds"`
	// CalibratedEstimateSeconds is EstimateSeconds scaled by the
	// correction factor: the planner's best guess at the next execution's
	// actual total cost.
	CalibratedEstimateSeconds float64 `json:"calibrated_estimate_seconds"`
	// CorrectionFactor is the multiplicative calibration applied to this
	// candidate's estimates (1 when the calibration store has no feedback
	// for it).
	CorrectionFactor float64 `json:"correction_factor"`
	// Feasible reports whether the candidate could run for this query.
	Feasible bool `json:"feasible"`
	// Reason explains infeasibility or gating.
	Reason string `json:"reason,omitempty"`
	// Chosen marks the candidate the planner picked.
	Chosen bool `json:"chosen"`
	// Accuracy is the claimed multiplicative estimate accuracy factor.
	Accuracy float64 `json:"accuracy,omitempty"`
	// UpperBoundOnly marks upper-bound estimates (early-exit scans).
	UpperBoundOnly bool `json:"upper_bound_only,omitempty"`
	// Prepared is EXPLAIN's store provenance for the candidate's planning
	// state: "hit", "miss", or absent (see Costed.Prepared). Executed
	// reports never carry it.
	Prepared string `json:"prepared,omitempty"`
}

// Report records one planning decision: the candidate table, the pick,
// and — after execution — the actual cost, for estimate-vs-actual
// accuracy tracking.
type Report struct {
	// Family is the plan family (query kind) planned for.
	Family string `json:"family"`
	// Chosen is the picked candidate's name.
	Chosen string `json:"chosen"`
	// Forced reports whether a hint or baseline forced the pick.
	Forced bool `json:"forced,omitempty"`
	// EstimateSeconds is the chosen candidate's estimated total cost
	// (raw, before calibration).
	EstimateSeconds float64 `json:"estimate_seconds"`
	// CalibratedSeconds is the chosen candidate's calibrated total-cost
	// estimate; equals EstimateSeconds when no correction applied.
	CalibratedSeconds float64 `json:"calibrated_seconds,omitempty"`
	// ActualSeconds is the executed plan's recorded total cost; zero for
	// EXPLAIN reports, which do not execute.
	ActualSeconds float64 `json:"actual_seconds,omitempty"`
	// IndexChunksSkipped counts zone-map skip decisions the executed plan
	// made against the materialized frame index: chunk ranges proven
	// unable to satisfy the predicate, elided without reading per-frame
	// columns. Skips never change answers or the simulated cost meter.
	IndexChunksSkipped int `json:"index_chunks_skipped,omitempty"`
	// IndexFramesSkipped counts the frames those skipped ranges covered.
	IndexFramesSkipped int `json:"index_frames_skipped,omitempty"`
	// ConjunctionChunksSkipped counts the subset of chunk skips proven by
	// the conjunction kernel (predicate combinations refuting a chunk).
	ConjunctionChunksSkipped int `json:"conjunction_chunks_skipped,omitempty"`
	// DensityChunksOutOfOrder counts chunks a density-ordered schedule
	// visited out of temporal order; zero for temporal plans.
	DensityChunksOutOfOrder int `json:"density_chunks_out_of_order,omitempty"`
	// Candidates is the full table, in enumeration order.
	Candidates []Candidate `json:"candidates"`
}

// NewReport builds a Report from the candidate set and the pick.
func NewReport[R any](family string, cands []Costed[R], chosen *Costed[R], forced bool) *Report {
	rep := &Report{Family: family, Forced: forced}
	for i := range cands {
		c := &cands[i]
		cand := Candidate{
			Feasible:           c.Infeasible == "",
			Reason:             c.Infeasible,
			Accuracy:           c.Accuracy,
			UpperBoundOnly:     c.UpperBoundOnly,
			MarginalSeconds:    c.MarginalSeconds,
			RawMarginalSeconds: c.RawMarginal,
			CorrectionFactor:   c.Correction,
		}
		if cand.RawMarginalSeconds == 0 {
			cand.RawMarginalSeconds = c.MarginalSeconds
		}
		if cand.CorrectionFactor == 0 {
			cand.CorrectionFactor = 1
		}
		if c.Plan != nil {
			d := c.Plan.Describe()
			cand.Name = d.Name
			cand.Detail = d.Detail
			if c.Infeasible == "" {
				cand.Estimate = c.Plan.EstimateCost()
				cand.EstimateSeconds = cand.Estimate.Total()
				cand.CalibratedEstimateSeconds = cand.EstimateSeconds * cand.CorrectionFactor
			}
		}
		if c.Gated && cand.Reason == "" {
			if c.GateReason != "" {
				cand.Reason = c.GateReason
			} else {
				cand.Reason = "oracle baseline: forcible by hint, never cost-chosen"
			}
		}
		if c == chosen {
			cand.Chosen = true
			rep.Chosen = cand.Name
			rep.EstimateSeconds = cand.EstimateSeconds
			rep.CalibratedSeconds = cand.CalibratedEstimateSeconds
		}
		rep.Candidates = append(rep.Candidates, cand)
	}
	return rep
}

// AdaptiveSamples estimates the terminal sample count of the §6.1
// adaptive sampling procedure for an estimator with per-sample standard
// deviation sigma, absolute error target eps at the given confidence,
// value range rangeK, and population size. It reproduces the sampler's
// round structure — a K/eps startup batch grown linearly until the CLT
// bound passes — so the estimate lands on the same batch boundary the
// real run stops at (the finite-population correction is ignored, making
// the estimate slightly conservative).
func AdaptiveSamples(sigma, eps, conf, rangeK float64, population int) int {
	if population <= 0 || eps <= 0 {
		return 0
	}
	startup := int(math.Ceil(rangeK / eps))
	if startup < 2 {
		startup = 2
	}
	if startup > population {
		startup = population
	}
	z := stats.ZScoreForConfidence(conf)
	// CLT terminal n: z*sigma/sqrt(n) < eps.
	need := int(math.Ceil(z * z * sigma * sigma / (eps * eps)))
	if need < startup {
		need = startup
	}
	// Round up to the batch boundary the adaptive loop stops on.
	rounds := (need + startup - 1) / startup
	n := rounds * startup
	if n > population {
		n = population
	}
	return n
}

// GeometricProbes estimates how many candidates a scan probing in a fixed
// order must verify to find limit matches when each probe hits with
// probability hitRate, capped at the population. A zero hit rate prices
// the full scan.
func GeometricProbes(limit int, hitRate float64, population int) int {
	if limit <= 0 || population <= 0 {
		return 0
	}
	// Compare in float space before converting: a no-LIMIT query passes
	// limit = MaxInt, and float64(MaxInt)/hitRate overflows an int
	// conversion into garbage.
	if hitRate <= 0 || float64(limit)/hitRate >= float64(population) {
		return population
	}
	return int(math.Ceil(float64(limit) / hitRate))
}
