// Package blazeit is a Go reproduction of BlazeIt (Kang, Bailis, Zaharia —
// VLDB 2019): a video analytics system that accepts declarative FrameQL
// queries over the objects visible in video and optimizes them with
// specialized neural networks — query rewriting and control variates for
// aggregates, importance sampling for cardinality-limited scrubbing, and
// inferred label/content/temporal/spatial filters for content-based
// selection.
//
// The expensive reference object detector, the video streams, and the
// pixel features are simulated (see README.md's experiments section for
// the substitution table); the specialized networks are real models
// trained from scratch in pure Go. Query costs are reported in simulated
// seconds under the paper's cost model (an accurate detector at ~3 fps,
// specialized networks at 10,000 fps, cheap filters at 100,000 fps).
//
// # Quick start
//
//	sys, err := blazeit.Open("taipei", blazeit.Options{Scale: 0.05})
//	if err != nil { ... }
//	res, err := sys.Query(`
//	    SELECT FCOUNT(*) FROM taipei
//	    WHERE class = 'car'
//	    ERROR WITHIN 0.1 AT CONFIDENCE 95%`)
//	fmt.Println(res.Value, res.Stats.Plan, res.Stats.TotalSeconds())
//
// Six synthetic streams calibrated to the paper's Table 3 are built in:
// taipei, night-street, rialto, grand-canal, amsterdam, archie.
package blazeit

import (
	"context"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/frameql"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/specnn"
	"repro/internal/vidsim"
)

// Result is a query outcome: the answer plus the execution cost meter.
type Result = core.Result

// Stats is the per-query cost meter in simulated seconds.
type Stats = core.Stats

// Row is one materialized FrameQL record (an object in a frame).
type Row = core.Row

// PlanReport is the planner's record of one query: the chosen physical
// plan, every rejected candidate with its cost estimate, and — after
// execution — the actual cost.
type PlanReport = plan.Report

// PlanCandidate is one enumerated physical plan with its cost estimate.
type PlanCandidate = plan.Candidate

// PlanCost is an estimated simulated-cost breakdown.
type PlanCost = plan.Cost

// Trace is one query execution's span tree: plan selection, preparation
// charges, the sharded scan with per-shard timing, and finalization, each
// with wall-clock extent and the simulated-cost delta it charged. Tracing
// is answer-neutral — a traced execution's result (cost meter included)
// is bit-identical to an untraced one.
type Trace = obs.Trace

// Span is one named stage of a Trace.
type Span = obs.Span

// Options configures a System.
type Options struct {
	// Scale shrinks the streams for fast experimentation: 0.01 generates
	// ~1% of a full day. 0 (or 1) uses full-length days, which makes
	// model training and inference take tens of seconds of real time.
	Scale float64
	// Seed makes every stochastic choice reproducible.
	Seed int64
	// TrainFrames overrides the specialized-network training set size
	// (default: the paper's 150,000, clamped to the day length).
	TrainFrames int
	// Epochs overrides training epochs (default 1, as in the paper).
	Epochs int
	// HeldOutSample caps frames used for held-out error estimation.
	HeldOutSample int
	// Parallelism is the worker count query plans shard their frame scans
	// across (0 means GOMAXPROCS). Results are bit-identical at every
	// parallelism level — the knob trades wall-clock time only.
	//
	// In a Server, per-query parallelism multiplies with executor Workers:
	// a saturated server at the defaults (both GOMAXPROCS) oversubscribes
	// the CPU, which costs latency variance but no throughput. Deployments
	// optimizing tail latency under heavy concurrent load should lower one
	// of the two (e.g. Workers=GOMAXPROCS with Parallelism=1, or the
	// reverse for single-query latency).
	Parallelism int
	// IndexDir roots the materialized frame-index tier on disk: trained
	// specialized networks, whole-day inference segments with zone maps,
	// sampled ground-truth labels, and planner summaries persist under
	// it, keyed by a configuration fingerprint. A system reopened on the
	// same directory warm-starts — identical results, zero training and
	// inference cost charged. Empty keeps the tier in memory only.
	IndexDir string
	// LiveStart, in (0, 1), opens the test day as a live stream with only
	// that fraction of its frames initially visible; Append then extends
	// the horizon batch by batch, as a camera would, and standing queries
	// (Subscribe) advance incrementally over the new frames. The
	// underlying day is generated deterministically up front, so a fully
	// appended live stream answers every query identically to a full one.
	// 0 (the default) opens the whole day at once.
	LiveStart float64
}

// System is an opened video stream with its query engine: three generated
// days (train / held-out / test, following the paper's protocol) plus
// caches of trained specialized networks.
type System struct {
	eng *core.Engine
}

// toCore converts public options to engine options. The specialized-
// network seed is left zero so core.Options.withDefaults derives it in
// exactly one place (with its zero-collision guard).
func (o Options) toCore() core.Options {
	return core.Options{
		Scale: o.Scale,
		Seed:  o.Seed,
		Spec: specnn.Options{
			TrainFrames: o.TrainFrames,
			Epochs:      o.Epochs,
		},
		HeldOutSample: o.HeldOutSample,
		Parallelism:   o.Parallelism,
		IndexDir:      o.IndexDir,
		LiveStart:     o.LiveStart,
	}
}

// Open prepares the named stream. See Streams for valid names.
func Open(stream string, opts Options) (*System, error) {
	eng, err := core.NewEngine(stream, opts.toCore())
	if err != nil {
		return nil, err
	}
	return &System{eng: eng}, nil
}

// Query parses, optimizes, and executes a FrameQL query against the
// stream's test day.
func (s *System) Query(q string) (*Result, error) {
	return s.eng.Query(q)
}

// QueryParallel is Query with an explicit worker count for this execution
// (0 uses the system's configured parallelism). The result is
// bit-identical at every parallelism level.
func (s *System) QueryParallel(q string, parallelism int) (*Result, error) {
	info, err := frameql.Analyze(q)
	if err != nil {
		return nil, err
	}
	return s.eng.ExecuteParallel(info, parallelism)
}

// QueryTraced is QueryParallel recording a span tree: the returned Trace
// holds plan selection, preparation, per-shard scan, and finalize spans
// with wall-clock and simulated-cost accounting. The Result is
// bit-identical to the untraced query's.
func (s *System) QueryTraced(q string, parallelism int) (*Result, *Trace, error) {
	info, err := frameql.Analyze(q)
	if err != nil {
		return nil, nil, err
	}
	tr := obs.NewTrace(info.Stmt.String())
	res, err := s.eng.ExecuteParallelTraced(info, parallelism, tr)
	tr.Finish()
	if err != nil {
		return nil, tr, err
	}
	return res, tr, nil
}

// Explain parses and analyzes a query without executing it, returning the
// plan family the optimizer would choose and the canonicalized query text.
func (s *System) Explain(q string) (kind, canonical string, err error) {
	info, err := frameql.Analyze(q)
	if err != nil {
		return "", "", err
	}
	return info.Kind.String(), info.Stmt.String(), nil
}

// ExplainPlan plans a query without executing it: the optimizer
// enumerates every candidate physical plan for the query's family, prices
// each one in simulated seconds, and reports the full candidate table
// with its pick. Planning may prepare shared index state (train the
// specialized network, compute held-out statistics) the first time a
// class is seen, but no candidate executes. A SELECT /*+ PLAN(name) */
// hint in the query marks the report forced.
func (s *System) ExplainPlan(q string) (*PlanReport, error) {
	info, err := frameql.Analyze(q)
	if err != nil {
		return nil, err
	}
	return s.eng.ExplainPlan(info, 0)
}

// Engine exposes the underlying engine for advanced use (explicit plans,
// baseline comparisons, direct access to the generated days).
func (s *System) Engine() *core.Engine { return s.eng }

// IndexStats is a snapshot of the materialized frame-index tier's
// activity: segments built versus loaded, zone-map chunk inventory,
// ground-truth label coverage, and the simulated cost invested in builds.
type IndexStats = index.Stats

// BuildIndex materializes the frame-index tier for the given object
// classes without charging any query: the specialized network is trained
// (or loaded), the held-out and test days are labeled into columnar
// segments with per-chunk zone maps, and — when Options.IndexDir is set —
// everything persists to disk. Subsequent queries over those classes read
// the index instead of re-running training or inference, the paper's
// "BlazeIt (indexed)" mode of operation.
func (s *System) BuildIndex(classes ...string) error {
	return s.eng.BuildIndex(toClasses(classes))
}

// IndexStats returns a snapshot of the system's index tier.
func (s *System) IndexStats() IndexStats { return s.eng.IndexStats() }

// FlushIndex persists the index tier's incrementally growing artifacts
// (sampled ground-truth labels, planner summaries) to Options.IndexDir.
// Models and segments persist when built; call FlushIndex before exit so
// the next session warm-starts completely.
func (s *System) FlushIndex() error { return s.eng.FlushIndex() }

// ExportModel serializes the trained specialized network for the given
// object classes (training it first if necessary), so a later session can
// warm-start with ImportModel and skip training entirely — the paper's
// cached-model ("no train" / "indexed") mode of operation.
func (s *System) ExportModel(classes ...string) ([]byte, error) {
	return s.eng.ExportModel(toClasses(classes))
}

// ImportModel installs a specialized network previously produced by
// ExportModel for the given classes. Subsequent queries over those classes
// carry no training cost.
func (s *System) ImportModel(data []byte, classes ...string) error {
	return s.eng.ImportModel(toClasses(classes), data)
}

// Cursor is the serializable suspension of one query execution: the
// canonical query, the pinned physical plan, the stream horizon covered,
// and the plan's accumulator snapshot. Cursors are the continuous tier's
// unit of progress — a standing query is a cursor advanced after every
// ingest — and they survive process restarts: a cursor suspended in one
// session resumes in another opened on the same stream configuration,
// bit-identically.
type Cursor = plan.Cursor

// LiveStats describes a system's live-stream position.
type LiveStats struct {
	// Live reports whether the test day was opened as a live stream.
	Live bool
	// HorizonFrames is the number of test-day frames currently visible;
	// DayFrames the full day it grows toward.
	HorizonFrames int
	DayFrames     int
	// Epoch counts Append calls that made frames visible; serving-layer
	// result caches key on it.
	Epoch uint64
}

// LiveStats returns the system's live-stream position.
func (s *System) LiveStats() LiveStats {
	return LiveStats{
		Live:          s.eng.Live(),
		HorizonFrames: s.eng.Horizon(),
		DayFrames:     s.eng.DayFrames(),
		Epoch:         s.eng.StreamEpoch(),
	}
}

// Append makes the next n generated frames of a live stream visible
// (clamped to the day's end), extends every materialized index segment to
// the new horizon, and returns the number of frames appended. Append must
// not run concurrently with queries on this system — the contract a live
// ingestion loop naturally provides between batches. On a system opened
// without LiveStart it is a no-op.
func (s *System) Append(n int) (int, error) { return s.eng.AppendLive(n) }

// StandingQuery is a registered continuous query over a live stream: a
// resident execution plus its latest answer. After Append extends the
// stream, Advance brings the answer up to the new horizon — scan plans
// pay only the new frames; population-dependent plans (adaptive
// sampling, confidence-ranked scrubbing) re-run deterministically — and
// the advanced answer is exactly what a fresh query of the grown stream
// returns. Cost-picked standing queries are additionally drift-checked:
// when the stream's live statistics diverge from what the plan was
// priced on, the next Advance past a chunk-aligned boundary
// re-enumerates with the planner's current calibration and may switch
// plans (see PlanSwitches); hinted queries keep their plan for life.
type StandingQuery struct {
	exec *core.Execution
	last *Result
}

// Subscribe registers a standing query: the query is planned and executed
// to the stream's current horizon, and its execution stays open for
// incremental advancement.
func (s *System) Subscribe(q string) (*StandingQuery, error) {
	info, err := frameql.Analyze(q)
	if err != nil {
		return nil, err
	}
	x, err := s.eng.BeginQuery(info, 0)
	if err != nil {
		return nil, err
	}
	if err := x.RunTo(-1); err != nil {
		return nil, err
	}
	res, err := x.Result()
	if err != nil {
		return nil, err
	}
	return &StandingQuery{exec: x, last: res}, nil
}

// ResumeSubscription reattaches a standing query from a cursor — the
// restart path: a cursor suspended in a previous session continues on a
// system opened with the same stream configuration.
func (s *System) ResumeSubscription(cur *Cursor) (*StandingQuery, error) {
	x, err := s.eng.ResumeQuery(cur)
	if err != nil {
		return nil, err
	}
	res, err := x.Advance(nil)
	if err != nil {
		return nil, err
	}
	return &StandingQuery{exec: x, last: res}, nil
}

// Advance brings the standing query up to the stream's current horizon
// and returns the updated answer. With no new frames since the last
// advance it returns the current answer without touching the engine —
// polling in a loop is free until something is ingested.
func (sq *StandingQuery) Advance() (*Result, error) {
	res, err := sq.exec.Advance(nil)
	if err != nil {
		return nil, err
	}
	sq.last = res
	return res, nil
}

// Result returns the standing query's latest answer.
func (sq *StandingQuery) Result() *Result { return sq.last }

// PlanSwitches reports how many drift-triggered plan switches this
// standing query has made over its lifetime (always zero for
// hint-forced queries, which never re-plan).
func (sq *StandingQuery) PlanSwitches() int { return sq.exec.PlanSwitches() }

// Cursor serializes the standing query into a cursor — encoded here, on
// demand, not per advance (persist it to resume the subscription in a
// later session).
func (sq *StandingQuery) Cursor() (*Cursor, error) { return sq.exec.Suspend() }

// Advance resumes an arbitrary cursor on this system, runs it to the
// stream's current horizon, and returns the result with the re-suspended
// cursor — the low-level API StandingQuery wraps.
func (s *System) Advance(cur *Cursor) (*Result, *Cursor, error) {
	return s.eng.Advance(cur)
}

func toClasses(names []string) []vidsim.Class {
	cs := make([]vidsim.Class, len(names))
	for i, n := range names {
		cs[i] = vidsim.Class(n)
	}
	return cs
}

// Streams returns the built-in evaluation stream names.
func Streams() []string { return vidsim.StreamNames() }

// Parse validates FrameQL syntax, returning a descriptive error for
// malformed queries.
func Parse(q string) error {
	_, err := frameql.Parse(q)
	return err
}

// ServeOptions configures a query-serving Server.
type ServeOptions struct {
	// Options applies to every lazily opened stream engine.
	Options
	// Streams restricts the servable stream names; nil serves all
	// built-in streams.
	Streams []string
	// Workers sets executor concurrency (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue (default 4× workers); a full
	// queue rejects requests with HTTP 429.
	QueueDepth int
	// CacheEntries is the result-cache capacity: 0 for the default (256),
	// negative to disable caching.
	CacheEntries int
	// MaxRows caps rows per response: 0 for the default (1000), negative
	// for unlimited.
	MaxRows int
	// QueryTimeout bounds each query's admission (queue wait plus engine
	// open); started queries run to completion. 0 means no server-side
	// limit.
	QueryTimeout time.Duration
	// BackgroundIndex materializes each stream's frame index (models,
	// whole-day inference segments, zone maps) in the background when the
	// stream's engine opens, so queries find the index warm; with
	// Options.IndexDir set the build persists for future sessions. Close
	// waits for the in-flight build and flushes partial state.
	BackgroundIndex bool
	// Log receives the server's access log, slow-query log, and lifecycle
	// records; nil discards them.
	Log *slog.Logger
	// SlowQuery is the wall-clock threshold above which a query's span
	// tree is logged at warn level; 0 disables the slow-query log.
	SlowQuery time.Duration
	// TraceRingSize bounds the retained-trace ring behind GET /traces
	// (0 means the default, 256).
	TraceRingSize int
}

// Server is a concurrent multi-stream query-serving front end: it pools
// one engine per stream (opened lazily, with concurrent opens
// deduplicated), caches results by canonicalized query text, and executes
// cache misses on a bounded worker pool. See internal/serve for the
// HTTP API: POST /query, GET /streams, GET /explain, GET /statz.
type Server struct {
	s *serve.Server
}

// NewServer builds a Server. Call Close when done.
func NewServer(opts ServeOptions) *Server {
	return &Server{s: serve.New(serve.Config{
		Engine:          opts.Options.toCore(),
		Streams:         opts.Streams,
		Workers:         opts.Workers,
		QueueDepth:      opts.QueueDepth,
		CacheEntries:    opts.CacheEntries,
		MaxRows:         opts.MaxRows,
		QueryTimeout:    opts.QueryTimeout,
		BackgroundIndex: opts.BackgroundIndex,
		Log:             opts.Log,
		SlowQuery:       opts.SlowQuery,
		TraceRingSize:   opts.TraceRingSize,
	})}
}

// Handler returns the HTTP handler serving the JSON API.
func (s *Server) Handler() http.Handler { return s.s.Handler() }

// MetricsHandler returns the Prometheus text-exposition handler (the same
// one mounted at GET /metrics), for mirroring on a debug listener.
func (s *Server) MetricsHandler() http.Handler { return s.s.MetricsHandler() }

// Preopen eagerly opens the named stream's engine so the first query
// doesn't pay stream generation and detector setup.
func (s *Server) Preopen(ctx context.Context, stream string) error {
	return s.s.Preopen(ctx, stream)
}

// ServedStreams returns the stream names this server serves.
func (s *Server) ServedStreams() []string { return s.s.Streams() }

// Close drains in-flight queries, waits for background index builds,
// stops the worker pool, and flushes every open engine's index tier to
// disk (when an IndexDir is configured).
func (s *Server) Close() { s.s.Close() }

// Serve builds a Server and listens on addr until the listener fails.
func Serve(addr string, opts ServeOptions) error {
	srv := NewServer(opts)
	defer srv.Close()
	return http.ListenAndServe(addr, srv.Handler())
}
