// Package core is BlazeIt's query optimizer and execution engine — the
// paper's primary contribution. It accepts analyzed FrameQL queries and
// plans them with a cost-based optimizer (paper §5): a per-family
// enumerator produces every viable candidate physical plan, a cost model
// prices each candidate in simulated seconds from cheap inputs (stream
// configuration, cached held-out statistics, trained filter
// selectivities) without executing it, and the candidate with the lowest
// marginal estimate runs. Every Result carries a PlanReport recording the
// chosen plan, the rejected candidates with their estimates, and the
// actual cost. The candidate families:
//
//   - aggregation (§6): query rewriting with a specialized network when
//     its held-out error passes the user's bound at the requested
//     confidence (Algorithm 1), the method of control variates, plain
//     adaptive sampling, and a naive exhaustive scan;
//   - scrubbing (§7): importance-ordered detector verification ranked by
//     specialized-network confidence, versus a sequential scan;
//   - content-based selection (§8): the inferred label / content /
//     temporal / spatial filter cascade in selectivity-ordered variants,
//     versus a filterless scan; entity resolution with the motion-IOU
//     tracker and exact boundary probing for duration predicates;
//   - binary detection: the NoScope-style cascade versus an exact scan;
//   - exhaustive: reference-detector evaluation of every candidate frame
//     for anything the enumerators have no shortcut for.
//
// Idealized oracle baselines (the paper's §10.1.1 "NoScope (Oracle)")
// are enumerated too, but gated: a SELECT /*+ PLAN(name) */ hint or
// ExecuteForced can force them, while the cost-based pick never
// chooses a plan that assumes free oracle knowledge.
//
// Every plan charges its work to a cost meter denominated in simulated
// seconds using the same extrapolation the paper reports runtimes with
// (detector calls × per-call cost at ~3 fps, specialized networks at
// 10,000 fps, cheap filters at 100,000 fps). Training and threshold
// computation are metered separately so results can be reported with and
// without training time, as Figure 4 does.
//
// # The materialized frame-index tier
//
// Trained models, whole-day specialized-network labelings, sampled
// ground-truth detector labels, and the planner's held-out summaries all
// live in the index tier (internal/index): a singleflight cache that is
// file-backed when Options.IndexDir is set, so a restarted engine pointed
// at the same directory serves identical results with zero training or
// inference cost charged. Segments carry per-chunk zone maps that plan
// executions consult to skip chunks their predicate provably cannot
// match — the binary cascade's proven-reject chunks, the selection label
// filter's below-threshold chunks, the scrubbing ranker's zero-score
// chunks. Skips elide real CPU work only: the simulated cost meter
// replays the exact charges of the unskipped scan, and skip activity is
// reported in dedicated Stats fields (IndexChunksSkipped,
// IndexFramesSkipped) and the PlanReport, so results stay bit-identical
// whether the index is cold, warm, on disk, or absent.
//
// # The scan operator
//
// Every plan that visits frames — exhaustive, binary cascade and exact,
// the selection cascades, exact aggregates, COUNT(DISTINCT trackid), the
// density-limit variant of the LIMIT-bearing ones, and the three scrubbing
// searches — is the same pipeline (cheap filters → detector → tracker →
// GAP/LIMIT), and runs on one resumable operator, scanExec (scan.go); so
// do the adaptive samplers, as a scan over a draw order, and the
// specialized rewrite, as a scan of one unit: one executor. The operator
// is parameterised twice:
//
//   - a family kernel (scanKernel): a pure produce over a range of visited
//     frames, run concurrently on the worker pool, and a merge that
//     consumes a product one 1024-frame batch at a time on the caller's
//     goroutine, charging the cost meter and/or folding the frames into
//     the family's temporal-order accumulator (tracker, rows, GAP/LIMIT
//     progress). Each family's filter cascade, charge replay and GAP/LIMIT
//     walk is written once, in its kernel;
//   - a schedule: which visited-frame ranges, in what order. The temporal
//     ramp visits [0, total) in order and charges and folds each batch in
//     one pass. The density order (density.go) visits index chunks by
//     zone-map presence density; it charges in visit order and settles by
//     folding the same products — kept per visited chunk, re-produced
//     from the pure kernel after a Restore — in chunk order into a fresh
//     accumulator, so its answer is a temporal scan's over the visited
//     set. The sampling schedule hands out one round of draws at a time,
//     so the stopping rule sees each round before a draw of the next is
//     measured.
//
// A kernel maps the operator's visited index i to a frame. For the frame
// scans it is lo+i·step. For scrubbing (§7) it is rank position i, the
// frame order[i]: the confidence ranking, frame order, or frame order
// restricted by the presence oracle — one kernel, three orders. Which
// positions a search verifies depends on what it has accepted (GAP passes
// over a hit's neighbours, LIMIT ends it), so its produce is empty and its
// merge is scrub.Searcher's serial probe loop: the scan opens with one
// worker, and GAP suppression, LIMIT and the charges are a serial search's
// at every requested parallelism.
// For adaptive sampling it is the sampler's i-th draw: produce measures
// draws concurrently, and merge folds them in draw order into
// aqp.Estimator, finishing on the draw whose round boundary fires the
// stopping rule.
//
// The §8 selection cascade is a stage list (selPrep.stages): the order is
// decided once per filter plan and carried as data — per stage its pass
// test, the charges a frame reaching it pays in a serial scan's add order,
// its pricing terms, and its zone conjunct if the index sketches one.
// Pricing, produce, the merge's charge replay, zone-skip eligibility (stage
// 0 has a conjunct and the segment is there) and the density candidate read
// that one list; a produced frame records how many stages it passed, and a
// zone-skipped frame passed none, like a rejection by stage 0. The selection
// and binary kernels share the chunk walk (zoneWalk below): visited frames
// cut into index-chunk-aligned ranges, one zone consult per chunk, and each
// skipped chunk counted once, at the visited frame where the whole scan
// first enters it, however shards straddle it.
//
// The operator owns everything else, once: position and the Done/Total/
// Pos accounting in visited frames, early exit on the exact frame that
// satisfies a LIMIT, the cost meter with the preparation charges captured
// at open, sticky errors, Snapshot/Restore (suspension lands on any frame
// boundary because shards never cross the stop and products are pure; the
// kernel serializes its accumulator in the family's cursor format), the
// refusal to finalize a suspended scan, shard fan-out, and the per-shard
// trace span. Tracing is not a second path: an untraced scan runs the
// same loop with nil spans. On a grown live stream a restored scan whose
// schedule is prefix-stable (frame order, the oracle order) continues over
// the new suffix from its accumulator; one whose schedule is a function of
// the whole population (the density order, scrubbing's confidence ranking)
// restarts — one rule, scanExec.Restore and adopt.
//
// # Parallel execution and the per-shard PRNG scheme
//
// Every plan family executes its scan in parallel: the scan range is split
// into contiguous shards — fixed shardSpan-sized ones, or for adaptive
// sampling one round of draws split among the workers — run by a bounded
// worker pool (Options.Parallelism workers, default GOMAXPROCS), and
// per-shard outputs are merged — and simulated costs charged — strictly in
// shard order (see shard.go). Because products are per frame (per draw) and
// all per-frame randomness is counter-based, a query's Result is
// bit-identical at every parallelism level.
//
// Sampling-based plans need randomness that survives this contract: a
// shared sequential RNG would make draw order depend on worker scheduling.
// Instead, each shard draws from its own hrand.Stream keyed by
// (salt, seed, shard index) — shard s's k-th draw is the pure hash
// U64(salt, seed, s, k) regardless of what any other shard has drawn (see
// internal/aqp's Sampler). The schedule of draws across shards is itself
// deterministic (round-robin over a seed-derived shard order), so the i-th
// draw is a pure function of (seed, i) and statistical plans are
// reproducible at any parallelism level, including 1.
package core

import (
	"fmt"
	"hash/fnv"
	"sync/atomic"

	"repro/internal/detect"
	"repro/internal/frameql"
	"repro/internal/index"
	"repro/internal/specnn"
	"repro/internal/vidsim"
)

// Options configures an Engine.
type Options struct {
	// Scale shrinks the stream (frames and tracks) for fast runs; 0 or 1
	// means full size.
	Scale float64
	// Spec overrides specialized-network training options. Zero values
	// take specnn defaults.
	Spec specnn.Options
	// HeldOutSample caps frames used for held-out error estimation
	// (default 30000).
	HeldOutSample int
	// Seed drives sampling decisions inside plans.
	Seed int64
	// Parallelism is the worker count plan execution shards frame scans
	// across (0 or negative means GOMAXPROCS). Results are bit-identical
	// at every parallelism level; see the package comment.
	Parallelism int
	// IndexDir roots the materialized frame-index tier on disk: trained
	// specialized networks, columnar per-frame inference segments with
	// zone maps, sampled ground-truth labels, and planner summaries all
	// persist under it, keyed by a configuration fingerprint, so a
	// restarted engine warm-starts instead of re-paying training and
	// whole-day inference. Empty keeps the tier in memory only. Results
	// are bit-identical whether the index is cold, warm, on disk, or
	// absent.
	IndexDir string
	// LiveStart, in (0, 1), opens the test day as a live stream with only
	// that fraction of its frames initially visible; AppendLive then
	// extends the visible horizon frame batch by frame batch, as a camera
	// would. The underlying day is generated deterministically up front,
	// so a fully appended live stream answers every query identically to
	// a Generate'd one. 0 (the default) opens the whole day at once.
	// Training and held-out days are always full: the paper's protocol
	// labels them offline before serving begins. LiveStart does not enter
	// the index fingerprint — a live engine extends the same persisted
	// segments a full-day engine builds.
	LiveStart float64
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.HeldOutSample == 0 {
		o.HeldOutSample = 30000
	}
	if o.Spec.Seed == 0 {
		o.Spec.Seed = o.Seed + 17
		if o.Spec.Seed == 0 {
			// Seed == -17 would derive the zero sentinel, which specnn
			// silently re-defaults — changing the training seed and
			// breaking reproducibility. Pin a nonzero stand-in instead.
			o.Spec.Seed = -17
		}
	}
	return o
}

// Engine executes FrameQL queries against one stream. Following the
// paper's protocol (§10.1), day 0 is the labeled training day, day 1 the
// held-out day for error estimation and thresholds, and day 2 the test
// day queries run against.
type Engine struct {
	// Cfg is the (possibly scaled) stream configuration.
	Cfg vidsim.StreamConfig

	// Train, HeldOut, and Test are the three generated days.
	Train, HeldOut, Test *vidsim.Video
	// DTrain, DHeld, DTest are the reference detectors per day.
	DTrain, DHeld, DTest *detect.Detector

	opts Options

	// idx is the materialized frame-index tier: a singleflight cache of
	// trained models and columnar inference segments (with zone maps and
	// ground-truth label stores), optionally file-backed under
	// Options.IndexDir. The goroutine that builds an artifact is the only
	// caller charged its simulated cost; waiters and disk loads are
	// charged zero — the cache-hit accounting of the paper's "no train" /
	// "indexed" modes, now restart-safe.
	idx *index.Manager

	// exec tracks parallel-execution activity for /statz reporting. It is
	// a pointer so snapshot-pinned engine views share the master's
	// counters.
	exec *execCounters

	// snap is the engine's published stream snapshot: the immutable view
	// of the test day every execution, advance, and plan pins at open
	// time. AppendLive is the only writer; it swaps in a new snapshot
	// after the ingest tail has been indexed, so readers never take a
	// lock and never observe a torn horizon.
	snap atomic.Pointer[StreamSnapshot]

	// planner holds the cost-based planner's cached held-out statistics
	// and pick accounting (see planner.go). Shared by pinned views.
	planner *plannerState
}

// StreamSnapshot is one published epoch of a live stream: the horizon
// visible at publication plus the pinned video/detector views executions
// read the test day through. Snapshots are immutable; AppendLive
// publishes a new one (epoch+1) only after every materialized test-day
// index segment has been extended through the new horizon, so a query
// pinning the snapshot finds the index already covering everything it
// can see.
type StreamSnapshot struct {
	// Epoch counts publications: 0 at open, +1 per AppendLive that made
	// frames visible. Serving-tier result caches key on it.
	Epoch uint64
	// Horizon is the number of test-day frames visible in this snapshot.
	Horizon int

	test  *vidsim.Video
	dtest *detect.Detector
}

// NewEngine builds an Engine for a named evaluation stream.
func NewEngine(stream string, opts Options) (*Engine, error) {
	cfg, err := vidsim.Stream(stream)
	if err != nil {
		return nil, err
	}
	return NewEngineFromConfig(cfg, opts)
}

// NewEngineFromConfig builds an Engine for an arbitrary stream config.
func NewEngineFromConfig(cfg vidsim.StreamConfig, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	if opts.Scale != 1 {
		cfg = cfg.Scaled(opts.Scale)
	}
	if opts.LiveStart < 0 || opts.LiveStart >= 1 {
		opts.LiveStart = 0
	}
	test := vidsim.Generate(cfg, 2)
	if opts.LiveStart > 0 {
		initial := int(opts.LiveStart * float64(cfg.FramesPerDay))
		if initial < 1 {
			initial = 1
		}
		test = vidsim.GenerateLive(cfg, 2, initial)
	}
	e := &Engine{
		Cfg:     cfg,
		Train:   vidsim.Generate(cfg, 0),
		HeldOut: vidsim.Generate(cfg, 1),
		Test:    test,
		opts:    opts,
		exec:    &execCounters{},
		planner: newPlannerState(),
	}
	var errD error
	if e.DTrain, errD = detect.New(e.Train); errD != nil {
		return nil, errD
	}
	if e.DHeld, errD = detect.New(e.HeldOut); errD != nil {
		return nil, errD
	}
	if e.DTest, errD = detect.New(e.Test); errD != nil {
		return nil, errD
	}
	e.idx = index.NewManager(index.Config{
		Dir:         opts.IndexDir,
		Stream:      cfg.Name,
		Fingerprint: indexFingerprint(cfg, opts),
		Train: func(classes []vidsim.Class) (*specnn.CountModel, error) {
			return specnn.Train(e.Train, e.DTrain, classes, e.opts.Spec)
		},
	})
	e.loadPlannerSummaries()
	e.loadCalibration()
	if e.Live() {
		// Live engines serve queries from pinned snapshot views from the
		// start, so ingest never races a reader over the master video.
		e.snap.Store(e.makeSnapshot(0))
	} else {
		// Full-day engines are immutable: the snapshot is the engine's own
		// test day, and pinning is the identity.
		e.snap.Store(&StreamSnapshot{Horizon: e.Test.Frames, test: e.Test, dtest: e.DTest})
	}
	return e, nil
}

// makeSnapshot builds a snapshot of the current master test video at the
// given epoch: a pinned video view plus a detector bound to it.
func (e *Engine) makeSnapshot(epoch uint64) *StreamSnapshot {
	view := e.Test.View(e.Test.Frames)
	return &StreamSnapshot{
		Epoch:   epoch,
		Horizon: view.Frames,
		test:    view,
		dtest:   e.DTest.ForVideo(view),
	}
}

// Snapshot returns the engine's current published stream snapshot (the
// pinned one, on an engine view returned by Pin).
func (e *Engine) Snapshot() *StreamSnapshot { return e.snap.Load() }

// pin returns an engine view bound to the current published snapshot:
// identical to e except that Test and DTest are the snapshot's immutable
// views. Index tier, counters, and planner state are shared with the
// master, so costs and cache accounting accrue in one place. On a
// full-day engine — or an already-pinned view — pin is the identity.
// Every execution entry point pins first, which is what lets ingest race
// ahead without ever tearing a running query.
func (e *Engine) pin() *Engine {
	if !e.Live() {
		// Full-day engines are immutable (tests may even swap Test out
		// wholesale before first use); there is nothing to pin.
		return e
	}
	sn := e.snap.Load()
	if sn == nil || sn.test == e.Test {
		return e
	}
	pe := &Engine{
		Cfg:     e.Cfg,
		Train:   e.Train,
		HeldOut: e.HeldOut,
		Test:    sn.test,
		DTrain:  e.DTrain,
		DHeld:   e.DHeld,
		DTest:   sn.dtest,
		opts:    e.opts,
		idx:     e.idx,
		exec:    e.exec,
		planner: e.planner,
	}
	pe.snap.Store(sn)
	return pe
}

// Pin returns an engine view bound to the current published snapshot,
// plus that snapshot's epoch. Serving layers use it to run an execution
// and key its cached result off the exact epoch the execution saw —
// reading the epoch before or after an unpinned call would race ingest.
func (e *Engine) Pin() (*Engine, uint64) {
	pe := e.pin()
	return pe, pe.snap.Load().Epoch
}

// indexFingerprint hashes every configuration input index contents depend
// on: the (scaled) stream configuration, the seeds, and the training
// options. Artifacts persist under the fingerprint, so a configuration
// change addresses a fresh directory instead of reading stale files —
// the tier's invalidation rule.
func indexFingerprint(cfg vidsim.StreamConfig, opts Options) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "cfg=%+v|seed=%d|held=%d|spec=%+v", cfg, opts.Seed, opts.HeldOutSample, opts.Spec)
	return h.Sum64()
}

// zoneSkipsEnabled gates zone-map chunk skipping in plan executions. It
// exists for tests only: flipping it off forces the full per-frame scan,
// which the answer-neutrality tests compare against skipped executions
// bit for bit. Never toggled concurrently with query execution.
var zoneSkipsEnabled = true

// zoneRefutes reports whether the segment's zone map proves no frame of
// the chunk can satisfy the conjunction: the one consult a kernel's
// produce makes before it decodes a chunk's columns. (The density
// schedule prunes with the same index kernel, ungated — there the pruning
// is the plan, not a shortcut a reference scan can do without.)
func zoneRefutes(seg *index.Segment, chunk int, conj []index.Conjunct) bool {
	return zoneSkipsEnabled && seg.CanSkipConjunction(chunk, conj)
}

// zoneMark is a visited frame's zone-skip accounting, carried from a
// kernel's produce to its merge in the two high bits of a byte (a kernel
// may keep its own per-frame verdict in the low six).
type zoneMark uint8

const (
	// zoneSkipped: the zone map refuted the frame's whole chunk; the frame
	// was elided without per-frame work.
	zoneSkipped zoneMark = 1 << (6 + iota)
	// zoneChunkFirst marks the visited frame where the whole scan first
	// enters a skipped chunk, so per-frame consumption counts each skipped
	// chunk exactly once however shards straddle it.
	zoneChunkFirst
)

// count adds the frame's skip accounting to m.
func (z zoneMark) count(m *Stats) {
	if z&zoneChunkFirst != 0 {
		m.IndexChunksSkipped++
		m.ConjunctionChunksSkipped++
	}
	if z&zoneSkipped != 0 {
		m.IndexFramesSkipped++
	}
}

// zoneWalk walks visited frames lo+i·step, i in [sLo, sHi), as
// index-chunk-aligned ranges: one zone-map consultation per chunk proves a
// whole range's rejection without decoding its columns (predicate
// pushdown). A range whose chunk the zone map refutes for conj is handed
// frame by frame to skip with its mark; every other range goes to scan with
// its chunk index, which reports whether to go on. A nil conj refutes
// nothing; a nil seg is one scan of the whole range (chunk -1).
func zoneWalk(seg *index.Segment, conj []index.Conjunct, lo, step, sLo, sHi int, skip func(i int, z zoneMark), scan func(chunk, i, iEnd int) bool) {
	if seg == nil {
		scan(-1, sLo, sHi)
		return
	}
	for i := sLo; i < sHi; {
		f := lo + i*step
		ci := index.ChunkOf(f)
		// First visited index whose frame leaves the chunk.
		iEnd := min(sHi, i+((ci+1)*index.ChunkFrames-f+step-1)/step)
		if conj == nil || !zoneRefutes(seg, ci, conj) {
			if !scan(ci, i, iEnd) {
				return
			}
			i = iEnd
			continue
		}
		// Mark the chunk at the visited frame where the whole scan — not
		// this range — first enters it.
		z := zoneSkipped
		if i == 0 || index.ChunkOf(f-step) != ci {
			z |= zoneChunkFirst
		}
		for ; i < iEnd; i++ {
			skip(i, z)
			z = zoneSkipped
		}
	}
}

// vectorScanEnabled gates the chunk-vector produce paths: batch predicate
// evaluation against the index's columnar storage (Segment.ScoreTail, the
// chunked presence-tail read) instead of per-frame accessor calls. It
// exists for tests only: flipping it off selects the per-frame reference
// path the equivalence fuzz compares against bit for bit. Never toggled
// concurrently with query execution.
var vectorScanEnabled = true

// selLimitSettleEnabled gates the selection finalizer's early-stopping
// settlement for LIMIT queries (probe only the tracks whose rows can
// still be returned). It exists for tests only: flipping it off selects
// the settle-everything-then-trim reference path the LIMIT-trim test
// compares answers against. Never toggled concurrently with query
// execution.
var selLimitSettleEnabled = true

// Options returns the engine's resolved options.
func (e *Engine) Options() Options { return e.opts }

// Model returns (training and caching) the specialized counting network
// for the class set — a thin read through the index manager. The returned
// training cost is zero on cache hits and on disk loads from a warm index
// directory: the paper's "BlazeIt (no train) / (indexed)" variants reuse
// trained models, and repeated queries within a session share them.
// Concurrent calls for the same class set are deduplicated: exactly one
// goroutine trains, and exactly one caller is charged the training cost.
func (e *Engine) Model(classes []vidsim.Class) (*specnn.CountModel, float64, error) {
	return e.idx.Model(classes)
}

// Inference returns the specialized network's full pass over the given
// day for the class set — a thin read through the index manager, which
// materializes the segment (columns plus zone maps) on first use. The
// returned cost is zero on cache hits and disk loads, and concurrent
// calls for the same (class set, day) share one build with exactly one
// caller charged.
func (e *Engine) Inference(classes []vidsim.Class, v *vidsim.Video) (*specnn.Inference, float64, error) {
	seg, cost, err := e.idx.Segment(classes, v)
	if err != nil {
		return nil, 0, err
	}
	return seg.Inference(), cost, nil
}

// segment returns the materialized index segment for (class set, day),
// building it if needed; the cost semantics are Inference's.
func (e *Engine) segment(classes []vidsim.Class, v *vidsim.Video) (*index.Segment, float64, error) {
	return e.idx.Segment(classes, v)
}

// ExportModel serializes the trained specialized network for the class
// set, training it first if needed — the warm-starting path the paper's
// §3.1 names as future work.
func (e *Engine) ExportModel(classes []vidsim.Class) ([]byte, error) {
	m, _, err := e.Model(classes)
	if err != nil {
		return nil, err
	}
	return m.MarshalBinary()
}

// ImportModel installs a previously exported specialized network for the
// class set, so subsequent queries skip training (and its cost) entirely.
func (e *Engine) ImportModel(classes []vidsim.Class, data []byte) error {
	var m specnn.CountModel
	if err := m.UnmarshalBinary(data); err != nil {
		return err
	}
	for _, c := range classes {
		if m.HeadIndex(c) < 0 {
			return fmt.Errorf("core: imported model has no head for class %q", c)
		}
	}
	// Imported models are pre-trained: their training cost was paid in a
	// previous session, matching the paper's cached-model accounting.
	// Imports are session-only (never persisted) and — as before the
	// index tier — do not invalidate segments built from a prior model.
	m.TrainSimSeconds = 0
	e.idx.InstallModel(classes, &m)
	return nil
}

// BuildIndex materializes the index tier for a class set without charging
// any query: the specialized network is trained (or loaded), the held-out
// and test days are labeled into columnar segments with zone maps, and —
// when an index directory is configured — everything is persisted. The
// simulated cost of the build is recorded as index investment in
// IndexStats, matching the paper's indexed accounting in which it
// amortizes across every query over the class set.
func (e *Engine) BuildIndex(classes []vidsim.Class) error {
	e = e.pin()
	if _, _, err := e.idx.Model(classes); err != nil {
		return err
	}
	for _, v := range []*vidsim.Video{e.HeldOut, e.Test} {
		if _, _, err := e.idx.Segment(classes, v); err != nil {
			return err
		}
	}
	return e.FlushIndex()
}

// AppendLive makes the next n generated frames of a live test day
// visible (clamped to the day's end), extends every already-materialized
// test-day index segment through the new horizon, and only then
// publishes a new stream snapshot (epoch+1) — the update-propagation
// order that guarantees a query pinning the snapshot finds the index
// covering everything it can see. It returns the number of frames
// actually appended.
//
// AppendLive writes only to the master video and the segments' ingest
// tails; executions, advances, and plans run concurrently against their
// pinned snapshots without locks and are never blocked or torn by it.
// Concurrent AppendLive calls must be serialized by the caller (the
// serving tier holds its per-stream ingest mutex; embedding callers own
// the same single-writer contract). On a full (non-live) engine it is a
// no-op.
func (e *Engine) AppendLive(n int) (int, error) {
	before := e.Test.Frames
	after := e.Test.AppendFrames(n)
	if after == before {
		return 0, nil
	}
	_, err := e.idx.IngestAll(e.Test)
	// Publish even on a partial ingest failure: the frames are visible
	// and lagging segments extend lazily on first pinned use.
	e.snap.Store(e.makeSnapshot(e.snap.Load().Epoch + 1))
	return after - before, err
}

// StreamEpoch returns the published snapshot's epoch: 0 at open,
// incremented by every AppendLive that makes frames visible.
// Serving-tier result caches include it in their keys, so answers
// computed over a shorter stream can never be served after the stream
// has grown — the epoch-based invalidation of the continuous tier.
func (e *Engine) StreamEpoch() uint64 {
	if !e.Live() {
		return 0
	}
	return e.snap.Load().Epoch
}

// Horizon returns the number of test-day frames visible in the published
// snapshot (the pinned horizon, on an engine view returned by Pin).
func (e *Engine) Horizon() int {
	if !e.Live() {
		return e.Test.Frames
	}
	return e.snap.Load().Horizon
}

// TailFrames returns the snapshot's unsealed tail depth: the visible
// frames past the last sealed 1024-frame chunk boundary — the portion of
// the horizon living in segments' mutable ingest tails rather than in
// sealed, persisted chunks.
func (e *Engine) TailFrames() int { return e.Horizon() % index.ChunkFrames }

// SnapshotLagFrames returns the update-propagation debt at the published
// snapshot: the maximum, across materialized test-day segments, of the
// snapshot horizon minus the segment's indexed frames. AppendLive
// extends every open segment before publishing, so this is normally 0;
// it goes positive only transiently, when a segment materializes against
// an older pinned snapshot and has not yet been extended forward.
func (e *Engine) SnapshotLagFrames() int {
	if !e.Live() {
		return 0
	}
	sn := e.snap.Load()
	return e.idx.CoverageLag(sn.test.Day, sn.Horizon)
}

// DayFrames returns the test day's full length; a live stream's horizon
// grows toward it.
func (e *Engine) DayFrames() int { return e.Cfg.FramesPerDay }

// Live reports whether the engine's test day was opened as a live stream.
func (e *Engine) Live() bool { return e.opts.LiveStart > 0 }

// IngestIndex incrementally indexes test-day frames that arrived after
// the class set's segment was built (a live stream extended with
// vidsim.AppendFrames): new frames are labeled chunk by chunk and
// appended to the persisted segment without touching existing chunks. It
// returns the number of frames ingested.
func (e *Engine) IngestIndex(classes []vidsim.Class) (int, error) {
	return e.idx.Ingest(classes, e.Test)
}

// IndexStats returns a snapshot of the index tier's activity.
func (e *Engine) IndexStats() index.Stats { return e.idx.Stats() }

// FlushIndex persists everything the index tier buffers in memory:
// committed ground-truth labels, the planner's held-out summaries, and
// the calibration store's learned correction feedback. Models and
// segments persist at build time; Flush covers the incrementally growing
// artifacts, so serving layers call it on shutdown.
func (e *Engine) FlushIndex() error {
	err := e.savePlannerSummaries()
	if cerr := e.saveCalibration(); err == nil {
		err = cerr
	}
	if ferr := e.idx.Flush(); err == nil {
		err = ferr
	}
	return err
}

// ScrubSetupCost returns the as-if-fresh simulated cost of preparing the
// scrubbing index for a class set: training the specialized network and
// labeling the test day. Within a session these are computed once and
// cached (the paper's "indexed" accounting), but end-to-end comparisons
// like Figure 6 must charge them regardless of cache state.
func (e *Engine) ScrubSetupCost(classes []vidsim.Class) float64 {
	e = e.pin()
	m, _, err := e.Model(classes)
	if err != nil {
		return 0
	}
	inf, _, err := e.Inference(classes, e.Test)
	if err != nil {
		return m.TrainSimSeconds
	}
	return m.TrainSimSeconds + inf.SimSeconds
}

// Query parses, analyzes, optimizes, and executes a FrameQL query against
// the engine's test day.
func (e *Engine) Query(src string) (*Result, error) {
	info, err := frameql.Analyze(src)
	if err != nil {
		return nil, err
	}
	return e.Execute(info)
}

// Execute runs an analyzed query at the engine's configured parallelism.
func (e *Engine) Execute(info *frameql.Info) (*Result, error) {
	return e.ExecuteParallel(info, 0)
}

// ExecuteParallel runs an analyzed query with an explicit worker count for
// this execution (0 or negative uses the engine's configured parallelism).
// The query is planned first: the family's candidate plans are enumerated
// and priced, and the cheapest (or the hinted one) executes; the Result's
// PlanReport records the decision. The parallelism level affects
// wall-clock time only: the Result — answer, sampled frames, and
// simulated cost meter — is bit-identical at every level, which is why
// results cached at one level may be served to requests asking for
// another. Plan choice is equally parallelism- and cache-state-
// independent; it depends only on the query and the planner's calibration
// state, so repeated queries run the same plan until execution feedback
// deliberately re-prices a candidate (see calibration.go) — and even then
// every candidate's answer is pinned bit-identical, so calibration can
// change cost, never correctness.
func (e *Engine) ExecuteParallel(info *frameql.Info, parallelism int) (*Result, error) {
	return e.ExecuteParallelTraced(info, parallelism, nil)
}

// frameRange clips the query's timestamp bounds to the test day.
func (e *Engine) frameRange(info *frameql.Info) (lo, hi int) {
	lo = 0
	hi = e.Test.Frames
	if info.TimeMin > 0 {
		lo = int(info.TimeMin)
	}
	if info.TimeMax >= 0 && int(info.TimeMax) < hi {
		hi = int(info.TimeMax)
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}
