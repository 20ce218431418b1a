package serve

import (
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// This file is the server's one set of books. Counters the request path
// bumps itself live in the metrics registry (obs.go). Everything that
// already lives elsewhere — the pool, the cache, the stream and
// subscription registries, and the open engines' own accounting — is read
// in one fold (Server.fold), and both stats pages render it: /metrics
// collects its scrape-time families from one fold per scrape (the collected
// table), /statz encodes one, adding the registry's counters. A number the
// two pages share is therefore the same number, read once.

// statzResponse is the GET /statz reply.
type statzResponse struct {
	UptimeSeconds float64           `json:"uptime_seconds"`
	Queries       queriesStatz      `json:"queries"`
	Sim           simStatz          `json:"sim"`
	Cache         cacheStatz        `json:"cache"`
	Pool          PoolStats         `json:"pool"`
	Parallel      parallelStatz     `json:"parallel"`
	Planner       plannerStatz      `json:"planner"`
	Indexz        indexStatz        `json:"indexz"`
	Livez         livezStatz        `json:"livez"`
	Registry      registryStatz     `json:"registry"`
	Streams       map[string]uint64 `json:"stream_queries"`
}

// indexStatz reports the materialized frame-index tier aggregated across
// the open engines: build-vs-load provenance, zone-map chunk inventory
// and skip activity, ground-truth label coverage, and background build
// progress.
type indexStatz struct {
	// Dir is the configured index directory ("" when memory-only).
	Dir string `json:"dir,omitempty"`
	// ModelsTrained / ModelsLoaded count fresh trainings vs disk loads.
	ModelsTrained int `json:"models_trained"`
	ModelsLoaded  int `json:"models_loaded"`
	// SegmentsBuilt / SegmentsLoaded count fresh whole-day inference
	// passes vs disk loads.
	SegmentsBuilt  int `json:"segments_built"`
	SegmentsLoaded int `json:"segments_loaded"`
	// Segments and Chunks inventory the materialized columns.
	Segments int `json:"segments"`
	Chunks   int `json:"chunks"`
	// Bytes is the in-memory column/zone footprint.
	Bytes int64 `json:"bytes"`
	// BuildSimSeconds is the simulated cost invested in index builds
	// (training + whole-day inference), charged to no query.
	BuildSimSeconds float64 `json:"build_sim_seconds"`
	// Labels / LabelHits / LabelMisses cover the ground-truth label
	// stores: committed entries and lookup outcomes.
	Labels      int    `json:"labels"`
	LabelHits   uint64 `json:"label_hits"`
	LabelMisses uint64 `json:"label_misses"`
	// DenseChunks counts the filled (class, sealed chunk) detector-count
	// columns exact scans read instead of re-running the detector; their
	// memory is part of Bytes.
	DenseChunks int `json:"dense_chunks"`
	// ChunksSkipped / FramesSkipped total the zone-map skip decisions
	// executed plans reported.
	ChunksSkipped uint64 `json:"chunks_skipped"`
	FramesSkipped uint64 `json:"frames_skipped"`
	// ConjunctionChunksSkipped totals chunks proven irrelevant by the
	// conjunction kernel; DensityChunksOutOfOrder totals chunks
	// density-ordered plans visited out of temporal order.
	ConjunctionChunksSkipped uint64 `json:"conjunction_chunks_skipped"`
	DensityChunksOutOfOrder  uint64 `json:"density_chunks_out_of_order"`
	// Background build progress (streams, not classes).
	BuildsQueued uint64 `json:"builds_queued"`
	BuildsDone   uint64 `json:"builds_done"`
	BuildsFailed uint64 `json:"builds_failed"`
	// Errors carries recent persistence problems (the tier degrades to
	// memory-only rather than failing queries).
	Errors []string `json:"errors,omitempty"`
}

// plannerStatz reports cost-based planner activity aggregated across the
// open engines (core.Accounting.Merge): how many executions were planned,
// how often a hint or baseline forced the pick, which plan each family
// chose, and how closely estimates tracked actual simulated cost.
type plannerStatz struct {
	// Planned counts executed planning decisions (forced included).
	Planned uint64 `json:"planned"`
	// Forced counts hint- or baseline-forced executions.
	Forced uint64 `json:"forced"`
	// Picks maps plan family → plan name → executions.
	Picks map[string]map[string]uint64 `json:"picks,omitempty"`
	// MeanEstimateError is the mean relative |actual−estimate|/estimate
	// over cost-chosen executions.
	MeanEstimateError float64 `json:"mean_estimate_error"`
	// WindowErrors maps plan family → sliding-window estimate error —
	// the same window the drift detector reads, so this is the live view
	// of how well calibrated pricing currently tracks executions.
	WindowErrors map[string]core.WindowErrorStat `json:"window_errors,omitempty"`
	// Calibrations maps "family|plan" → lifetime feedback observations
	// accumulated by the calibration store.
	Calibrations map[string]uint64 `json:"calibrations,omitempty"`
	// Prepared maps plan family → lookups in the prepared-state store: a
	// hit enumerated from memory, a miss trained or measured first.
	Prepared map[string]core.PreparedStat `json:"prepared,omitempty"`
}

// parallelStatz reports sharded-execution activity aggregated across the
// open engines: how many plan executions fanned out, how many shards they
// produced, and the utilization of the request-level worker pool.
type parallelStatz struct {
	// DefaultParallelism is the engine default worker count.
	DefaultParallelism int `json:"default_parallelism"`
	// MaxParallelism is the highest per-query override accepted.
	MaxParallelism int `json:"max_parallelism"`
	// PlanExecutions counts plan executions across open engines.
	PlanExecutions uint64 `json:"plan_executions"`
	// Fanouts counts executions that ran shards on more than one worker.
	Fanouts uint64 `json:"fanouts"`
	// Shards is the total number of scan shards produced.
	Shards uint64 `json:"shards"`
	// Chunks is the total number of chunk-aligned batches the vectorized
	// executor consumed.
	Chunks uint64 `json:"chunks"`
	// PoolUtilization is the fraction of request-pool workers currently
	// executing queries (0..1).
	PoolUtilization float64 `json:"pool_utilization"`
}

// cacheStatz is the result cache's counters plus the size of the hit
// replies it keeps encoded.
type cacheStatz struct {
	CacheStats
	EncodedBytes int64 `json:"encoded_bytes"`
}

type queriesStatz struct {
	Total     uint64 `json:"total"`
	CacheHits uint64 `json:"cache_hits"`
	Errors    uint64 `json:"errors"`
}

// simStatz reports simulated-cost accounting: charged is what executed
// queries — ad-hoc and standing — actually cost; saved is what cache hits
// would have re-cost.
type simStatz struct {
	ChargedSeconds       float64 `json:"charged_seconds"`
	ChargedDetectorCalls uint64  `json:"charged_detector_calls"`
	SavedSeconds         float64 `json:"saved_seconds"`
	SavedDetectorCalls   uint64  `json:"saved_detector_calls"`
}

type registryStatz struct {
	Open    []string `json:"open"`
	Opening int      `json:"opening"`
	Opens   uint64   `json:"opens"`
}

// livezStatz is the /statz "livez" section: continuous-query activity
// across the server's live streams.
type livezStatz struct {
	// Live reports whether streams were opened live; LiveStart is the
	// initially visible fraction of the day.
	Live      bool    `json:"live"`
	LiveStart float64 `json:"live_start,omitempty"`
	// Streams maps open stream names to their live position.
	Streams map[string]liveStreamStatz `json:"streams,omitempty"`
	// Ingests / FramesIngested total POST /ingest activity.
	Ingests        uint64 `json:"ingests"`
	FramesIngested uint64 `json:"frames_ingested"`
	// Subscribes / Unsubscribes / SubscriptionsActive cover the standing-
	// query registry; Polls and Advances its read activity (an advance is
	// a poll that found new frames and moved a cursor).
	Subscribes          uint64 `json:"subscribes"`
	Unsubscribes        uint64 `json:"unsubscribes"`
	SubscriptionsActive int    `json:"subscriptions_active"`
	Polls               uint64 `json:"polls"`
	Advances            uint64 `json:"advances"`
}

// liveStreamStatz is one open stream's live position, read from one
// pinned snapshot so the fields can never tear against a racing ingest.
type liveStreamStatz struct {
	Horizon   int    `json:"horizon"`
	DayFrames int    `json:"day_frames"`
	Epoch     uint64 `json:"epoch"`
	// SnapshotEpoch mirrors Epoch under the gauge's exported name;
	// TailFrames is the unsealed tail depth (frames past the last sealed
	// 1024-frame chunk) and SnapshotLag how many frames the materialized
	// index trails the published horizon (0 when update propagation is
	// caught up, which ingest guarantees on its success path).
	SnapshotEpoch uint64 `json:"live_snapshot_epoch"`
	TailFrames    int    `json:"live_tail_frames"`
	SnapshotLag   int    `json:"live_snapshot_lag_frames"`
	// live marks an engine opened live: only those export the live_* gauges.
	live bool
}

// books is one fold of the server's accounting: the stats page, less the
// counters the metrics registry already holds, plus what only a gauge
// itemizes.
type books struct {
	statzResponse
	// subs is every standing query's position, for the per-subscription
	// lag gauge.
	subs []subscriptionPos
}

type subscriptionPos struct {
	id, stream string
	horizon    int
}

// fold reads the books: the pool, the cache and the registries once each,
// and every open engine once — its accounting merged into the others', its
// index inventory walked, its position read off one pinned snapshot.
func (s *Server) fold() *books {
	b := &books{statzResponse: statzResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Cache:         cacheStatz{s.cache.Stats(), s.cache.EncodedBytes()},
		Pool:          s.pool.Stats(),
		Parallel:      parallelStatz{DefaultParallelism: s.defaultParallelism(), MaxParallelism: s.maxParallelism()},
		Indexz: indexStatz{
			Dir:          s.cfg.Engine.IndexDir,
			BuildsQueued: s.buildsQueued.Load(),
			BuildsDone:   s.buildsDone.Load(),
			BuildsFailed: s.buildsFailed.Load(),
		},
		Livez:    livezStatz{Live: s.live(), LiveStart: s.cfg.Engine.LiveStart, Streams: make(map[string]liveStreamStatz)},
		Registry: registryStatz{Open: []string{}, Opens: s.reg.Opens()},
	}}
	if b.Pool.Workers > 0 {
		b.Parallel.PoolUtilization = float64(b.Pool.Running) / float64(b.Pool.Workers)
	}
	var acct core.Accounting
	idx := &b.Indexz
	b.Registry.Opening = s.reg.Each(func(stream string, eng *core.Engine) {
		b.Registry.Open = append(b.Registry.Open, stream)
		acct.Merge(eng.Accounting())
		is := eng.IndexStats()
		idx.ModelsTrained += is.ModelsTrained
		idx.ModelsLoaded += is.ModelsLoaded
		idx.SegmentsBuilt += is.SegmentsBuilt
		idx.SegmentsLoaded += is.SegmentsLoaded
		idx.BuildSimSeconds += is.BuildSimSeconds
		for _, seg := range is.Segments {
			idx.Segments++
			idx.Chunks += seg.Chunks
			idx.Bytes += seg.Bytes
		}
		for _, ld := range is.Labels {
			idx.Labels += ld.Entries
			idx.LabelHits += ld.Hits
			idx.LabelMisses += ld.Misses
			idx.DenseChunks += ld.DenseChunks
			idx.Bytes += ld.DenseBytes
		}
		idx.Errors = append(idx.Errors, is.Errors...)
		pe, epoch := eng.Pin()
		b.Livez.Streams[stream] = liveStreamStatz{
			Horizon:       pe.Horizon(),
			DayFrames:     pe.DayFrames(),
			Epoch:         epoch,
			SnapshotEpoch: epoch,
			TailFrames:    pe.TailFrames(),
			SnapshotLag:   pe.SnapshotLagFrames(),
			live:          eng.Live(),
		}
	})
	b.Parallel.PlanExecutions = acct.Executions
	b.Parallel.Fanouts = acct.Fanouts
	b.Parallel.Shards = acct.Shards
	b.Parallel.Chunks = acct.Chunks
	b.Planner = plannerStatz{
		Planned:           acct.Planned,
		Forced:            acct.Forced,
		Picks:             acct.Picks,
		MeanEstimateError: acct.MeanEstimateError(),
		WindowErrors:      acct.WindowErrors,
		Calibrations:      acct.Calibrations,
		Prepared:          acct.Prepared,
	}
	s.liveSt.mu.Lock()
	b.Livez.SubscriptionsActive = len(s.liveSt.subs)
	for _, sub := range s.liveSt.subs {
		b.subs = append(b.subs, subscriptionPos{sub.id, sub.stream, int(sub.horizon.Load())})
	}
	s.liveSt.mu.Unlock()
	return b
}

// collected is the table of scrape-time families: each row renders one
// family of /metrics from the scrape's fold.
var collected = []struct {
	name, help string
	kind       obs.Kind
	labels     []string
	emit       func(b *books, emit obs.EmitFunc)
}{
	{"blazeit_uptime_seconds", "Seconds since the server started.", obs.KindGauge, nil,
		one(func(b *books) float64 { return b.UptimeSeconds })},
	{"blazeit_pool_workers", "Worker-pool size.", obs.KindGauge, nil,
		one(func(b *books) float64 { return float64(b.Pool.Workers) })},
	{"blazeit_pool_running", "Worker-pool tasks executing now.", obs.KindGauge, nil,
		one(func(b *books) float64 { return float64(b.Pool.Running) })},
	{"blazeit_pool_queue_len", "Worker-pool admission queue depth now.", obs.KindGauge, nil,
		one(func(b *books) float64 { return float64(b.Pool.QueueLen) })},
	{"blazeit_pool_queue_cap", "Worker-pool admission queue capacity.", obs.KindGauge, nil,
		one(func(b *books) float64 { return float64(b.Pool.QueueCap) })},
	{"blazeit_pool_utilization", "Fraction of pool workers busy (0..1).", obs.KindGauge, nil,
		one(func(b *books) float64 { return b.Parallel.PoolUtilization })},
	{"blazeit_pool_tasks_total", "Worker-pool admission outcomes, by event.", obs.KindCounter, []string{"event"},
		func(b *books, emit obs.EmitFunc) {
			emit(float64(b.Pool.Executed), "executed")
			emit(float64(b.Pool.Rejected), "rejected")
			emit(float64(b.Pool.Canceled), "canceled")
			emit(float64(b.Pool.Panicked), "panicked")
		}},
	{"blazeit_result_cache_entries", "Result-cache entries resident.", obs.KindGauge, nil,
		one(func(b *books) float64 { return float64(b.Cache.Entries) })},
	{"blazeit_result_cache_events_total", "Result-cache activity, by event.", obs.KindCounter, []string{"event"},
		func(b *books, emit obs.EmitFunc) {
			emit(float64(b.Cache.Hits), "hit")
			emit(float64(b.Cache.Misses), "miss")
			emit(float64(b.Cache.Evictions), "eviction")
		}},
	{"blazeit_result_cache_hit_ratio", "Result-cache hit ratio (0..1).", obs.KindGauge, nil,
		one(func(b *books) float64 {
			if total := b.Cache.Hits + b.Cache.Misses; total > 0 {
				return float64(b.Cache.Hits) / float64(total)
			}
			return 0
		})},
	{"blazeit_result_cache_saved_sim_seconds_total", "Simulated seconds cache hits would have re-cost.", obs.KindCounter, nil,
		one(func(b *books) float64 { return b.Cache.SavedSimSeconds })},
	{"blazeit_result_cache_saved_detector_calls_total", "Detector calls cache hits would have re-cost.", obs.KindCounter, nil,
		one(func(b *books) float64 { return float64(b.Cache.SavedDetectorCalls) })},
	{"blazeit_cache_encoded_bytes", "Bytes of encoded hit replies resident result-cache entries keep.", obs.KindGauge, nil,
		one(func(b *books) float64 { return float64(b.Cache.EncodedBytes) })},
	{"blazeit_query_parse_memo_hits_total", "Query texts whose analysis was served from the parse memo.", obs.KindCounter, nil,
		one(func(b *books) float64 { return float64(b.Cache.ParseMemoHits) })},
	{"blazeit_engines_open", "Stream engines currently open.", obs.KindGauge, nil,
		one(func(b *books) float64 { return float64(len(b.Registry.Open)) })},
	{"blazeit_engine_opens_total", "Stream engines opened since start.", obs.KindCounter, nil,
		one(func(b *books) float64 { return float64(b.Registry.Opens) })},
	{"blazeit_index_builds_total", "Background index builds, by state.", obs.KindCounter, []string{"state"},
		func(b *books, emit obs.EmitFunc) {
			emit(float64(b.Indexz.BuildsQueued), "queued")
			emit(float64(b.Indexz.BuildsDone), "done")
			emit(float64(b.Indexz.BuildsFailed), "failed")
		}},
	{"blazeit_index_chunks", "Materialized index chunks resident across open engines.", obs.KindGauge, nil,
		one(func(b *books) float64 { return float64(b.Indexz.Chunks) })},
	{"blazeit_index_dense_chunks", "Filled (class, sealed chunk) detector-count columns across open engines.", obs.KindGauge, nil,
		one(func(b *books) float64 { return float64(b.Indexz.DenseChunks) })},
	{"blazeit_planner_planned_total", "Planner decisions executed across open engines.", obs.KindCounter, nil,
		one(func(b *books) float64 { return float64(b.Planner.Planned) })},
	{"blazeit_planner_forced_total", "Hint- or baseline-forced executions across open engines.", obs.KindCounter, nil,
		one(func(b *books) float64 { return float64(b.Planner.Forced) })},
	{"blazeit_planner_picks_total", "Executed plan picks, by family and plan.", obs.KindCounter, []string{"family", "plan"},
		func(b *books, emit obs.EmitFunc) {
			for fam, m := range b.Planner.Picks {
				for p, v := range m {
					emit(float64(v), fam, p)
				}
			}
		}},
	{"blazeit_planner_prepared_total",
		"Prepared-state store lookups by plan family and outcome (hit, miss; disk_load counts hits first served from a persisted blob).",
		obs.KindCounter, []string{"family", "outcome"},
		func(b *books, emit obs.EmitFunc) {
			for fam, st := range b.Planner.Prepared {
				emit(float64(st.Hits), fam, "hit")
				emit(float64(st.Misses), fam, "miss")
				emit(float64(st.DiskLoads), fam, "disk_load")
			}
		}},
	{"blazeit_planner_window_estimate_error",
		"Sliding-window mean relative estimate error per plan family — the same window the drift detector reads.",
		obs.KindGauge, []string{"family"},
		func(b *books, emit obs.EmitFunc) {
			for fam, we := range b.Planner.WindowErrors {
				emit(we.MeanError, fam)
			}
		}},
	{"blazeit_stream_horizon", "Visible frames per open stream.", obs.KindGauge, []string{"stream"},
		perStream(false, func(p liveStreamStatz) float64 { return float64(p.Horizon) })},
	{"blazeit_stream_day_frames", "Full-day frame count per open stream.", obs.KindGauge, []string{"stream"},
		perStream(false, func(p liveStreamStatz) float64 { return float64(p.DayFrames) })},
	{"blazeit_stream_epoch", "Ingest epoch per open stream.", obs.KindGauge, []string{"stream"},
		perStream(false, func(p liveStreamStatz) float64 { return float64(p.Epoch) })},
	{"blazeit_live_snapshot_epoch", "Published snapshot epoch per live stream.", obs.KindGauge, []string{"stream"},
		perStream(true, func(p liveStreamStatz) float64 { return float64(p.SnapshotEpoch) })},
	{"blazeit_live_tail_frames", "Unsealed tail depth (frames past the last sealed index chunk) per live stream.",
		obs.KindGauge, []string{"stream"},
		perStream(true, func(p liveStreamStatz) float64 { return float64(p.TailFrames) })},
	{"blazeit_live_snapshot_lag_frames", "Frames the materialized index trails the published snapshot horizon, per live stream.",
		obs.KindGauge, []string{"stream"},
		perStream(true, func(p liveStreamStatz) float64 { return float64(p.SnapshotLag) })},
	{"blazeit_subscriptions_active", "Standing queries registered now.", obs.KindGauge, nil,
		one(func(b *books) float64 { return float64(b.Livez.SubscriptionsActive) })},
	{"blazeit_subscription_lag_frames", "Frames a standing query's answer trails its stream's horizon, by subscription.",
		obs.KindGauge, []string{"id", "stream"},
		func(b *books, emit obs.EmitFunc) {
			for _, sub := range b.subs {
				if p, open := b.Livez.Streams[sub.stream]; open {
					emit(float64(max(p.Horizon-sub.horizon, 0)), sub.id, sub.stream)
				}
			}
		}},
}

// one renders an unlabeled family from a single value of the fold.
func one(v func(*books) float64) func(*books, obs.EmitFunc) {
	return func(b *books, emit obs.EmitFunc) { emit(v(b)) }
}

// perStream renders a family labeled by stream from each open stream's
// position — each live stream's, for the live_* gauges.
func perStream(liveOnly bool, v func(liveStreamStatz) float64) func(*books, obs.EmitFunc) {
	return func(b *books, emit obs.EmitFunc) {
		for stream, p := range b.Livez.Streams {
			if p.live || !liveOnly {
				emit(v(p), stream)
			}
		}
	}
}

// registerCollectors installs the collected table as one group over the
// fold, so a scrape folds once.
func (s *Server) registerCollectors() {
	g := obs.NewGroup(s.metrics, s.fold)
	for _, f := range collected {
		g.Collect(f.name, f.help, f.kind, f.labels, f.emit)
	}
}

// handleStatz encodes one fold as the human-oriented stats page, filling in
// the serving counters from the metrics registry — the same families
// /metrics exports, never a second set of books.
func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	resp := &s.fold().statzResponse
	count := func(name string) uint64 { return uint64(s.metrics.Value(name)) }
	resp.Queries = queriesStatz{
		Total:     uint64(s.metrics.SumValues("blazeit_queries_total")),
		CacheHits: uint64(s.metrics.SumValues("blazeit_query_cache_hits_total")),
		Errors:    count("blazeit_query_errors_total"),
	}
	resp.Sim = simStatz{
		ChargedSeconds:       s.metrics.Value("blazeit_sim_charged_seconds_total"),
		ChargedDetectorCalls: count("blazeit_sim_charged_detector_calls_total"),
		SavedSeconds:         resp.Cache.SavedSimSeconds,
		SavedDetectorCalls:   resp.Cache.SavedDetectorCalls,
	}
	resp.Indexz.ChunksSkipped = count("blazeit_index_chunks_skipped_total")
	resp.Indexz.FramesSkipped = count("blazeit_index_frames_skipped_total")
	resp.Indexz.ConjunctionChunksSkipped = count("blazeit_conjunction_chunks_skipped_total")
	resp.Indexz.DensityChunksOutOfOrder = count("blazeit_density_chunks_out_of_order_total")
	resp.Livez.Ingests = count("blazeit_ingests_total")
	resp.Livez.FramesIngested = uint64(s.metrics.SumValues("blazeit_ingest_frames_total"))
	resp.Livez.Subscribes = count("blazeit_subscribes_total")
	resp.Livez.Unsubscribes = count("blazeit_unsubscribes_total")
	resp.Livez.Polls = count("blazeit_polls_total")
	resp.Livez.Advances = count("blazeit_advances_total")
	resp.Streams = make(map[string]uint64)
	for _, name := range s.streams {
		if q := s.metrics.Value("blazeit_queries_total", name); q > 0 {
			resp.Streams[name] = uint64(q)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
