package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/plan"
)

// This file is the serving tier's observability hookup: the metrics
// registry behind GET /metrics (Prometheus text exposition), the trace
// ring behind GET /traces and /traces/{id}, the per-request middleware
// (trace IDs, access log, request metrics), and the slow-query log.
//
// The registry is the single source of truth for serving counters —
// /statz reads the same families /metrics exports, so the two can never
// disagree.

// estimateErrorBuckets are the relative |actual−estimate|/estimate bounds
// for the planner estimate-error histogram. 0.1 means the estimate was
// within 10% of the actual simulated cost.
var estimateErrorBuckets = []float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5}

// serverMetrics holds the handles for the directly updated families; the
// collected families (pool, cache, engines, live positions) register in
// registerCollectors and read their sources at scrape time.
type serverMetrics struct {
	requests   *obs.CounterVec   // blazeit_http_requests_total{endpoint,method,code}
	latency    *obs.HistogramVec // blazeit_http_request_seconds{endpoint}
	queries    *obs.CounterVec   // blazeit_queries_total{stream}
	cacheHits  *obs.CounterVec   // blazeit_query_cache_hits_total{stream}
	queryErrs  *obs.Counter      // blazeit_query_errors_total
	simSeconds *obs.Counter      // blazeit_sim_charged_seconds_total
	simCalls   *obs.Counter      // blazeit_sim_charged_detector_calls_total
	chunksSkip *obs.Counter      // blazeit_index_chunks_skipped_total
	framesSkip *obs.Counter      // blazeit_index_frames_skipped_total
	conjSkip   *obs.Counter      // blazeit_conjunction_chunks_skipped_total
	densityOOO *obs.Counter      // blazeit_density_chunks_out_of_order_total
	estErr     *obs.HistogramVec // blazeit_planner_estimate_error{family}

	ingests      *obs.Counter    // blazeit_ingests_total
	ingestFrames *obs.CounterVec // blazeit_ingest_frames_total{stream}
	subscribes   *obs.Counter    // blazeit_subscribes_total
	unsubscribes *obs.Counter    // blazeit_unsubscribes_total
	polls        *obs.Counter    // blazeit_polls_total
	advances     *obs.Counter    // blazeit_advances_total

	slowQueries *obs.Counter // blazeit_slow_queries_total
}

func newServerMetrics(r *obs.Registry) *serverMetrics {
	return &serverMetrics{
		requests: r.Counter("blazeit_http_requests_total",
			"HTTP requests served, by endpoint, method, and status code.",
			"endpoint", "method", "code"),
		latency: r.Histogram("blazeit_http_request_seconds",
			"HTTP request latency in seconds, by endpoint.",
			obs.DefLatencyBuckets, "endpoint"),
		queries: r.Counter("blazeit_queries_total",
			"Queries answered (cache hits included), by stream.", "stream"),
		cacheHits: r.Counter("blazeit_query_cache_hits_total",
			"Queries answered from the result cache, by stream.", "stream"),
		queryErrs: r.Counter("blazeit_query_errors_total",
			"Query, standing-query, and advance executions that failed.").With(),
		simSeconds: r.Counter("blazeit_sim_charged_seconds_total",
			"Simulated cost-meter seconds charged to executed queries.").With(),
		simCalls: r.Counter("blazeit_sim_charged_detector_calls_total",
			"Simulated full-frame detector invocations charged to executed queries.").With(),
		chunksSkip: r.Counter("blazeit_index_chunks_skipped_total",
			"Index zone-map chunks executed plans skipped.").With(),
		framesSkip: r.Counter("blazeit_index_frames_skipped_total",
			"Frames executed plans skipped via index zone maps.").With(),
		conjSkip: r.Counter("blazeit_conjunction_chunks_skipped_total",
			"Chunks executed plans proved irrelevant via the conjunction kernel.").With(),
		densityOOO: r.Counter("blazeit_density_chunks_out_of_order_total",
			"Chunks density-ordered plans visited out of temporal order.").With(),
		estErr: r.Histogram("blazeit_planner_estimate_error",
			"Planner relative cost-estimate error |actual-estimate|/estimate, by plan family.",
			estimateErrorBuckets, "family"),
		ingests: r.Counter("blazeit_ingests_total",
			"POST /ingest requests that appended frames.").With(),
		ingestFrames: r.Counter("blazeit_ingest_frames_total",
			"Frames made visible by live ingest, by stream.", "stream"),
		subscribes: r.Counter("blazeit_subscribes_total",
			"Standing queries registered.").With(),
		unsubscribes: r.Counter("blazeit_unsubscribes_total",
			"Standing queries removed.").With(),
		polls: r.Counter("blazeit_polls_total",
			"GET /poll requests served.").With(),
		advances: r.Counter("blazeit_advances_total",
			"Polls that found new frames and advanced a standing query.").With(),
		slowQueries: r.Counter("blazeit_slow_queries_total",
			"Queries slower than the slow-query threshold.").With(),
	}
}

// registerCollectors installs the scrape-time families: values that
// already live in the pool, cache, engine registry, and subscription
// registry are read when /metrics (or /statz) asks, not double-booked.
func (s *Server) registerCollectors() {
	r := s.metrics
	r.CollectFunc("blazeit_uptime_seconds", "Seconds since the server started.",
		obs.KindGauge, nil, func(emit obs.EmitFunc) {
			emit(time.Since(s.start).Seconds())
		})
	r.CollectFunc("blazeit_pool_workers", "Worker-pool size.",
		obs.KindGauge, nil, func(emit obs.EmitFunc) {
			emit(float64(s.pool.Stats().Workers))
		})
	r.CollectFunc("blazeit_pool_running", "Worker-pool tasks executing now.",
		obs.KindGauge, nil, func(emit obs.EmitFunc) {
			emit(float64(s.pool.Stats().Running))
		})
	r.CollectFunc("blazeit_pool_queue_len", "Worker-pool admission queue depth now.",
		obs.KindGauge, nil, func(emit obs.EmitFunc) {
			emit(float64(s.pool.Stats().QueueLen))
		})
	r.CollectFunc("blazeit_pool_queue_cap", "Worker-pool admission queue capacity.",
		obs.KindGauge, nil, func(emit obs.EmitFunc) {
			emit(float64(s.pool.Stats().QueueCap))
		})
	r.CollectFunc("blazeit_pool_utilization", "Fraction of pool workers busy (0..1).",
		obs.KindGauge, nil, func(emit obs.EmitFunc) {
			st := s.pool.Stats()
			if st.Workers > 0 {
				emit(float64(st.Running) / float64(st.Workers))
			} else {
				emit(0)
			}
		})
	r.CollectFunc("blazeit_pool_tasks_total", "Worker-pool admission outcomes, by event.",
		obs.KindCounter, []string{"event"}, func(emit obs.EmitFunc) {
			st := s.pool.Stats()
			emit(float64(st.Executed), "executed")
			emit(float64(st.Rejected), "rejected")
			emit(float64(st.Canceled), "canceled")
			emit(float64(st.Panicked), "panicked")
		})
	r.CollectFunc("blazeit_result_cache_entries", "Result-cache entries resident.",
		obs.KindGauge, nil, func(emit obs.EmitFunc) {
			emit(float64(s.cache.Stats().Entries))
		})
	r.CollectFunc("blazeit_result_cache_events_total", "Result-cache activity, by event.",
		obs.KindCounter, []string{"event"}, func(emit obs.EmitFunc) {
			st := s.cache.Stats()
			emit(float64(st.Hits), "hit")
			emit(float64(st.Misses), "miss")
			emit(float64(st.Evictions), "eviction")
		})
	r.CollectFunc("blazeit_result_cache_hit_ratio", "Result-cache hit ratio (0..1).",
		obs.KindGauge, nil, func(emit obs.EmitFunc) {
			st := s.cache.Stats()
			if total := st.Hits + st.Misses; total > 0 {
				emit(float64(st.Hits) / float64(total))
			} else {
				emit(0)
			}
		})
	r.CollectFunc("blazeit_result_cache_saved_sim_seconds_total",
		"Simulated seconds cache hits would have re-cost.",
		obs.KindCounter, nil, func(emit obs.EmitFunc) {
			emit(s.cache.Stats().SavedSimSeconds)
		})
	r.CollectFunc("blazeit_result_cache_saved_detector_calls_total",
		"Detector calls cache hits would have re-cost.",
		obs.KindCounter, nil, func(emit obs.EmitFunc) {
			emit(float64(s.cache.Stats().SavedDetectorCalls))
		})
	r.CollectFunc("blazeit_cache_encoded_bytes",
		"Bytes of encoded hit replies resident result-cache entries keep.",
		obs.KindGauge, nil, func(emit obs.EmitFunc) {
			emit(float64(s.cache.EncodedBytes()))
		})
	r.CollectFunc("blazeit_query_parse_memo_hits_total",
		"Query texts whose analysis was served from the parse memo.",
		obs.KindCounter, nil, func(emit obs.EmitFunc) {
			emit(float64(s.cache.Stats().ParseMemoHits))
		})
	r.CollectFunc("blazeit_engines_open", "Stream engines currently open.",
		obs.KindGauge, nil, func(emit obs.EmitFunc) {
			open, _ := s.reg.Open()
			emit(float64(len(open)))
		})
	r.CollectFunc("blazeit_engine_opens_total", "Stream engines opened since start.",
		obs.KindCounter, nil, func(emit obs.EmitFunc) {
			emit(float64(s.reg.Opens()))
		})
	r.CollectFunc("blazeit_index_builds_total", "Background index builds, by state.",
		obs.KindCounter, []string{"state"}, func(emit obs.EmitFunc) {
			emit(float64(s.buildsQueued.Load()), "queued")
			emit(float64(s.buildsDone.Load()), "done")
			emit(float64(s.buildsFailed.Load()), "failed")
		})
	r.CollectFunc("blazeit_index_chunks", "Materialized index chunks resident across open engines.",
		obs.KindGauge, nil, func(emit obs.EmitFunc) {
			var chunks int
			s.eachOpenEngine(func(name string) {
				if eng, ok := s.reg.Peek(name); ok {
					for _, seg := range eng.IndexStats().Segments {
						chunks += seg.Chunks
					}
				}
			})
			emit(float64(chunks))
		})
	r.CollectFunc("blazeit_planner_planned_total", "Planner decisions executed across open engines.",
		obs.KindCounter, nil, func(emit obs.EmitFunc) {
			var n uint64
			s.eachOpenEngine(func(name string) {
				if eng, ok := s.reg.Peek(name); ok {
					n += eng.PlannerStats().Planned
				}
			})
			emit(float64(n))
		})
	r.CollectFunc("blazeit_planner_forced_total", "Hint- or baseline-forced executions across open engines.",
		obs.KindCounter, nil, func(emit obs.EmitFunc) {
			var n uint64
			s.eachOpenEngine(func(name string) {
				if eng, ok := s.reg.Peek(name); ok {
					n += eng.PlannerStats().Forced
				}
			})
			emit(float64(n))
		})
	r.CollectFunc("blazeit_planner_picks_total", "Executed plan picks, by family and plan.",
		obs.KindCounter, []string{"family", "plan"}, func(emit obs.EmitFunc) {
			picks := make(map[string]map[string]uint64)
			s.eachOpenEngine(func(name string) {
				if eng, ok := s.reg.Peek(name); ok {
					for fam, m := range eng.PlannerStats().Picks {
						dst := picks[fam]
						if dst == nil {
							dst = make(map[string]uint64)
							picks[fam] = dst
						}
						for k, v := range m {
							dst[k] += v
						}
					}
				}
			})
			for fam, m := range picks {
				for p, v := range m {
					emit(float64(v), fam, p)
				}
			}
		})
	r.CollectFunc("blazeit_planner_prepared_total",
		"Prepared-state store lookups by plan family and outcome (hit, miss; disk_load counts hits first served from a persisted blob).",
		obs.KindCounter, []string{"family", "outcome"}, func(emit obs.EmitFunc) {
			for fam, st := range s.preparedStats() {
				emit(float64(st.Hits), fam, "hit")
				emit(float64(st.Misses), fam, "miss")
				emit(float64(st.DiskLoads), fam, "disk_load")
			}
		})
	r.CollectFunc("blazeit_index_dense_chunks", "Filled (class, sealed chunk) detector-count columns across open engines.",
		obs.KindGauge, nil, func(emit obs.EmitFunc) {
			var n int
			s.eachOpenEngine(func(name string) {
				if eng, ok := s.reg.Peek(name); ok {
					for _, ld := range eng.IndexStats().Labels {
						n += ld.DenseChunks
					}
				}
			})
			emit(float64(n))
		})
	r.CollectFunc("blazeit_planner_window_estimate_error",
		"Sliding-window mean relative estimate error per plan family — the same window the drift detector reads.",
		obs.KindGauge, []string{"family"}, func(emit obs.EmitFunc) {
			sums := make(map[string]float64)
			counts := make(map[string]int)
			s.eachOpenEngine(func(name string) {
				if eng, ok := s.reg.Peek(name); ok {
					for fam, we := range eng.PlannerStats().WindowErrors {
						sums[fam] += we.MeanError * float64(we.Samples)
						counts[fam] += we.Samples
					}
				}
			})
			for fam, n := range counts {
				if n > 0 {
					emit(sums[fam]/float64(n), fam)
				}
			}
		})
	r.CollectFunc("blazeit_stream_horizon", "Visible frames per open stream.",
		obs.KindGauge, []string{"stream"}, func(emit obs.EmitFunc) {
			s.eachOpenEngine(func(name string) {
				if h, ok := s.streamHorizon(name); ok {
					emit(float64(h), name)
				}
			})
		})
	r.CollectFunc("blazeit_stream_day_frames", "Full-day frame count per open stream.",
		obs.KindGauge, []string{"stream"}, func(emit obs.EmitFunc) {
			s.eachOpenEngine(func(name string) {
				if eng, ok := s.reg.Peek(name); ok {
					emit(float64(eng.DayFrames()), name)
				}
			})
		})
	r.CollectFunc("blazeit_stream_epoch", "Ingest epoch per open stream.",
		obs.KindGauge, []string{"stream"}, func(emit obs.EmitFunc) {
			s.eachOpenEngine(func(name string) {
				if eng, ok := s.reg.Peek(name); ok {
					emit(float64(eng.StreamEpoch()), name)
				}
			})
		})
	r.CollectFunc("blazeit_live_snapshot_epoch", "Published snapshot epoch per live stream.",
		obs.KindGauge, []string{"stream"}, func(emit obs.EmitFunc) {
			s.eachOpenEngine(func(name string) {
				if eng, ok := s.reg.Peek(name); ok && eng.Live() {
					emit(float64(eng.StreamEpoch()), name)
				}
			})
		})
	r.CollectFunc("blazeit_live_tail_frames",
		"Unsealed tail depth (frames past the last sealed index chunk) per live stream.",
		obs.KindGauge, []string{"stream"}, func(emit obs.EmitFunc) {
			s.eachOpenEngine(func(name string) {
				if eng, ok := s.reg.Peek(name); ok && eng.Live() {
					emit(float64(eng.TailFrames()), name)
				}
			})
		})
	r.CollectFunc("blazeit_live_snapshot_lag_frames",
		"Frames the materialized index trails the published snapshot horizon, per live stream.",
		obs.KindGauge, []string{"stream"}, func(emit obs.EmitFunc) {
			s.eachOpenEngine(func(name string) {
				if eng, ok := s.reg.Peek(name); ok && eng.Live() {
					emit(float64(eng.SnapshotLagFrames()), name)
				}
			})
		})
	r.CollectFunc("blazeit_subscriptions_active", "Standing queries registered now.",
		obs.KindGauge, nil, func(emit obs.EmitFunc) {
			s.liveSt.mu.Lock()
			n := len(s.liveSt.subs)
			s.liveSt.mu.Unlock()
			emit(float64(n))
		})
	r.CollectFunc("blazeit_subscription_lag_frames",
		"Frames a standing query's answer trails its stream's horizon, by subscription.",
		obs.KindGauge, []string{"id", "stream"}, func(emit obs.EmitFunc) {
			// Snapshot the registry under its lock, then read horizons
			// outside it: streamHorizon takes per-stream locks that must
			// never nest inside liveSt.mu.
			type entry struct {
				id, stream string
				horizon    int64
			}
			s.liveSt.mu.Lock()
			entries := make([]entry, 0, len(s.liveSt.subs))
			for _, sub := range s.liveSt.subs {
				entries = append(entries, entry{sub.id, sub.stream, sub.horizon.Load()})
			}
			s.liveSt.mu.Unlock()
			for _, e := range entries {
				if h, ok := s.streamHorizon(e.stream); ok {
					lag := float64(h) - float64(e.horizon)
					if lag < 0 {
						lag = 0
					}
					emit(lag, e.id, e.stream)
				}
			}
		})
}

// eachOpenEngine calls fn for every open stream name.
func (s *Server) eachOpenEngine(fn func(name string)) {
	open, _ := s.reg.Open()
	for _, name := range open {
		fn(name)
	}
}

// traceIDCtxKey carries the request's trace ID through its context.
type traceIDCtxKey struct{}

// traceIDFrom returns the request's trace ID (set by instrument), or "".
func traceIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(traceIDCtxKey{}).(string)
	return id
}

// statusWriter captures the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the serving tier's per-request
// observability: a fresh trace ID (echoed in X-Trace-Id and threaded
// through the request context), the request counter and latency
// histogram, and one access-log line.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := obs.NewID()
		w.Header().Set("X-Trace-Id", id)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r.WithContext(context.WithValue(r.Context(), traceIDCtxKey{}, id)))
		dur := time.Since(start)
		s.m.requests.With(endpoint, r.Method, strconv.Itoa(sw.status)).Inc()
		s.m.latency.With(endpoint).Observe(dur.Seconds())
		s.log.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"dur_ms", float64(dur.Microseconds())/1000,
			obs.TraceIDKey, id,
		)
	}
}

// MetricsHandler returns the handler serving the Prometheus text
// exposition — the same one mounted at GET /metrics, for callers that
// mirror it on a debug listener.
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(s.handleMetrics)
}

// Metrics exposes the metrics registry (for tests and embedding callers).
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// Traces exposes the trace ring (for tests and embedding callers).
func (s *Server) Traces() *obs.TraceRing { return s.traces }

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "GET required")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.Write(w)
}

// handleTraces serves GET /traces (summaries, newest first) and
// GET /traces/{id} (one full span tree) from the bounded ring.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "GET required")
		return
	}
	id := strings.Trim(strings.TrimPrefix(r.URL.Path, "/traces"), "/")
	if id == "" {
		list := s.traces.List()
		if list == nil {
			list = []obs.TraceSummary{}
		}
		writeJSON(w, http.StatusOK, list)
		return
	}
	t := s.traces.Get(id)
	if t == nil {
		writeError(w, http.StatusNotFound, codeUnknownTrace,
			"trace %q not retained (ring keeps the most recent %d)", id, s.traces.Len())
		return
	}
	writeJSON(w, http.StatusOK, t)
}

// wantTrace reports whether the request asked for its trace inline
// (?trace=1 or ?trace=true).
func wantTrace(r *http.Request) bool {
	v := r.URL.Query().Get("trace")
	return v == "1" || v == "true"
}

// logSlowQuery emits the slow-query log line — wall time over the
// configured threshold dumps the full span tree alongside the canonical
// query so the stage that blew the budget is in the record, not just the
// total.
func (s *Server) logSlowQuery(what, stream, canonical string, wall time.Duration, tr *obs.Trace) {
	if s.cfg.SlowQuery <= 0 || wall < s.cfg.SlowQuery {
		return
	}
	s.m.slowQueries.Inc()
	attrs := []any{
		"stream", stream,
		"canonical", canonical,
		"wall_ms", float64(wall.Microseconds()) / 1000,
		"threshold_ms", float64(s.cfg.SlowQuery.Microseconds()) / 1000,
	}
	if tr != nil {
		attrs = append(attrs, obs.TraceIDKey, tr.ID)
		if b, err := json.Marshal(tr); err == nil {
			attrs = append(attrs, "trace", string(b))
		}
	}
	s.log.Warn("slow "+what, attrs...)
}

// preparedStats sums the open engines' prepared-state store lookups per
// plan family — the one source /metrics and /statz both read.
func (s *Server) preparedStats() map[string]core.PreparedStat {
	sum := make(map[string]core.PreparedStat)
	s.eachOpenEngine(func(name string) {
		if eng, ok := s.reg.Peek(name); ok {
			for fam, st := range eng.PlannerStats().Prepared {
				t := sum[fam]
				t.Hits += st.Hits
				t.Misses += st.Misses
				t.DiskLoads += st.DiskLoads
				sum[fam] = t
			}
		}
	})
	return sum
}

// observeEstimateError feeds the planner estimate-error histogram from a
// finished execution's plan report. Forced picks are skipped: the planner
// did not choose them, so their error says nothing about its model.
func (s *Server) observeEstimateError(rep *plan.Report) {
	if rep == nil || rep.Forced || rep.EstimateSeconds <= 0 {
		return
	}
	rel := (rep.ActualSeconds - rep.EstimateSeconds) / rep.EstimateSeconds
	if rel < 0 {
		rel = -rel
	}
	s.m.estErr.Observe(rel, rep.Family)
}
