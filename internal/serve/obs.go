package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// This file is the serving tier's observability hookup: the metrics
// registry behind GET /metrics (Prometheus text exposition), the trace
// ring behind GET /traces and /traces/{id}, the per-request middleware
// (trace IDs, access log, request metrics), and the slow-query log.
//
// The registry is the single source of truth for serving counters —
// /statz reads the same families /metrics exports, so the two can never
// disagree. What already lives elsewhere is collected at scrape time from
// one fold (books.go).

// estimateErrorBuckets are the relative |actual−estimate|/estimate bounds
// for the planner estimate-error histogram. 0.1 means the estimate was
// within 10% of the actual simulated cost.
var estimateErrorBuckets = []float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5}

// serverMetrics holds the handles for the directly updated families; the
// collected families (pool, cache, engines, live positions) are the
// collected table in books.go.
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
	return allow(s.handleMetrics, http.MethodGet)
}

// Metrics exposes the metrics registry (for tests and embedding callers).
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// Traces exposes the trace ring (for tests and embedding callers).
func (s *Server) Traces() *obs.TraceRing { return s.traces }

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.Write(w)
}

// handleTraces serves GET /traces (summaries, newest first) and
// GET /traces/{id} (one full span tree) from the bounded ring.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
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
