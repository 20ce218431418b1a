package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/frameql"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/vidsim"
)

// intParam parses an integer query parameter strictly: an empty value
// yields def, and a malformed one is the caller's 400 — silently treating
// garbage as a default would mask client bugs.
func intParam(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("not an integer: %q", s)
	}
	return v, nil
}

// Config configures a Server.
type Config struct {
	// Engine is the option set applied to every lazily opened stream
	// engine (scale, seed, training overrides).
	Engine core.Options
	// Streams restricts the servable stream names; nil serves every
	// built-in evaluation stream.
	Streams []string
	// Workers is the executor's worker count (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue (default 4× workers); a full
	// queue rejects requests with HTTP 429.
	QueueDepth int
	// CacheEntries is the result-cache capacity in entries: 0 means the
	// default (256), negative disables result caching.
	CacheEntries int
	// MaxRows caps rows returned per selection/exhaustive response:
	// 0 means the default (1000), negative means unlimited.
	MaxRows int
	// QueryTimeout bounds each query's admission: queue wait plus any
	// wait on an in-flight engine open. A query whose execution has
	// already started is not preempted — it runs to completion and
	// returns its result. Zero means no server-side limit beyond the
	// client's context.
	QueryTimeout time.Duration
	// BackgroundIndex builds the materialized frame index for every class
	// of a stream in the background when the stream's engine opens, so
	// queries find models, segments, and zone maps already warm. Builds
	// are index investment (charged to no query) and, when the engine
	// options set an IndexDir, persist for future sessions. Close waits
	// for the in-flight build and skips pending ones.
	BackgroundIndex bool
	// Open overrides engine construction (used by tests); the default
	// opens core.NewEngine(name, Engine).
	Open Opener
	// Log receives the access log, the slow-query log, and server
	// lifecycle records; nil discards them.
	Log *slog.Logger
	// SlowQuery is the wall-clock threshold above which a query's full
	// span tree is logged at warn level. Zero disables the slow-query log.
	SlowQuery time.Duration
	// TraceRingSize bounds the retained-trace ring behind GET /traces
	// (0 means the default, 256).
	TraceRingSize int
}

const (
	defaultCacheEntries = 256
	defaultMaxRows      = 1000
)

// Server is the concurrent query-serving front end: it canonicalizes
// queries, serves repeats from the result cache, and runs misses on the
// worker pool against registry-pooled engines.
type Server struct {
	cfg     Config
	streams []string // served stream names, resolved once in New
	allowed map[string]bool
	reg     *Registry
	cache   *ResultCache
	pool    *Pool
	mux     *http.ServeMux
	start   time.Time

	// Observability: every serving counter lives in the metrics registry
	// (the source /metrics exports and /statz derives from), finished
	// execution traces in the bounded ring behind /traces.
	metrics *obs.Registry
	m       *serverMetrics
	traces  *obs.TraceRing
	log     *slog.Logger

	mu          sync.Mutex
	streamLocks map[string]*sync.Mutex

	// liveSt is the continuous-query tier's state: live-stream ingest
	// accounting and the standing-query registry (see live.go).
	liveSt liveState

	// Background index-build tracking: Close sets closing and waits on
	// builds, so partial index state flushes cleanly before exit. The
	// closing flag and builds.Add share s.mu so a build can never be
	// added after Close has observed a drained WaitGroup (the Add-during-
	// Wait race); closing is additionally atomic for the cheap
	// mid-build checks.
	closing      atomic.Bool
	builds       sync.WaitGroup
	buildsQueued atomic.Uint64
	buildsDone   atomic.Uint64
	buildsFailed atomic.Uint64
}

// New builds a Server from cfg. Call Close when done to drain the worker
// pool.
func New(cfg Config) *Server {
	open := cfg.Open
	if open == nil {
		open = func(name string) (*core.Engine, error) {
			return core.NewEngine(name, cfg.Engine)
		}
	}
	var s *Server
	if cfg.BackgroundIndex {
		// Wrap the opener so every successful open kicks off a
		// background index build for the stream's classes.
		inner := open
		open = func(name string) (*core.Engine, error) {
			eng, err := inner(name)
			if err == nil {
				s.startIndexBuild(eng)
			}
			return eng, err
		}
	}
	names := cfg.Streams
	if names == nil {
		names = vidsim.StreamNames()
	}
	allowed := make(map[string]bool, len(names))
	for _, n := range names {
		allowed[n] = true
	}
	cacheCap := cfg.CacheEntries
	switch {
	case cacheCap == 0:
		cacheCap = defaultCacheEntries
	case cacheCap < 0:
		cacheCap = 0
	}
	logger := cfg.Log
	if logger == nil {
		logger = obs.NopLogger()
	}
	s = &Server{
		cfg:         cfg,
		streams:     names,
		allowed:     allowed,
		reg:         NewRegistry(open),
		cache:       NewResultCache(cacheCap),
		pool:        NewPool(cfg.Workers, cfg.QueueDepth),
		mux:         http.NewServeMux(),
		start:       time.Now(),
		metrics:     obs.NewRegistry(),
		traces:      obs.NewTraceRing(cfg.TraceRingSize),
		log:         logger,
		streamLocks: make(map[string]*sync.Mutex),
	}
	s.m = newServerMetrics(s.metrics)
	s.registerCollectors()
	s.liveSt.subs = make(map[string]*subscription)
	handle := func(path string, h http.HandlerFunc, methods ...string) {
		s.mux.HandleFunc(path, s.instrument(strings.TrimSuffix(path, "/"), allow(h, methods...)))
	}
	handle("/query", s.handleQuery, http.MethodPost)
	handle("/streams", s.handleStreams, http.MethodGet)
	handle("/explain", s.handleExplain, http.MethodGet)
	handle("/statz", s.handleStatz, http.MethodGet)
	handle("/ingest", s.handleIngest, http.MethodPost)
	handle("/subscribe", s.handleSubscribe, http.MethodPost, http.MethodDelete)
	handle("/poll", s.handlePoll, http.MethodGet)
	handle("/metrics", s.handleMetrics, http.MethodGet)
	handle("/traces", s.handleTraces, http.MethodGet)
	handle("/traces/", s.handleTraces, http.MethodGet)
	return s
}

// Handler returns the HTTP handler serving the API.
func (s *Server) Handler() http.Handler { return s.mux }

// Streams returns the stream names this server serves.
func (s *Server) Streams() []string { return s.streams }

// Close shuts the server down cleanly: it stops launching background
// index builds and waits for the in-flight ones, drains and stops the
// worker pool, and flushes every open engine's index tier (sampled
// ground-truth labels, planner summaries) so a partially built index is
// persisted rather than lost.
func (s *Server) Close() {
	s.mu.Lock()
	s.closing.Store(true)
	s.mu.Unlock()
	s.builds.Wait()
	s.pool.Close()
	for _, eng := range s.reg.Close() {
		_ = eng.FlushIndex()
	}
	// The registry is empty now; drop the per-stream ingest locks with it
	// so the map never outlives the engines it was guarding.
	s.mu.Lock()
	s.streamLocks = make(map[string]*sync.Mutex)
	s.mu.Unlock()
}

// startIndexBuild launches a background materialization of the engine's
// index: one single-class build per configured stream class, in one
// goroutine so builds never compete with each other (they still share the
// engine's singleflight slots with queries — whoever starts a given
// artifact first wins, and the build is charged to no query either way).
func (s *Server) startIndexBuild(eng *core.Engine) {
	s.mu.Lock()
	if s.closing.Load() {
		s.mu.Unlock()
		return
	}
	s.builds.Add(1)
	s.mu.Unlock()
	s.buildsQueued.Add(1)
	go func() {
		defer s.builds.Done()
		failed := false
		for _, cc := range eng.Cfg.Classes {
			if s.closing.Load() {
				// Shutdown: skip pending classes; completed segments are
				// already persisted, and Close flushes the rest.
				break
			}
			// BuildIndex pins the stream's published snapshot, so the
			// build never races live-stream ingest — no lock needed.
			if err := eng.BuildIndex([]vidsim.Class{cc.Class}); err != nil {
				failed = true
			}
		}
		if failed {
			s.buildsFailed.Add(1)
		}
		s.buildsDone.Add(1)
	}()
}

// Preopen eagerly opens the named stream's engine so the first query
// doesn't pay stream generation and detector setup.
func (s *Server) Preopen(ctx context.Context, stream string) error {
	if !s.allowed[stream] {
		return fmt.Errorf("serve: unknown stream %q", stream)
	}
	_, err := s.reg.Engine(ctx, stream)
	return err
}

// Registry exposes the stream registry (for tests and embedding callers).
func (s *Server) Registry() *Registry { return s.reg }

// Cache exposes the result cache (for tests and embedding callers).
func (s *Server) Cache() *ResultCache { return s.cache }

// Machine-readable error codes carried in every error envelope, so
// clients can branch on failure class without parsing messages.
const (
	codeMethodNotAllowed    = "method_not_allowed"
	codeBadRequest          = "bad_request"
	codeBodyTooLarge        = "body_too_large"
	codeUnknownStream       = "unknown_stream"
	codeInvalidQuery        = "invalid_query"
	codeUnknownSubscription = "unknown_subscription"
	codeUnknownTrace        = "unknown_trace"
	codeSaturated           = "saturated"
	codeTimeout             = "timeout"
	codeCanceled            = "canceled"
	codeInternal            = "internal"
	codeUnavailable         = "unavailable"
	codeNotLive             = "not_live"
	codeQueryFailed         = "query_failed"
	codeIngestFailed        = "ingest_failed"
)

// errorBody is the unified error payload every endpoint returns: the HTTP
// status echoed for clients that lose it, a stable machine-readable code,
// and the human-readable message.
type errorBody struct {
	Status  int    `json:"status"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errorResponse is the JSON error envelope.
type errorResponse struct {
	Error errorBody `json:"error"`
}

// allow is the head of every request path: h serves the listed methods,
// anything else is answered 405 in the error envelope.
func allow(h http.HandlerFunc, methods ...string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !slices.Contains(methods, r.Method) {
			writeError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "%s required", strings.Join(methods, " or "))
			return
		}
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// appendJSON appends v encoded as writeJSON encodes it, without the
// encoder's trailing newline.
func appendJSON(dst []byte, v any) ([]byte, error) {
	buf := bytes.NewBuffer(dst)
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes()[:buf.Len()-1], nil
}

// appendOpenObject is appendJSON for a struct, leaving its JSON object open
// for the caller to append further fields to (each led by a comma) and
// close. The struct must have a field that is always encoded, or the first
// appended field's comma would follow the opening brace.
func appendOpenObject(dst []byte, v any) ([]byte, error) {
	b, err := appendJSON(dst, v)
	if err != nil {
		return nil, err
	}
	return b[:len(b)-1], nil
}

// writeEncodeError reports a reply that could not be encoded (a NaN or
// infinite number in a result) as a 500 rather than an empty 200.
func writeEncodeError(w http.ResponseWriter, err error) {
	writeError(w, http.StatusInternalServerError, codeInternal, "encoding reply: %v", err)
}

func writeError(w http.ResponseWriter, status int, code string, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: errorBody{
		Status:  status,
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}

// maxBodyBytes bounds a request body. The largest thing a client sends is
// a query text; nothing legitimate comes near 1 MiB.
const maxBodyBytes = 1 << 20

// decodeBody decodes r's JSON body into v, reading at most maxBodyBytes of
// it. On failure it writes the error reply — 413 for an oversized body,
// 400 for malformed JSON — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, codeBodyTooLarge,
			"request body exceeds %d bytes", tooLarge.Limit)
	} else {
		writeError(w, http.StatusBadRequest, codeBadRequest, "invalid JSON body: %v", err)
	}
	return false
}

// queryRequest is the POST /query body.
type queryRequest struct {
	// Stream names the video stream to query.
	Stream string `json:"stream"`
	// Query is the FrameQL text.
	Query string `json:"query"`
	// NoCache bypasses the result cache for this request (the result is
	// still stored for future hits).
	NoCache bool `json:"no_cache,omitempty"`
	// MaxRows lowers the server's row cap for this response; it cannot
	// raise it. 0 keeps the server limit.
	MaxRows int `json:"max_rows,omitempty"`
	// Parallelism is the worker count this query's plan shards its frame
	// scan across: 0 uses the server default, and values are clamped to
	// the server's maximum. Results are bit-identical at every level, so
	// cached results are shared across requests regardless of this knob.
	Parallelism int `json:"parallelism,omitempty"`
}

// statsJSON mirrors core.Stats for the wire.
type statsJSON struct {
	DetectorCalls   int      `json:"detector_calls"`
	DetectorSeconds float64  `json:"detector_seconds"`
	SpecNNSeconds   float64  `json:"specnn_seconds"`
	FilterSeconds   float64  `json:"filter_seconds"`
	TrainSeconds    float64  `json:"train_seconds"`
	TotalSeconds    float64  `json:"total_seconds"`
	Notes           []string `json:"notes,omitempty"`
}

func toStatsJSON(st *core.Stats) statsJSON {
	return statsJSON{
		DetectorCalls:   st.DetectorCalls,
		DetectorSeconds: st.DetectorSeconds,
		SpecNNSeconds:   st.SpecNNSeconds,
		FilterSeconds:   st.FilterSeconds,
		TrainSeconds:    st.TrainSeconds,
		TotalSeconds:    st.TotalSeconds(),
		Notes:           st.Notes,
	}
}

// boxJSON is a bounding box on the wire.
type boxJSON struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
	W float64 `json:"w"`
	H float64 `json:"h"`
}

// rowJSON is one returned FrameQL record on the wire.
type rowJSON struct {
	Timestamp  int     `json:"timestamp"`
	Class      string  `json:"class"`
	TrackID    int     `json:"track_id"`
	Box        boxJSON `json:"box"`
	Confidence float64 `json:"confidence"`
}

// replyHead is the part of a /query reply that is a pure function of the
// stored result and the row cap — everything up to "wall_ms". Together
// with appendReplyTail it is the one definition of the reply's wire
// format; /subscribe and /poll embed the same object as "result".
type replyHead struct {
	Stream    string    `json:"stream"`
	Canonical string    `json:"canonical"`
	Kind      string    `json:"kind"`
	Plan      string    `json:"plan"`
	Cached    bool      `json:"cached"`
	Value     *float64  `json:"value,omitempty"`
	StdErr    *float64  `json:"std_err,omitempty"`
	Frames    []int     `json:"frames,omitempty"`
	Rows      []rowJSON `json:"rows,omitempty"`
	TrackIDs  []int     `json:"track_ids,omitempty"`
	Truncated bool      `json:"truncated,omitempty"`
	Stats     statsJSON `json:"stats"`
	// PlanReport is the planner's candidate table for this execution
	// (for cached results, the execution that populated the cache).
	PlanReport *plan.Report `json:"plan_report,omitempty"`
}

// defaultParallelism is the worker count defaulted engines execute plans
// with, resolved by the same rule the engine itself applies.
func (s *Server) defaultParallelism() int {
	return core.ResolveParallelism(s.cfg.Engine.Parallelism)
}

// maxParallelism is the highest per-query parallelism a request may ask
// for: the configured engine default or GOMAXPROCS, whichever is larger
// (more workers than cores buys nothing but scheduler churn).
func (s *Server) maxParallelism() int {
	maxPar := runtime.GOMAXPROCS(0)
	if p := s.cfg.Engine.Parallelism; p > maxPar {
		maxPar = p
	}
	return maxPar
}

// resolveParallelism clamps a request's parallelism override: 0 (and
// negatives) defer to the engine default, larger values cap at the
// server's maximum.
func (s *Server) resolveParallelism(requested int) int {
	if requested <= 0 {
		return 0
	}
	if maxPar := s.maxParallelism(); requested > maxPar {
		return maxPar
	}
	return requested
}

// maxRows resolves the row cap for a response: the server limit (Config
// default applied), optionally lowered — never raised — by the request's
// override. A client asking for "unlimited" (negative) gets the server
// cap; only an unlimited server grants unlimited responses.
func (s *Server) maxRows(override int) int {
	cap := s.cfg.MaxRows
	if cap == 0 {
		cap = defaultMaxRows
	}
	if cap < 0 {
		cap = int(^uint(0) >> 1)
	}
	if override > 0 && override < cap {
		return override
	}
	return cap
}

// appendReplyHead appends the head of a reply for res to dst, as a JSON
// object left open for appendReplyTail. The bytes depend on nothing but
// the arguments after dst, so a cache entry keeps them and every hit
// shares them.
func appendReplyHead(dst []byte, stream, canonical string, res *core.Result, cached bool, maxRows int) ([]byte, error) {
	head := replyHead{
		Stream:     stream,
		Canonical:  canonical,
		Kind:       res.Kind,
		Plan:       res.Stats.Plan,
		Cached:     cached,
		Frames:     res.Frames,
		TrackIDs:   res.TrackIDs,
		Stats:      toStatsJSON(&res.Stats),
		PlanReport: res.PlanReport,
	}
	if res.Kind == "aggregate" || res.Kind == "distinct-count" || res.Kind == "binary-detection" {
		v := res.Value
		head.Value = &v
		if res.StdErr != 0 {
			se := res.StdErr
			head.StdErr = &se
		}
	}
	rows := res.Rows
	if len(rows) > maxRows {
		rows = rows[:maxRows]
		head.Truncated = true
	}
	if len(rows) > 0 {
		head.Rows = make([]rowJSON, len(rows))
		for i, r := range rows {
			head.Rows[i] = rowJSON{
				Timestamp:  r.Timestamp,
				Class:      string(r.Class),
				TrackID:    r.TrackID,
				Box:        boxJSON{X: r.Mask.X, Y: r.Mask.Y, W: r.Mask.W, H: r.Mask.H},
				Confidence: r.Confidence,
			}
		}
	}
	return appendOpenObject(dst, head)
}

// replyScratch recycles the buffers of heads encoded for one request — a
// miss or a standing answer — the way encoding/json
// recycles its own, so such a reply allocates no more than a streaming
// encode would. A stored hit head is owned by its cache entry and never
// comes from here.
var replyScratch = sync.Pool{New: func() any { return new([]byte) }}

// appendScratchHead is appendReplyHead into a recycled buffer. The caller
// writes the head out and then calls release, after which the bytes are
// another request's.
func appendScratchHead(stream, canonical string, res *core.Result, cached bool, maxRows int) (head []byte, release func(), err error) {
	scratch := replyScratch.Get().(*[]byte)
	release = func() { replyScratch.Put(scratch) }
	if head, err = appendReplyHead((*scratch)[:0], stream, canonical, res, cached, maxRows); err != nil {
		release()
		return nil, nil, err
	}
	*scratch = head // keep what the encode grew
	return head, release, nil
}

// appendReplyTail appends the per-request fields of a reply and closes
// the object appendReplyHead opened: the wall time, the request's trace ID
// (the full span tree is retrievable at /traces/{id} while the ring
// retains it), the span tree inline when the request asked for it with
// ?trace=1, and the stream snapshot the answer was computed against.
// Epoch and horizon are the ingest epoch and the frame count it made
// visible, both zero for full-day (non-live) streams; clients reading
// concurrently with ingest can rely on the pair being internally
// consistent — an answer is never labeled with a horizon from a different
// epoch than the one it ran at.
func appendReplyTail(dst []byte, wall time.Duration, traceID string, trace *obs.Trace, epoch uint64, horizon int) ([]byte, error) {
	// A duration in milliseconds at microsecond resolution is zero or in
	// [1e-3, 1e13), where encoding/json also formats floats with 'f'.
	dst = append(dst, `,"wall_ms":`...)
	dst = strconv.AppendFloat(dst, float64(wall.Microseconds())/1000, 'f', -1, 64)
	if traceID != "" {
		// Trace IDs are hex (obs.NewID), so quoting never escapes.
		dst = append(dst, `,"trace_id":`...)
		dst = strconv.AppendQuote(dst, traceID)
	}
	if trace != nil {
		dst = append(dst, `,"trace":`...)
		var err error
		if dst, err = appendJSON(dst, trace); err != nil {
			return nil, err
		}
	}
	dst = append(dst, `,"epoch":`...)
	dst = strconv.AppendUint(dst, epoch, 10)
	if horizon != 0 {
		dst = append(dst, `,"horizon":`...)
		dst = strconv.AppendInt(dst, int64(horizon), 10)
	}
	return append(dst, '}'), nil
}

// writeReply writes a reply: head (appendReplyHead's bytes), then the tail
// appendReplyTail builds from the arguments after it. head may be a cache
// entry's stored bytes, shared with concurrent requests — it is written,
// never appended to. /query passes a nil envelope and the reply is the
// whole body; /subscribe and /poll pass their handle, a struct whose fields
// open the body, with the reply following as the last field, "result".
func writeReply(w http.ResponseWriter, envelope any, head []byte, wall time.Duration, traceID string, trace *obs.Trace, epoch uint64, horizon int) {
	var open []byte
	closing := "\n"
	var err error
	if envelope != nil {
		if open, err = appendOpenObject(nil, envelope); err == nil {
			open = append(open, `,"result":`...)
			closing = "}\n"
		}
	}
	var tail []byte
	if err == nil {
		tail, err = appendReplyTail(make([]byte, 0, 96), wall, traceID, trace, epoch, horizon)
	}
	if err != nil {
		writeEncodeError(w, err)
		return
	}
	writeBody(w, open, head, append(tail, closing...))
}

// writeBody writes a 200 JSON reply assembled from parts, declaring its
// length up front so large replies need no chunked framing.
func writeBody(w http.ResponseWriter, parts ...[]byte) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(http.StatusOK)
	for _, p := range parts {
		_, _ = w.Write(p) // a failed write is a departed client
	}
}

// served reports whether the server serves the stream, writing the 404
// reply when it does not.
func (s *Server) served(w http.ResponseWriter, stream string) bool {
	if s.allowed[stream] {
		return true
	}
	writeError(w, http.StatusNotFound, codeUnknownStream, "unknown stream %q (see /streams)", stream)
	return false
}

// admit is the front of the request path: the stream must be served, the
// text must analyze (through the parse memo), and a FROM clause must name
// the stream the request targets. An empty stream — /explain without one —
// skips the stream checks. It writes the error reply and reports false when
// the request is not admitted.
func (s *Server) admit(w http.ResponseWriter, stream, query string) (info *frameql.Info, canonical string, ok bool) {
	if stream != "" && !s.served(w, stream) {
		return nil, "", false
	}
	info, canonical, err := s.cache.Analyze(query)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidQuery, "query error: %v", err)
		return nil, "", false
	}
	if stream != "" && info.Video != "" && info.Video != stream {
		writeError(w, http.StatusBadRequest, codeInvalidQuery,
			"query is over %q but request targets stream %q", info.Video, stream)
		return nil, "", false
	}
	return info, canonical, true
}

// route is how one endpoint's work reads in the pipeline's error replies:
// what names it in admission and timeout errors, and what an execution
// failure that is not a deadline answers (failFormat takes the error).
type route struct {
	what       string
	failStatus int
	failCode   string
	failFormat string
}

var (
	routeQuery     = route{"query", http.StatusBadRequest, codeQueryFailed, "query failed: %v"}
	routeExplain   = route{"planning", http.StatusBadRequest, codeQueryFailed, "planning failed: %v"}
	routeSubscribe = route{"subscribe", http.StatusBadRequest, codeQueryFailed, "standing query failed: %v"}
	routePoll      = route{"poll", http.StatusInternalServerError, codeInternal, "advancing standing query: %v"}
	routeIngest    = route{"ingest", http.StatusInternalServerError, codeIngestFailed, "ingest failed: %v"}
)

// newTrace starts the trace of a request's execution under the request's
// trace ID. Every execution is traced: tracing is answer-neutral (it reads
// the cost meter, never charges it) and the ring is bounded, so the span
// tree is always on record for /traces and the slow-query log; ?trace=1
// only controls inline return.
func newTrace(r *http.Request, canonical, stream string) *obs.Trace {
	tr := obs.NewTraceID(canonical, traceIDFrom(r.Context()))
	tr.Root.SetAttr("stream", stream)
	return tr
}

// run is the one path a request's work takes to an engine: fn runs on the
// worker pool — admission control, panic containment — under the query
// timeout, against the stream's engine, opened on first use. tr, nil for
// work that is not a query execution (planning, ingest), records the queue
// wait, then whatever fn records, and is published to the ring whether fn
// failed or not. run reports whether fn succeeded; when it did not, run has
// written the error reply: 429/504/499/500/503 for the pool's refusals, 504
// for a deadline inside fn, the route's failure otherwise.
func (s *Server) run(w http.ResponseWriter, r *http.Request, rt route, stream string, tr *obs.Trace, fn func(eng *core.Engine) error) bool {
	ctx := r.Context()
	if s.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryTimeout)
		defer cancel()
	}
	var root *obs.Span
	if tr != nil {
		root = tr.Root
	}
	queueSp := root.Child("queue")
	var err error
	poolErr := s.pool.Do(ctx, func() {
		// The pool's handoff orders this with the handler goroutine, so
		// the trace stays single-writer.
		queueSp.End()
		eng, openErr := s.reg.Engine(ctx, stream)
		if openErr != nil {
			err = fmt.Errorf("opening stream %q: %w", stream, openErr)
			return
		}
		err = fn(eng)
	})
	if poolErr != nil {
		switch {
		case errors.Is(poolErr, ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, codeSaturated, "server saturated: admission queue full")
		case errors.Is(poolErr, context.DeadlineExceeded):
			writeError(w, http.StatusGatewayTimeout, codeTimeout, "%s timed out after %s", rt.what, s.cfg.QueryTimeout)
		case errors.Is(poolErr, context.Canceled):
			writeError(w, 499, codeCanceled, "client canceled request")
		case errors.Is(poolErr, ErrTaskPanicked):
			s.m.queryErrs.Inc()
			writeError(w, http.StatusInternalServerError, codeInternal, "internal error during %s: %v", rt.what, poolErr)
		default:
			writeError(w, http.StatusServiceUnavailable, codeUnavailable, "executor unavailable: %v", poolErr)
		}
		return false
	}
	root.Fail(err)
	tr.Finish()
	s.traces.Add(tr)
	if err == nil {
		return true
	}
	if tr != nil {
		s.m.queryErrs.Inc() // an execution failed, not planning or an ingest
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		writeError(w, http.StatusGatewayTimeout, codeTimeout, "%s timed out: %v", rt.what, err)
	} else {
		writeError(w, rt.failStatus, rt.failCode, rt.failFormat, err)
	}
	return false
}

// account books a finished execution, whichever endpoint ran it: its
// result enters the cache under key (empty for a standing answer, which is
// its subscription's to keep), its Stats the charged-cost and skip
// counters, its plan report the estimate-error histogram — forced picks
// excepted: the planner did not choose them, so their error says nothing
// about its model — and a slow one the slow-query log, span tree included.
func (s *Server) account(rt route, stream, canonical, key string, res *core.Result, wall time.Duration, tr *obs.Trace) {
	if key != "" {
		s.cache.Put(key, res)
	}
	s.m.simSeconds.Add(res.Stats.TotalSeconds())
	s.m.simCalls.Add(float64(res.Stats.DetectorCalls))
	s.m.chunksSkip.Add(float64(res.Stats.IndexChunksSkipped))
	s.m.framesSkip.Add(float64(res.Stats.IndexFramesSkipped))
	s.m.conjSkip.Add(float64(res.Stats.ConjunctionChunksSkipped))
	s.m.densityOOO.Add(float64(res.Stats.DensityChunksOutOfOrder))
	if rep := res.PlanReport; rep != nil && !rep.Forced && rep.EstimateSeconds > 0 {
		s.m.estErr.Observe(math.Abs(rep.ActualSeconds-rep.EstimateSeconds)/rep.EstimateSeconds, rep.Family)
	}
	s.logSlowQuery(rt.what, stream, canonical, wall, tr)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Stream == "" || req.Query == "" {
		writeError(w, http.StatusBadRequest, codeBadRequest, `body must set "stream" and "query"`)
		return
	}
	info, canonical, ok := s.admit(w, req.Stream, req.Query)
	if !ok {
		return
	}

	traceID := traceIDFrom(r.Context())
	inline := wantTrace(r)
	maxRows := s.maxRows(req.MaxRows)
	start := time.Now()

	// Pin the stream's published snapshot up front: the snapshot is
	// immutable, so the (epoch, horizon) pair used for the cache lookup
	// and echoed in the response can never tear against a racing ingest.
	var pinEpoch uint64
	var pinHorizon int
	if eng, ok := s.reg.Peek(req.Stream); ok {
		pe, ep := eng.Pin()
		pinEpoch, pinHorizon = ep, pe.Horizon()
	}

	if !req.NoCache {
		// The key carries the stream's ingest epoch: an answer computed
		// before an ingest can never serve a request arriving after it. A
		// hit is this lookup and a Write; it never enters the pipeline.
		if hit := s.cache.lookup(CacheKey(req.Stream, pinEpoch, canonical)); hit != nil {
			s.m.queries.With(req.Stream).Inc()
			s.m.cacheHits.With(req.Stream).Inc()
			// The key fixes the reply up to its per-request tail, so hits at
			// the server's row cap share the bytes the first of them encoded.
			var head []byte
			var err error
			if maxRows == s.maxRows(0) {
				head, err = hit.hitHead(req.Stream, canonical, maxRows)
			} else {
				head, err = appendReplyHead(nil, req.Stream, canonical, cachedView(hit.res), true, maxRows)
			}
			if err != nil {
				writeEncodeError(w, err)
				return
			}
			var tr *obs.Trace
			if inline {
				// A cache hit runs no execution; the trace records the
				// lookup itself so traced requests always return a tree.
				tr = newTrace(r, canonical, req.Stream)
				tr.Root.SetAttr("cached", "true")
				tr.Finish()
				s.traces.Add(tr)
			}
			writeReply(w, nil, head, time.Since(start), traceID, tr, pinEpoch, pinHorizon)
			return
		}
	}

	par := s.resolveParallelism(req.Parallelism)
	tr := newTrace(r, canonical, req.Stream)
	var res *core.Result
	var execEpoch uint64
	var execHorizon int
	if !s.run(w, r, routeQuery, req.Stream, tr, func(eng *core.Engine) (err error) {
		// Pin once and execute on the pinned view: the query runs
		// lock-free against the snapshot's immutable state while ingest
		// races ahead, and the epoch recorded with the cached result is
		// exactly the snapshot the execution saw.
		pe, epoch := eng.Pin()
		execEpoch, execHorizon = epoch, pe.Horizon()
		res, err = pe.ExecuteParallelTraced(info, par, tr)
		return err
	}) {
		return
	}
	wall := time.Since(start)
	s.m.queries.With(req.Stream).Inc()
	s.account(routeQuery, req.Stream, canonical, CacheKey(req.Stream, execEpoch, canonical), res, wall, tr)
	head, release, err := appendScratchHead(req.Stream, canonical, res, false, maxRows)
	if err != nil {
		writeEncodeError(w, err)
		return
	}
	defer release()
	if !inline {
		tr = nil // on record in the ring; inline only on request
	}
	writeReply(w, nil, head, wall, traceID, tr, execEpoch, execHorizon)
}

// streamInfo is one GET /streams entry.
type streamInfo struct {
	Name      string  `json:"name"`
	Open      bool    `json:"open"`
	Queries   uint64  `json:"queries"`
	CacheHits uint64  `json:"cache_hits"`
	Frames    int     `json:"frames,omitempty"`
	FPS       int     `json:"fps,omitempty"`
	Detector  string  `json:"detector,omitempty"`
	Scale     float64 `json:"scale,omitempty"`
}

func (s *Server) handleStreams(w http.ResponseWriter, r *http.Request) {
	out := make([]streamInfo, 0, len(s.streams))
	for _, name := range s.streams {
		si := streamInfo{
			Name:      name,
			Queries:   uint64(s.metrics.Value("blazeit_queries_total", name)),
			CacheHits: uint64(s.metrics.Value("blazeit_query_cache_hits_total", name)),
		}
		if eng, ok := s.reg.Peek(name); ok {
			si.Open = true
			si.Frames = eng.Horizon()
			si.FPS = eng.Cfg.FPS
			si.Detector = eng.Cfg.Detector
			si.Scale = eng.Options().Scale
		}
		out = append(out, si)
	}
	writeJSON(w, http.StatusOK, out)
}

// explainResponse is the GET /explain reply: the optimizer's analysis and
// — when the request names a stream to plan against — the full costed
// candidate table, without executing anything.
type explainResponse struct {
	Kind              string   `json:"kind"`
	Canonical         string   `json:"canonical"`
	Classes           []string `json:"classes,omitempty"`
	ErrorWithin       *float64 `json:"error_within,omitempty"`
	Confidence        float64  `json:"confidence,omitempty"`
	Limit             *int     `json:"limit,omitempty"`
	Gap               int      `json:"gap,omitempty"`
	MinDurationFrames int      `json:"min_duration_frames,omitempty"`
	Residual          bool     `json:"residual,omitempty"`
	// Parallelism is the worker count the plan's frame scan would shard
	// across (the server default, or the clamped ?parallelism= override).
	Parallelism int `json:"parallelism"`
	// MaxParallelism is the highest per-query parallelism this server
	// accepts.
	MaxParallelism int `json:"max_parallelism"`
	// Plan is the planner's candidate table: the chosen physical plan and
	// every rejected candidate with its estimate. Present when the
	// request names a stream (?stream=, or the query's FROM clause names
	// a served stream); planning needs an engine for its cached held-out
	// statistics.
	Plan *plan.Report `json:"plan,omitempty"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		writeError(w, http.StatusBadRequest, codeBadRequest, "missing ?q= query parameter")
		return
	}
	stream := r.URL.Query().Get("stream")
	// The same admission /query enforces, so a 200 here means the
	// equivalent POST /query would be admitted.
	info, canonical, ok := s.admit(w, stream, q)
	if !ok {
		return
	}
	requested, err := intParam(r.URL.Query().Get("parallelism"), 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "invalid parallelism: %v", err)
		return
	}
	effective := s.resolveParallelism(requested)
	if effective <= 0 {
		effective = s.defaultParallelism()
	}
	resp := explainResponse{
		Kind:              info.Kind.String(),
		Canonical:         canonical,
		Classes:           info.Classes,
		ErrorWithin:       info.ErrorWithin,
		Confidence:        info.Confidence,
		Gap:               info.Gap,
		MinDurationFrames: info.MinDurationFrames,
		Residual:          info.Residual,
		Parallelism:       effective,
		MaxParallelism:    s.maxParallelism(),
	}
	if info.Limit >= 0 {
		l := info.Limit
		resp.Limit = &l
	}
	// Plan against an engine when the request identifies one: the
	// explicit ?stream= wins, else the query's FROM relation if served.
	planStream := stream
	if planStream == "" && s.allowed[info.Video] {
		planStream = info.Video
	}
	if planStream != "" {
		// Planning is real work — an engine open, possibly network
		// training and whole-day inference — so it takes the pipeline like
		// an execution does. It plans on the pinned snapshot view,
		// lock-free against ingest like every other read path.
		if !s.run(w, r, routeExplain, planStream, nil, func(eng *core.Engine) (err error) {
			pe, _ := eng.Pin()
			resp.Plan, err = pe.ExplainPlan(info, effective)
			return err
		}) {
			return
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
