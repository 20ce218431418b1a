package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/frameql"
	"repro/internal/obs"
)

// This file is the serving layer's continuous-query tier: live streams
// that grow via POST /ingest, standing queries registered with POST
// /subscribe, and monotone incremental answers read with GET /poll.
//
// Concurrency contract: queries, planning, and subscription advances pin
// the stream's published snapshot at entry (core.Engine.Pin) and run
// lock-free against its immutable views, so ingest never blocks a
// reader and a reader never observes a torn horizon. Ingest holds the
// per-stream ingest mutex across AppendLive (frame append, index
// catch-up, snapshot publication) — that lock orders ingests against
// each other only. The result cache needs no locking against ingest at
// all: its keys carry the snapshot epoch, so an ingest invalidates by
// re-keying (see CacheKey).

// maxSubscriptions bounds the standing-query registry; beyond it,
// subscribe requests are shed with HTTP 429 like any other overload.
const maxSubscriptions = 1024

// subscription is one standing query: its execution, kept open for the
// subscription's lifetime, plus its latest answer. A poll advances the
// resident execution over whatever was ingested since; nothing is parsed,
// re-planned from scratch or serialized per poll (a cursor exists only
// when an execution has to leave the process — core.Execution.Suspend).
// Advances serialize on mu, so concurrent polls of one subscription
// collapse to one engine advance.
type subscription struct {
	id        string
	stream    string
	canonical string

	mu   sync.Mutex
	exec *core.Execution
	last *core.Result
	seq  uint64 // bumps every time the answer's horizon advances
	// maxRows is the subscription's row cap (0 = server default), applied
	// to every poll response, not just the initial one.
	maxRows int

	// horizon is the stream frame count last covers: exec.Horizon() as of
	// the last advance that succeeded. Atomic for lock-free reads — the
	// epoch-lag gauge must never block on mu, which an in-flight advance
	// holds across engine execution.
	horizon atomic.Int64
}

// liveState is the Server's continuous-tier state; activity counters live
// in the metrics registry, not here.
type liveState struct {
	mu     sync.Mutex
	subs   map[string]*subscription
	nextID uint64
}

// live reports whether the server opened its streams as live (growing)
// streams.
func (s *Server) live() bool { return s.cfg.Engine.LiveStart > 0 }

// streamLock returns the per-stream ingest mutex. It serializes
// ingest-ingest only: query, plan, and advance paths read pinned
// snapshots and never take it. Entries live until Server.Close empties
// the registry (and this map with it).
func (s *Server) streamLock(stream string) *sync.Mutex {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.streamLocks[stream]
	if !ok {
		l = &sync.Mutex{}
		s.streamLocks[stream] = l
	}
	return l
}

// streamHorizon reads the stream's visible frame count lock-free —
// Engine.Horizon reads the atomically published snapshot, never the
// live video ingest is mutating.
func (s *Server) streamHorizon(stream string) (int, bool) {
	eng, ok := s.reg.Peek(stream)
	if !ok {
		return 0, false
	}
	return eng.Horizon(), true
}

// ingestRequest is the POST /ingest body.
type ingestRequest struct {
	// Stream names the live stream to append to.
	Stream string `json:"stream"`
	// Frames is how many frames to make visible (clamped to the day end).
	Frames int `json:"frames"`
}

// ingestResponse is the POST /ingest reply.
type ingestResponse struct {
	Stream    string `json:"stream"`
	Requested int    `json:"requested"`
	Appended  int    `json:"appended"`
	Horizon   int    `json:"horizon"`
	DayFrames int    `json:"day_frames"`
	Epoch     uint64 `json:"epoch"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "POST required")
		return
	}
	if !s.live() {
		writeError(w, http.StatusBadRequest, codeNotLive, "server is not in live mode (start with a live start fraction)")
		return
	}
	var req ingestRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Stream == "" || req.Frames <= 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest, `body must set "stream" and a positive "frames"`)
		return
	}
	if !s.allowed[req.Stream] {
		writeError(w, http.StatusNotFound, codeUnknownStream, "unknown stream %q (see /streams)", req.Stream)
		return
	}
	ctx := r.Context()
	if s.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryTimeout)
		defer cancel()
	}
	var resp ingestResponse
	var ingErr error
	poolErr := s.pool.Do(ctx, func() {
		eng, err := s.reg.Engine(ctx, req.Stream)
		if err != nil {
			ingErr = fmt.Errorf("opening stream %q: %w", req.Stream, err)
			return
		}
		// Exclusive: appends must never race query execution (or each
		// other) over this engine.
		lock := s.streamLock(req.Stream)
		lock.Lock()
		defer lock.Unlock()
		added, err := eng.AppendLive(req.Frames)
		// AppendLive can fail partially: frames became visible (and the
		// epoch bumped) but index extension failed. Report the applied
		// state either way so a retrying client never double-appends.
		resp = ingestResponse{
			Stream: req.Stream, Requested: req.Frames, Appended: added,
			Horizon: eng.Horizon(), DayFrames: eng.DayFrames(), Epoch: eng.StreamEpoch(),
		}
		ingErr = err
	})
	if done := s.writePoolError(w, poolErr, "ingest"); done {
		return
	}
	if resp.Appended > 0 {
		s.m.ingests.Inc()
		s.m.ingestFrames.With(req.Stream).Add(float64(resp.Appended))
	}
	if ingErr != nil {
		if resp.Appended > 0 {
			writeError(w, http.StatusInternalServerError, codeIngestFailed,
				"ingest partially applied: %d frames are now visible (horizon %d, epoch %d) but index extension failed: %v — do not re-send these frames",
				resp.Appended, resp.Horizon, resp.Epoch, ingErr)
			return
		}
		writeError(w, http.StatusInternalServerError, codeIngestFailed, "ingest failed: %v", ingErr)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// subscribeRequest is the POST /subscribe body.
type subscribeRequest struct {
	Stream string `json:"stream"`
	Query  string `json:"query"`
	// Parallelism is the worker count the standing query's executions
	// shard across (0 = server default; clamped like /query).
	Parallelism int `json:"parallelism,omitempty"`
	// MaxRows caps rows per returned answer, like /query.
	MaxRows int `json:"max_rows,omitempty"`
}

// subscribeResponse is the POST /subscribe (and GET /poll) reply: the
// subscription handle, followed on the wire by "result" — the standing
// query's current answer in /query's reply format (writeReply's envelope;
// a standing answer reports no snapshot of its own, the handle carries its
// horizon).
type subscribeResponse struct {
	ID string `json:"id"`
	// Seq increments every time the answer's horizon advances; pollers
	// use it to detect updates.
	Seq uint64 `json:"seq"`
	// Horizon is the stream frame count the answer covers; DayFrames the
	// full day it is growing toward.
	Horizon   int    `json:"horizon"`
	DayFrames int    `json:"day_frames"`
	Plan      string `json:"plan"`
	// Updated reports whether this poll advanced the answer (always true
	// for the initial subscribe).
	Updated bool `json:"updated"`
	// PlanSwitches counts drift-triggered plan switches over the
	// subscription's lifetime; Replanned reports whether this poll's
	// advance switched plans. ReplanAtHorizon, when nonzero, is the
	// chunk-aligned horizon at which a pending drift re-plan will
	// re-enumerate (see the planner's drift detector).
	PlanSwitches    int  `json:"plan_switches,omitempty"`
	Replanned       bool `json:"replanned,omitempty"`
	ReplanAtHorizon int  `json:"replan_at_horizon,omitempty"`
}

func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
	case http.MethodDelete:
		s.handleUnsubscribe(w, r)
		return
	default:
		writeError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "POST or DELETE required")
		return
	}
	if !s.live() {
		// Without live streams a standing query could never advance; it
		// would only pin a registry slot forever. Symmetric with /ingest.
		writeError(w, http.StatusBadRequest, codeNotLive, "server is not in live mode (start with a live start fraction)")
		return
	}
	var req subscribeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Stream == "" || req.Query == "" {
		writeError(w, http.StatusBadRequest, codeBadRequest, `body must set "stream" and "query"`)
		return
	}
	if !s.allowed[req.Stream] {
		writeError(w, http.StatusNotFound, codeUnknownStream, "unknown stream %q (see /streams)", req.Stream)
		return
	}
	info, err := frameql.Analyze(req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidQuery, "query error: %v", err)
		return
	}
	if info.Video != "" && info.Video != req.Stream {
		writeError(w, http.StatusBadRequest, codeInvalidQuery,
			"query is over %q but request targets stream %q", info.Video, req.Stream)
		return
	}
	// Early shed before paying for execution; the bound is re-checked at
	// insert time, where it is authoritative.
	s.liveSt.mu.Lock()
	if len(s.liveSt.subs) >= maxSubscriptions {
		s.liveSt.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, codeSaturated, "subscription registry full (%d standing queries)", maxSubscriptions)
		return
	}
	s.liveSt.mu.Unlock()

	ctx := r.Context()
	if s.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryTimeout)
		defer cancel()
	}
	par := s.resolveParallelism(req.Parallelism)
	start := time.Now()
	var res *core.Result
	var x *core.Execution
	var execErr error
	poolErr := s.pool.Do(ctx, func() {
		eng, err := s.reg.Engine(ctx, req.Stream)
		if err != nil {
			execErr = fmt.Errorf("opening stream %q: %w", req.Stream, err)
			return
		}
		// BeginQuery pins the published snapshot internally; the whole
		// standing-query bootstrap runs lock-free against ingest.
		if x, execErr = eng.BeginQuery(info, par); execErr != nil {
			return
		}
		if execErr = x.RunTo(-1); execErr != nil {
			return
		}
		res, execErr = x.Result()
	})
	if done := s.writePoolError(w, poolErr, "subscribe"); done {
		return
	}
	if execErr != nil {
		s.m.queryErrs.Inc()
		writeError(w, http.StatusBadRequest, codeQueryFailed, "standing query failed: %v", execErr)
		return
	}

	canonical := info.Stmt.String()
	s.liveSt.mu.Lock()
	// The registry bound is enforced here, where the insert happens: the
	// pre-execution check is only an optimization, so concurrent
	// subscribes racing past it cannot overfill the registry.
	if len(s.liveSt.subs) >= maxSubscriptions {
		s.liveSt.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, codeSaturated, "subscription registry full (%d standing queries)", maxSubscriptions)
		return
	}
	s.liveSt.nextID++
	sub := &subscription{
		id:        fmt.Sprintf("sub-%d", s.liveSt.nextID),
		stream:    req.Stream,
		canonical: canonical,
		exec:      x,
		last:      res,
		seq:       1,
		maxRows:   req.MaxRows,
	}
	sub.horizon.Store(int64(x.Horizon()))
	if s.liveSt.subs == nil {
		s.liveSt.subs = make(map[string]*subscription)
	}
	s.liveSt.subs[sub.id] = sub
	s.liveSt.mu.Unlock()
	s.m.subscribes.Inc()

	wall := time.Since(start)
	head, release, err := appendScratchHead(req.Stream, canonical, res, false, s.maxRows(req.MaxRows))
	if err != nil {
		writeEncodeError(w, err)
		return
	}
	defer release()
	writeReply(w, &subscribeResponse{
		ID: sub.id, Seq: sub.seq,
		Horizon: x.Horizon(), DayFrames: s.dayFrames(req.Stream),
		Plan:    x.PlanName(),
		Updated: true,
	}, head, wall, "", nil, 0, 0)
}

func (s *Server) handleUnsubscribe(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		writeError(w, http.StatusBadRequest, codeBadRequest, "missing ?id= parameter")
		return
	}
	s.liveSt.mu.Lock()
	_, ok := s.liveSt.subs[id]
	if ok {
		delete(s.liveSt.subs, id)
	}
	s.liveSt.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, codeUnknownSubscription, "unknown subscription %q", id)
		return
	}
	s.m.unsubscribes.Inc()
	writeJSON(w, http.StatusOK, map[string]string{"id": id, "status": "unsubscribed"})
}

func (s *Server) handlePoll(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "GET required")
		return
	}
	id := r.URL.Query().Get("id")
	if id == "" {
		writeError(w, http.StatusBadRequest, codeBadRequest, "missing ?id= parameter")
		return
	}
	maxRowsOverride, err := intParam(r.URL.Query().Get("max_rows"), 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "invalid max_rows: %v", err)
		return
	}
	s.liveSt.mu.Lock()
	sub := s.liveSt.subs[id]
	s.liveSt.mu.Unlock()
	s.m.polls.Inc()
	if sub == nil {
		writeError(w, http.StatusNotFound, codeUnknownSubscription, "unknown subscription %q", id)
		return
	}

	// Serialize advances per subscription: concurrent polls of one
	// standing query collapse to a single engine advance.
	sub.mu.Lock()
	defer sub.mu.Unlock()

	updated := false
	replanned := false
	var tr *obs.Trace
	start := time.Now()
	horizon, open := s.streamHorizon(sub.stream)
	if open && horizon > int(sub.horizon.Load()) {
		ctx := r.Context()
		if s.cfg.QueryTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryTimeout)
			defer cancel()
		}
		// Every advance records a span tree into the ring — standing
		// queries run unattended, so the trace is often the only record
		// of what an advance cost.
		tr = obs.NewTraceID(sub.canonical, traceIDFrom(r.Context()))
		tr.Root.SetAttr("stream", sub.stream)
		tr.Root.SetAttr("subscription", sub.id)
		queueSp := tr.Root.Child("queue")
		var res *core.Result
		var advErr error
		switches := sub.exec.PlanSwitches()
		poolErr := s.pool.Do(ctx, func() {
			queueSp.End()
			// Advance pins the published snapshot internally, so it runs
			// lock-free while ingest continues.
			res, advErr = sub.exec.Advance(tr)
		})
		if done := s.writePoolError(w, poolErr, "poll"); done {
			return
		}
		if advErr != nil {
			s.m.queryErrs.Inc()
			tr.Root.Fail(advErr)
			tr.Finish()
			s.traces.Add(tr)
			writeError(w, http.StatusInternalServerError, codeInternal, "advancing standing query: %v", advErr)
			return
		}
		tr.Finish()
		s.traces.Add(tr)
		replanned = sub.exec.PlanSwitches() > switches
		sub.last = res
		sub.seq++
		sub.horizon.Store(int64(sub.exec.Horizon()))
		updated = true
		s.m.advances.Inc()
		s.logSlowQuery("advance", sub.stream, sub.canonical, time.Since(start), tr)
	}

	// The subscription's row cap applies to every poll; a ?max_rows=
	// override can lower it further for this response.
	maxRows := sub.maxRows
	if maxRowsOverride > 0 && (maxRows <= 0 || maxRowsOverride < maxRows) {
		maxRows = maxRowsOverride
	}
	wall := time.Since(start)
	head, release, err := appendScratchHead(sub.stream, sub.canonical, sub.last, !updated, s.maxRows(maxRows))
	if err != nil {
		writeEncodeError(w, err)
		return
	}
	defer release()
	var traceID string
	var inline *obs.Trace
	if tr != nil {
		traceID = tr.ID
		if wantTrace(r) {
			inline = tr
		}
	}
	writeReply(w, &subscribeResponse{
		ID: sub.id, Seq: sub.seq,
		Horizon: int(sub.horizon.Load()), DayFrames: s.dayFrames(sub.stream),
		Plan:            sub.exec.PlanName(),
		Updated:         updated,
		PlanSwitches:    sub.exec.PlanSwitches(),
		Replanned:       replanned,
		ReplanAtHorizon: sub.exec.ReplanAtHorizon(),
	}, head, wall, traceID, inline, 0, 0)
}

// dayFrames returns the stream's full-day frame count (0 when unopened).
func (s *Server) dayFrames(stream string) int {
	if eng, ok := s.reg.Peek(stream); ok {
		return eng.DayFrames()
	}
	return 0
}

// writePoolError maps worker-pool admission failures to HTTP statuses;
// it reports whether a response was written.
func (s *Server) writePoolError(w http.ResponseWriter, poolErr error, what string) bool {
	switch {
	case poolErr == nil:
		return false
	case errors.Is(poolErr, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, codeSaturated, "server saturated: admission queue full")
	case errors.Is(poolErr, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, codeTimeout, "%s timed out after %s", what, s.cfg.QueryTimeout)
	case errors.Is(poolErr, context.Canceled):
		writeError(w, 499, codeCanceled, "client canceled request")
	case errors.Is(poolErr, ErrTaskPanicked):
		s.m.queryErrs.Inc()
		writeError(w, http.StatusInternalServerError, codeInternal, "internal error during %s: %v", what, poolErr)
	default:
		writeError(w, http.StatusServiceUnavailable, codeUnavailable, "executor unavailable: %v", poolErr)
	}
	return true
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
}

// livezSnapshot assembles the livez section.
func (s *Server) livezSnapshot() livezStatz {
	lz := livezStatz{Live: s.live(), LiveStart: s.cfg.Engine.LiveStart, Streams: make(map[string]liveStreamStatz)}
	open, _ := s.reg.Open()
	for _, name := range open {
		if eng, ok := s.reg.Peek(name); ok {
			pe, epoch := eng.Pin()
			lz.Streams[name] = liveStreamStatz{
				Horizon:       pe.Horizon(),
				DayFrames:     pe.DayFrames(),
				Epoch:         epoch,
				SnapshotEpoch: epoch,
				TailFrames:    pe.TailFrames(),
				SnapshotLag:   pe.SnapshotLagFrames(),
			}
		}
	}
	lz.Ingests = uint64(s.metrics.Value("blazeit_ingests_total"))
	lz.FramesIngested = uint64(s.metrics.SumValues("blazeit_ingest_frames_total"))
	lz.Subscribes = uint64(s.metrics.Value("blazeit_subscribes_total"))
	lz.Unsubscribes = uint64(s.metrics.Value("blazeit_unsubscribes_total"))
	lz.Polls = uint64(s.metrics.Value("blazeit_polls_total"))
	lz.Advances = uint64(s.metrics.Value("blazeit_advances_total"))
	s.liveSt.mu.Lock()
	lz.SubscriptionsActive = len(s.liveSt.subs)
	s.liveSt.mu.Unlock()
	return lz
}
