package serve

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
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
	if !s.served(w, req.Stream) {
		return
	}
	var resp ingestResponse
	var partial error
	if !s.run(w, r, routeIngest, req.Stream, nil, func(eng *core.Engine) error {
		// Exclusive: appends must never race each other over this engine.
		lock := s.streamLock(req.Stream)
		lock.Lock()
		defer lock.Unlock()
		added, err := eng.AppendLive(req.Frames)
		resp = ingestResponse{
			Stream: req.Stream, Requested: req.Frames, Appended: added,
			Horizon: eng.Horizon(), DayFrames: eng.DayFrames(), Epoch: eng.StreamEpoch(),
		}
		if added > 0 {
			s.m.ingests.Inc()
			s.m.ingestFrames.With(req.Stream).Add(float64(added))
			// AppendLive can fail partially: frames became visible (and the
			// epoch bumped) but index extension failed. The ingest happened;
			// the reply reports the applied state so a retrying client never
			// double-appends.
			partial, err = err, nil
		}
		return err
	}) {
		return
	}
	if partial != nil {
		writeError(w, http.StatusInternalServerError, codeIngestFailed,
			"ingest partially applied: %d frames are now visible (horizon %d, epoch %d) but index extension failed: %v — do not re-send these frames",
			resp.Appended, resp.Horizon, resp.Epoch, partial)
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
	if r.Method == http.MethodDelete {
		s.handleUnsubscribe(w, r)
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
	info, canonical, ok := s.admit(w, req.Stream, req.Query)
	if !ok {
		return
	}
	// Early shed before paying for execution; the bound is re-checked at
	// insert time, where it is authoritative.
	s.liveSt.mu.Lock()
	full := len(s.liveSt.subs) >= maxSubscriptions
	s.liveSt.mu.Unlock()
	if full {
		writeRegistryFull(w)
		return
	}

	par := s.resolveParallelism(req.Parallelism)
	start := time.Now()
	tr := newTrace(r, canonical, req.Stream)
	var res *core.Result
	var x *core.Execution
	if !s.run(w, r, routeSubscribe, req.Stream, tr, func(eng *core.Engine) (err error) {
		// The opener /query's execution goes through; it pins the published
		// snapshot, so the bootstrap runs lock-free against ingest.
		if x, err = eng.BeginQueryTraced(info, par, tr); err != nil {
			return err
		}
		if err = x.RunTo(-1); err != nil {
			return err
		}
		res, err = x.Result()
		return err
	}) {
		return
	}
	wall := time.Since(start)
	s.account(routeSubscribe, req.Stream, canonical, "", res, wall, tr)

	s.liveSt.mu.Lock()
	// The registry bound is enforced here, where the insert happens: the
	// pre-execution check is only an optimization, so concurrent
	// subscribes racing past it cannot overfill the registry.
	if len(s.liveSt.subs) >= maxSubscriptions {
		s.liveSt.mu.Unlock()
		writeRegistryFull(w)
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
	s.liveSt.subs[sub.id] = sub
	s.liveSt.mu.Unlock()
	s.m.subscribes.Inc()

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

// writeRegistryFull sheds a subscribe the standing-query registry has no
// room for.
func writeRegistryFull(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusTooManyRequests, codeSaturated, "subscription registry full (%d standing queries)", maxSubscriptions)
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
		// Every advance records a span tree into the ring — standing
		// queries run unattended, so the trace is often the only record
		// of what an advance cost.
		tr = newTrace(r, sub.canonical, sub.stream)
		tr.Root.SetAttr("subscription", sub.id)
		var res *core.Result
		switches := sub.exec.PlanSwitches()
		if !s.run(w, r, routePoll, sub.stream, tr, func(*core.Engine) (err error) {
			// Advance pins the published snapshot of the engine the
			// execution was begun on, so it runs lock-free while ingest
			// continues.
			res, err = sub.exec.Advance(tr)
			return err
		}) {
			return
		}
		replanned = sub.exec.PlanSwitches() > switches
		sub.last = res
		sub.seq++
		sub.horizon.Store(int64(sub.exec.Horizon()))
		updated = true
		s.m.advances.Inc()
		s.account(routePoll, sub.stream, sub.canonical, "", res, time.Since(start), tr)
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
