// Package serve is BlazeIt's concurrent query-serving layer: a stream
// registry that pools one engine per stream, a canonicalized result cache,
// a worker-pool executor with admission control, and an HTTP JSON front
// end. It turns the single-session optimizer of internal/core into a
// multi-tenant service — the substrate later scaling work (sharding,
// batching, multi-backend dispatch) plugs into.
package serve

import (
	"context"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/flight"
)

// Opener constructs the engine for a stream name. Openers are expensive
// (day generation plus detector setup), which is why the registry
// deduplicates concurrent opens.
type Opener func(stream string) (*core.Engine, error)

// Registry lazily opens and pools one core.Engine per stream name.
// Concurrent requests for the same unopened stream are collapsed
// singleflight-style: exactly one goroutine runs the Opener while the rest
// wait for its outcome. Failed opens are not cached, so a later request
// retries.
type Registry struct {
	open Opener

	mu      sync.Mutex
	entries map[string]*flight.Slot[*core.Engine]
	opens   uint64 // completed Opener runs, successes and failures
}

// NewRegistry returns a Registry that opens engines with open.
func NewRegistry(open Opener) *Registry {
	return &Registry{open: open, entries: make(map[string]*flight.Slot[*core.Engine])}
}

// Engine returns the pooled engine for the stream, opening it on first
// use. Waiters honor ctx while the open is in flight; the open itself is
// never abandoned, so a slow open still populates the pool for the next
// caller.
func (r *Registry) Engine(ctx context.Context, stream string) (*core.Engine, error) {
	r.mu.Lock()
	s, ok := r.entries[stream]
	if !ok {
		s = flight.NewSlot[*core.Engine]()
		r.entries[stream] = s
		r.mu.Unlock()

		// Account the open and drop a failed (or panicked) slot — if it
		// is still ours — so the stream name is retried rather than
		// poisoned forever. Deferred so a panicking Opener, contained
		// upstream by the worker pool, cleans up too.
		defer func() {
			r.mu.Lock()
			r.opens++
			if s.Err() != nil && r.entries[stream] == s {
				delete(r.entries, stream)
			}
			r.mu.Unlock()
		}()
		return s.Fill(func() (*core.Engine, error) { return r.open(stream) })
	}
	r.mu.Unlock()
	return s.Wait(ctx)
}

// Peek returns the engine if the stream is already open, without opening.
func (r *Registry) Peek(stream string) (*core.Engine, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.entries[stream]
	if !ok {
		return nil, false
	}
	eng, err, done := s.TryWait()
	return eng, done && err == nil
}

// openEngine is one fully opened registry entry.
type openEngine struct {
	stream string
	eng    *core.Engine
}

// opened lists the fully opened engines in stream-name order and counts
// the opens still in flight. Callers hold r.mu.
func (r *Registry) opened() (open []openEngine, opening int) {
	for name, s := range r.entries {
		if eng, err, done := s.TryWait(); !done {
			opening++
		} else if err == nil {
			open = append(open, openEngine{name, eng})
		}
	}
	sort.Slice(open, func(i, j int) bool { return open[i].stream < open[j].stream })
	return open, opening
}

// Each calls fn for every fully opened engine, in stream-name order, and
// returns how many opens are still in flight. fn runs outside the registry
// lock, on the engines open when Each was called.
func (r *Registry) Each(fn func(stream string, eng *core.Engine)) (opening int) {
	r.mu.Lock()
	open, opening := r.opened()
	r.mu.Unlock()
	for _, e := range open {
		fn(e.stream, e.eng)
	}
	return opening
}

// Open reports per-stream open state: fully opened stream names and the
// number of opens still in flight.
func (r *Registry) Open() (open []string, opening int) {
	opening = r.Each(func(stream string, _ *core.Engine) { open = append(open, stream) })
	return open, opening
}

// Opens returns the number of completed Opener runs.
func (r *Registry) Opens() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.opens
}

// Close empties the registry and returns the engines that were fully
// open (sorted by stream name) so the owner can flush their state. Slots
// still opening are dropped from the map — their Opener completes
// against the abandoned slot and the stream simply reopens fresh on next
// use. Close is what lets the server release every per-stream resource
// (engines, ingest locks) in one place instead of leaking entries for
// streams that will never be queried again.
func (r *Registry) Close() []*core.Engine {
	r.mu.Lock()
	defer r.mu.Unlock()
	open, _ := r.opened()
	engines := make([]*core.Engine, len(open))
	for i, e := range open {
		engines[i] = e.eng
	}
	r.entries = make(map[string]*flight.Slot[*core.Engine])
	return engines
}
