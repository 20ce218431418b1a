package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/filters"
	"repro/internal/flight"
	"repro/internal/index"
	"repro/internal/specnn"
)

// This file is the engine's prepared-state store: the one memo behind
// every deterministic product of planning that is expensive to derive —
// held-out count and residual statistics, held-out errors and their
// bootstrap verdicts, scrubbing match statistics and importance rankings,
// trained selection filters with their measured cascade rates, and the
// binary cascade's thresholds. The paper prices exactly this work as an
// index investment amortised over queries (§8, §10 "BlazeIt (indexed)");
// the store is what makes a query shape that has been planned once
// enumerate from memory.
//
// An entry is keyed by a canonical shape string: the product kind, the
// class set, the UDF predicates with their constants, FNR/FPR budgets or
// scrubbing requirements, the plan toggles that change what is trained,
// Options.HeldOutSample, and the fingerprint of the specialized network
// the product was derived from. Timestamp bounds, LIMIT/GAP and the
// stream's horizon are not part of a shape: nothing stored depends on
// them.
//
// Only products are stored, never charges. Model and Inference are still
// consulted by every enumeration for their first-caller charge, training
// seconds and optimizer notes are replayed onto every execution's meter,
// and everything that depends on the pinned snapshot (segments, frame
// ranges, estimates) is read per call — so a Result, its cost meter and
// the planner's pick are bit-identical whether the store is cold, warm,
// or loaded from disk.
//
// The store is bounded (prepCap entries, least recently used evicted),
// fills each entry once however many goroutines ask for it (flight.Slot),
// and persists through the index tier's summaries blob. Invalidation is by
// key: an entry derived from a model that is no longer the class set's
// model — one imported since — names a fingerprint no lookup asks for, so
// it simply misses until it is evicted.

// prepCap bounds the store. A shape is a handful of entries; ad-hoc
// traffic over a few hundred shapes stays resident.
const prepCap = 512

// PreparedStat counts one plan family's lookups in the prepared-state
// store, in the form stats pages report it.
type PreparedStat struct {
	// Hits counts lookups served from the store; Misses lookups that
	// computed their product.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// DiskLoads counts entries first served from a persisted summaries
	// blob (each is also a hit).
	DiskLoads uint64 `json:"disk_loads"`
}

type prepEntry struct {
	slot *flight.Slot[any]
	used uint64 // store clock at last use, for eviction
	// loaded marks an entry decoded from disk and not served yet.
	loaded bool
}

type prepStore struct {
	mu      sync.Mutex
	entries map[string]*prepEntry
	clock   uint64
	stats   map[string]*PreparedStat
	// fps memoizes model fingerprints per model value.
	fps sync.Map // *specnn.CountModel → string
}

func newPrepStore() *prepStore {
	return &prepStore{entries: make(map[string]*prepEntry), stats: make(map[string]*PreparedStat)}
}

func (s *prepStore) stat(family string) *PreparedStat {
	st := s.stats[family]
	if st == nil {
		st = &PreparedStat{}
		s.stats[family] = st
	}
	return st
}

// evict drops least-recently-used entries until the store fits prepCap.
// Callers hold s.mu. An evicted entry still being filled completes for its
// waiters; it is just no longer found.
func (s *prepStore) evict() {
	for len(s.entries) > prepCap {
		oldest, at := "", ^uint64(0)
		for k, ent := range s.entries {
			if ent.used < at {
				oldest, at = k, ent.used
			}
		}
		delete(s.entries, oldest)
	}
}

// prepUse is one enumeration's view of the store: the plan family its
// lookups count under, and whether any of them had to compute — what
// EXPLAIN reports per candidate as prepared: hit|miss.
type prepUse struct {
	family  string
	lookups int
	missed  bool
}

// mark is the EXPLAIN annotation: empty when the enumeration used no
// prepared state.
func (u *prepUse) mark() string {
	switch {
	case u.lookups == 0:
		return ""
	case u.missed:
		return "miss"
	}
	return "hit"
}

// prepared returns the product stored under key, computing and storing it
// with fn on a miss; concurrent callers of one key share a single fn call.
// A failed (or panicked) fn is not stored.
func prepared[T any](e *Engine, u *prepUse, key string, fn func() (T, error)) (T, error) {
	s := e.planner.prep
	u.lookups++
	s.mu.Lock()
	s.clock++
	if ent, ok := s.entries[key]; ok {
		ent.used = s.clock
		st := s.stat(u.family)
		st.Hits++
		if ent.loaded {
			ent.loaded = false
			st.DiskLoads++
		}
		s.mu.Unlock()
		v, err := ent.slot.Wait(context.Background())
		if err != nil {
			var zero T
			return zero, err
		}
		return v.(T), nil
	}
	u.missed = true
	ent := &prepEntry{slot: flight.NewSlot[any](), used: s.clock}
	s.entries[key] = ent
	s.stat(u.family).Misses++
	s.evict()
	s.mu.Unlock()
	stored := false
	defer func() {
		if !stored {
			s.mu.Lock()
			if s.entries[key] == ent {
				delete(s.entries, key)
			}
			s.mu.Unlock()
		}
	}()
	v, err := ent.slot.Fill(func() (any, error) { return fn() })
	if err != nil {
		var zero T
		return zero, err
	}
	stored = true
	return v.(T), nil
}

// modelFP fingerprints what a prepared product can depend on in a
// specialized network: its weights, heads and input normalization (not its
// training charge). nil — no specialization — is "none".
func (s *prepStore) modelFP(m *specnn.CountModel) string {
	if m == nil {
		return "none"
	}
	if fp, ok := s.fps.Load(m); ok {
		return fp.(string)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%x|%v", m.Net.Fingerprint(), m.HeadInfo)
	for _, v := range append(append([]float64(nil), m.Mu...), m.Sigma...) {
		fmt.Fprintf(h, "|%x", math.Float64bits(v))
	}
	fp := fmt.Sprintf("%016x", h.Sum64())
	s.fps.Store(m, fp)
	return fp
}

// shapeKey builds a canonical store key: the product kind, the held-out
// sample cap, the model fingerprint, then the shape's own parts.
func (e *Engine) shapeKey(kind string, m *specnn.CountModel, parts ...any) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s|held=%d|model=%s", kind, e.opts.HeldOutSample, e.planner.prep.modelFP(m))
	for _, p := range parts {
		fmt.Fprintf(&sb, "|%v", p)
	}
	return sb.String()
}

// heldModelFP fingerprints the network a held-out segment's columns came
// from. It is the class set's model unless one was imported after the
// segment was built (imports do not rebuild segments), so products read off
// those columns carry both fingerprints in their key.
func heldModelFP(e *Engine, seg *index.Segment) string {
	if seg == nil {
		return "none"
	}
	return e.planner.prep.modelFP(seg.Model())
}

// --- products ---

// selProducts is what training a selection shape yields: the content
// filters in predicate order, the label filter, and the cascade's jointly
// measured held-out pass rates.
type selProducts struct {
	Content []*filters.ContentFilter
	Label   *filters.LabelFilter
	Rates   filters.CascadeRates
}

// binaryBand is the binary cascade's held-out-chosen reject and
// accept thresholds and the fraction of held-out frames scoring between
// them (the verification volume the cascade is priced by).
type binaryBand struct {
	LowT, HighT, BandFrac float64
}

// scrubRanking is the resident importance order of one scrubbing shape: a
// ranking of the test-day segment's frames that grows with the stream by
// merging the newly scored suffix into it.
type scrubRanking struct {
	mu  sync.Mutex
	cur *index.Ranking
}

// at returns the shape's ranking of the pinned segment's frames, extending
// the resident one when the segment has grown past it. A view pinned
// before the resident horizon (a query racing ingest) gets the resident
// order restricted to its frames — the same total order over a subset.
func (r *scrubRanking) at(seg *index.Segment, reqs []index.Req) []int32 {
	r.mu.Lock()
	if r.cur == nil || r.cur.Frames < seg.Frames() {
		r.cur = seg.ExtendRanking(r.cur, reqs)
	}
	rk := r.cur
	r.mu.Unlock()
	return rk.Prefix(seg.Frames())
}

func init() {
	gob.Register(&baseStats{})
	gob.Register(&residStats{})
	gob.Register(&heldErrsEntry{})
	gob.Register(&scrubStatsEntry{})
	gob.Register(&selProducts{})
	gob.Register(&binaryBand{})
}

// --- persistence ---

// summariesBlob is the gob wire form of the store: its persistable
// entries, in key order.
type summariesBlob struct {
	Entries []summaryEntry
}

type summaryEntry struct {
	Key string
	Val any
}

// savePlannerSummaries snapshots the store's filled entries into the index
// tier — importance rankings excepted: they re-derive from the persisted
// segment in milliseconds and are as large as one of its columns.
func (e *Engine) savePlannerSummaries() error {
	s := e.planner.prep
	var blob summariesBlob
	s.mu.Lock()
	for key, ent := range s.entries {
		v, err, done := ent.slot.TryWait()
		if _, transient := v.(*scrubRanking); done && err == nil && !transient {
			blob.Entries = append(blob.Entries, summaryEntry{Key: key, Val: v})
		}
	}
	s.mu.Unlock()
	sort.Slice(blob.Entries, func(i, j int) bool { return blob.Entries[i].Key < blob.Entries[j].Key })
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(blob); err != nil {
		return err
	}
	return e.idx.SaveSummaries(buf.Bytes())
}

// loadPlannerSummaries seeds the store from a persisted snapshot, if the
// index tier holds a valid one. Every product is a deterministic function
// of its key and the engine configuration (which the index fingerprint
// covers), so loading is purely a real-time optimization; a missing or
// undecodable blob leaves the store to recompute on demand.
func (e *Engine) loadPlannerSummaries() {
	data, ok := e.idx.LoadSummaries()
	if !ok {
		return
	}
	var blob summariesBlob
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&blob); err != nil {
		return
	}
	s := e.planner.prep
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, be := range blob.Entries {
		if be.Val == nil || len(s.entries) >= prepCap {
			continue
		}
		s.entries[be.Key] = &prepEntry{slot: flight.Filled(be.Val), loaded: true}
	}
}
