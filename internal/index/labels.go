package index

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/vidsim"
)

// LabelStore is the tier's ground-truth label column for one day: a
// sparse, persistent map from (class, frame) to the reference detector's
// exact count, populated by sampling plans and planner statistics scans.
// Detector outputs are deterministic, so serving a repeated sample from
// the store returns the identical value the detector would — the answer
// and the simulated cost meter are unchanged; only the real CPU work of
// re-simulating the detection disappears.
//
// Reads see a snapshot: Lookup consults only labels committed before the
// current query began, and Observe buffers new labels until Commit. This
// keeps a query's store-hit pattern a pure function of the store state at
// query start — independent of how its parallel samplers interleave — so
// executions stay deterministic at every parallelism level.
//
// Beside the sparse map the store keeps a dense count column for exact
// scans: per (class, sealed ChunkFrames-frame chunk), the detector's count
// of every frame in it. The first exact scan to cover a whole chunk fills
// it, later scans read it; a chunk that is not yet wholly visible is never
// stored. The contract is the sparse store's: a count is the value the
// detector would compute, so nothing a Result or cost meter carries
// depends on whether the column was hit. The column is memory-only, and
// it is read without the sparse map's mutex: a column is written once and
// never changed, and an exact scan reads one per chunk per request, which
// must not queue behind a sampling plan's per-frame Lookup/Observe traffic
// (or the other way round) when the two run side by side.
type LabelStore struct {
	day int

	mu        sync.Mutex
	committed map[labelKey]int32
	pending   map[labelKey]int32
	unsaved   map[vidsim.Class][]int32 // frames committed but not yet persisted
	hits      uint64
	misses    uint64

	// dense maps denseKey to the chunk's count column ([]int32), absent
	// until filled; denseChunks counts its entries.
	dense       sync.Map
	denseChunks atomic.Int64
}

type denseKey struct {
	class vidsim.Class
	chunk int
}

type labelKey struct {
	class vidsim.Class
	frame int32
}

// newLabelStore returns an empty store for a day.
func newLabelStore(day int) *LabelStore {
	return &LabelStore{
		day:       day,
		committed: make(map[labelKey]int32),
		pending:   make(map[labelKey]int32),
		unsaved:   make(map[vidsim.Class][]int32),
	}
}

// DenseCounts returns the detector's count of the class at every frame of
// the chunk, or nil when no exact scan has filled that chunk. The slice is
// shared and read-only.
func (s *LabelStore) DenseCounts(class vidsim.Class, chunk int) []int32 {
	if col, ok := s.dense.Load(denseKey{class, chunk}); ok {
		return col.([]int32)
	}
	return nil
}

// FillDense stores a sealed chunk's count column: counts must hold the
// detector's count for each of the chunk's ChunkFrames frames, and the
// store keeps the slice. The first fill of a chunk wins (every fill holds
// the same values).
func (s *LabelStore) FillDense(class vidsim.Class, chunk int, counts []int32) {
	if len(counts) != ChunkFrames {
		return
	}
	if _, loaded := s.dense.LoadOrStore(denseKey{class, chunk}, counts); !loaded {
		s.denseChunks.Add(1)
	}
}

// DenseChunks returns how many (class, chunk) count columns are filled.
func (s *LabelStore) DenseChunks() int { return int(s.denseChunks.Load()) }

// Day returns the day the store labels.
func (s *LabelStore) Day() int { return s.day }

// Lookup returns the committed ground-truth count for (class, frame).
// Labels observed during the current query are not visible until Commit.
func (s *LabelStore) Lookup(class vidsim.Class, frame int) (int32, bool) {
	s.mu.Lock()
	c, ok := s.committed[labelKey{class, int32(frame)}]
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	s.mu.Unlock()
	return c, ok
}

// Observe records a freshly measured ground-truth count. Safe for
// concurrent use by parallel samplers; the label becomes visible to
// Lookup only after Commit.
func (s *LabelStore) Observe(class vidsim.Class, frame int, count int32) {
	s.mu.Lock()
	s.pending[labelKey{class, int32(frame)}] = count
	s.mu.Unlock()
}

// Commit publishes pending observations into the committed snapshot and
// returns how many were new. Called between queries (never mid-query).
func (s *LabelStore) Commit() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	added := 0
	for k, v := range s.pending {
		if _, ok := s.committed[k]; ok {
			continue
		}
		s.committed[k] = v
		s.unsaved[k.class] = append(s.unsaved[k.class], k.frame)
		added++
	}
	clear(s.pending)
	return added
}

// Len returns the number of committed labels.
func (s *LabelStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.committed)
}

// Hits returns the store's lookup hit and miss counts.
func (s *LabelStore) Hits() (hits, misses uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses
}

// install merges labels loaded from disk directly into the committed
// snapshot (already persisted, so not marked unsaved).
func (s *LabelStore) install(b labelBatch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range b.frames {
		s.committed[labelKey{b.class, b.frames[i]}] = b.counts[i]
	}
}

// drainUnsaved returns the committed-but-unpersisted labels as sorted
// batches and clears the unsaved set. On a persist failure the caller
// re-queues them with requeue.
func (s *LabelStore) drainUnsaved() []labelBatch {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.unsaved) == 0 {
		return nil
	}
	classes := make([]vidsim.Class, 0, len(s.unsaved))
	for c := range s.unsaved {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	var out []labelBatch
	for _, c := range classes {
		frames := s.unsaved[c]
		sort.Slice(frames, func(i, j int) bool { return frames[i] < frames[j] })
		b := labelBatch{class: c, frames: frames, counts: make([]int32, len(frames))}
		for i, f := range frames {
			b.counts[i] = s.committed[labelKey{c, f}]
		}
		out = append(out, b)
	}
	clear(s.unsaved)
	return out
}

// requeue marks batches unsaved again after a failed persist.
func (s *LabelStore) requeue(batches []labelBatch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, b := range batches {
		s.unsaved[b.class] = append(s.unsaved[b.class], b.frames...)
	}
}
