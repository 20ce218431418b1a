package index

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/specnn"
	"repro/internal/vidsim"
)

// Zone is the zone-map summary of one chunk: per-head bounds that let plan
// executions prove a predicate cannot match anywhere in the chunk without
// reading its per-frame columns. All bounds are computed through the same
// accessors executions read frames with (Inference.TailProb, PredCount,
// the exact tail column), so a zone comparison is exactly as strict as the
// per-frame comparison it stands in for — a skip can never drop a frame
// the full scan would have kept.
type Zone struct {
	// Frames is the number of frames the chunk covers (ChunkFrames except
	// for the trailing chunk).
	Frames int
	// MinPred and MaxPred bound the per-head argmax predicted count.
	MinPred, MaxPred []uint8
	// MaxTail[h][n] is the per-head maximum of Inference.TailProb(h, f, n)
	// over the chunk's frames — the mass-above-threshold summary. Index n
	// ranges over the head's count classes; entry 0 is always 1.
	MaxTail [][]float64
	// MaxTail1 is the per-head maximum of the exact float64 presence-tail
	// column (the quantity the selection label filter thresholds).
	MaxTail1 []float64
	// Presence is a per-head bitmap of frames whose predicted count is at
	// least 1, bit i covering the chunk's i-th frame.
	Presence [][]uint64
}

// segState is one immutable published version of a segment's data: the
// columnar outputs, zone maps, and reconstructed Inference at one frame
// coverage. Extend never mutates a published state — it appends the new
// frames into the column's spare capacity (memory no reader's pinned
// slice header reaches, the write-side half of the double buffer; when
// capacity runs out, append's reallocation flips to a fresh buffer),
// builds a new state whose slice headers cover the grown columns, and
// publishes it with one atomic pointer swap. Readers therefore never see
// a torn chunk list and never take a lock.
type segState struct {
	frames  int
	probs   [][]float32 // per head, [frame*Classes + class]
	tail1   [][]float64 // per head, exact P(count >= 1)
	signals [][]float64 // per feature.FrameUDFs entry, the frame's content signal
	zones   []Zone
	inf     *specnn.Inference
}

// Segment is one materialized class-set × day: the specialized network's
// columnar outputs over every frame, the frame-level content signals the
// same pass computed, chunked zone maps, and the model that produced them. The data lives behind an atomically swapped immutable
// state, so any number of readers run lock-free and snapshot-consistent
// while Extend (live ingest, serialized by an internal writer mutex)
// races ahead. At pins a read-only view of the segment at an exact
// horizon — the form query executions consume.
type Segment struct {
	key    Key
	model  *specnn.CountModel
	pinned bool // a frozen view from At: state never changes, Extend forbidden

	mu    sync.Mutex // serializes writers (Extend); readers never take it
	state atomic.Pointer[segState]
}

// st returns the segment's current published state. Every accessor reads
// exactly one state, so a sequence of calls on a pinned view is always
// mutually consistent; on a live master segment, each call individually
// sees some complete published version.
func (s *Segment) st() *segState { return s.state.Load() }

// Build materializes a segment for the video's current frames: one
// specialized-network pass producing the distribution, exact-tail and
// content-signal columns, then zone maps per chunk. The returned simulated
// cost is the inference pass (the index investment the paper's indexed
// accounting amortizes across queries).
func Build(key Key, model *specnn.CountModel, v *vidsim.Video) (*Segment, float64) {
	cols, sim := specnn.RunRange(model, v, 0, v.Frames)
	st := &segState{
		frames:  v.Frames,
		probs:   cols.Probs,
		tail1:   cols.Tail1,
		signals: cols.Signals,
	}
	st.inf = specnn.NewInferenceFromColumns(model, v, st.frames, st.probs)
	st.zones = make([]Zone, 0, chunkCount(st.frames))
	st.appendZones(model.HeadInfo, 0)
	s := &Segment{key: key, model: model}
	s.state.Store(st)
	return s, sim
}

// newSegmentWithState wraps an externally assembled state (the file loader
// builds states chunk by chunk before anything can observe them).
func newSegmentWithState(key Key, model *specnn.CountModel, st *segState) *Segment {
	s := &Segment{key: key, model: model}
	s.state.Store(st)
	return s
}

// Key returns the segment's identity.
func (s *Segment) Key() Key { return s.key }

// Model returns the generating specialized network.
func (s *Segment) Model() *specnn.CountModel { return s.model }

// Frames returns the number of indexed frames.
func (s *Segment) Frames() int { return s.st().frames }

// Chunks returns the number of zone-mapped chunks.
func (s *Segment) Chunks() int { return len(s.st().zones) }

// Zone returns the chunk's zone map. The returned value shares the
// segment's storage and must be treated as read-only.
func (s *Segment) Zone(chunk int) *Zone { return &s.st().zones[chunk] }

// Inference returns the columnar data as a specnn.Inference — bit-identical
// to a fresh specnn.Run over the same frames, whether the columns were just
// computed or loaded back from disk.
func (s *Segment) Inference() *specnn.Inference { return s.st().inf }

// Tail1 returns the exact float64 presence tail P(count >= 1) for the head
// at the frame — the same bits an on-the-fly Evaluator.TailProb(head, 1)
// would produce, which is what makes index-backed label filtering
// answer-neutral.
func (s *Segment) Tail1(head, frame int) float64 { return s.st().tail1[head][frame] }

// ChunkOf returns the chunk index covering a frame.
func ChunkOf(frame int) int { return frame / ChunkFrames }

// At returns a read-only view of the segment pinned at v.Frames, where v
// is the (snapshot) video the caller's execution runs over; the segment
// must already cover that horizon. Complete chunks share the master's
// columns and zone maps (both immutable once published); the trailing
// partial chunk's zone is recomputed at the pinned horizon, so the view
// is bit-identical — zone maps, skip decisions, Inference cost and all —
// to a segment freshly built over a video with exactly v.Frames frames.
// The view's accessors never observe later Extends.
func (s *Segment) At(v *vidsim.Video) *Segment {
	st := s.st()
	h := v.Frames
	if h > st.frames {
		h = st.frames
	}
	heads := s.model.HeadInfo
	ps := &segState{
		frames:  h,
		probs:   make([][]float32, len(st.probs)),
		tail1:   make([][]float64, len(st.tail1)),
		signals: make([][]float64, len(st.signals)),
	}
	for i := range st.probs {
		k := heads[i].Classes
		ps.probs[i] = st.probs[i][: h*k : h*k]
		ps.tail1[i] = st.tail1[i][:h:h]
	}
	for u := range st.signals {
		ps.signals[u] = st.signals[u][:h:h]
	}
	ps.inf = specnn.NewInferenceFromColumns(s.model, v, h, ps.probs)
	if h == st.frames {
		ps.zones = st.zones[:len(st.zones):len(st.zones)]
	} else {
		full := h / ChunkFrames
		ps.zones = st.zones[:full:full]
		ps.appendZones(heads, full)
	}
	ns := &Segment{key: s.key, model: s.model, pinned: true}
	ns.state.Store(ps)
	return ns
}

// CanSkipTail reports whether the zone map proves every frame of the chunk
// has Inference.TailProb(head, f, n) < threshold — the binary cascade's
// reject band. n is clamped the way TailProb clamps it; n <= 0 never skips
// (the tail is identically 1).
func (s *Segment) CanSkipTail(chunk, head, n int, threshold float64) bool {
	k := s.model.HeadInfo[head].Classes
	if n >= k {
		n = k - 1
	}
	if n <= 0 {
		return false
	}
	return s.st().zones[chunk].MaxTail[head][n] < threshold
}

// CanSkipTail1 reports whether the zone map proves every frame of the
// chunk has an exact presence tail below the threshold — the selection
// label filter's reject condition.
func (s *Segment) CanSkipTail1(chunk, head int, threshold float64) bool {
	return s.st().zones[chunk].MaxTail1[head] < threshold
}

// MemoryBytes estimates the segment's in-memory column and zone footprint.
func (s *Segment) MemoryBytes() int64 {
	st := s.st()
	var b int64
	for h := range st.probs {
		b += int64(len(st.probs[h]))*4 + int64(len(st.tail1[h]))*8
	}
	for u := range st.signals {
		b += int64(len(st.signals[u])) * 8
	}
	for i := range st.zones {
		z := &st.zones[i]
		b += int64(len(z.MinPred)) * 2
		for h := range z.MaxTail {
			b += int64(len(z.MaxTail[h]))*8 + 8 + int64(len(z.Presence[h]))*8
		}
	}
	return b
}

// Extend ingests the video's newly arrived frames (beyond the segment's
// current coverage) chunk by chunk: one network pass over the new range,
// columns appended into write-side buffer space no published view can
// reach, and a new state — sealed zone maps shared, the trailing partial
// chunk's zone recomputed — published with one atomic swap. It returns
// the number of frames added, the first chunk whose zone record changed
// (for append-persistence), and the simulated cost of the incremental
// inference pass (index investment, like Build's). Extend serializes
// against other writers internally and never blocks or tears readers:
// views pinned before the swap keep observing the prior state.
func (s *Segment) Extend(v *vidsim.Video) (added, fromChunk int, simSeconds float64) {
	if s.pinned {
		panic("index: Extend called on a pinned segment view")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.st()
	if v.Frames <= st.frames {
		return 0, len(st.zones), 0
	}
	cols, simSeconds := specnn.RunRange(s.model, v, st.frames, v.Frames)
	ns := &segState{
		frames:  v.Frames,
		probs:   make([][]float32, len(st.probs)),
		tail1:   make([][]float64, len(st.tail1)),
		signals: make([][]float64, len(st.signals)),
	}
	for h := range st.probs {
		ns.probs[h] = append(st.probs[h], cols.Probs[h]...)
		ns.tail1[h] = append(st.tail1[h], cols.Tail1[h]...)
	}
	for u := range st.signals {
		ns.signals[u] = append(st.signals[u], cols.Signals[u]...)
	}
	added = v.Frames - st.frames
	fromChunk = st.frames / ChunkFrames
	ns.inf = specnn.NewInferenceFromColumns(s.model, v, ns.frames, ns.probs)
	// Never truncate-and-append the published zone slice in place: the old
	// state's trailing partial zone must stay intact for pinned readers.
	ns.zones = append(make([]Zone, 0, chunkCount(ns.frames)), st.zones[:fromChunk]...)
	ns.appendZones(s.model.HeadInfo, fromChunk)
	s.state.Store(ns)
	return added, fromChunk, simSeconds
}

// appendZones computes zone maps from the given chunk through the state's
// frame coverage. Bounds are read through the reconstructed Inference (and
// the exact tail column), guaranteeing zone comparisons bound exactly what
// executions compare.
func (st *segState) appendZones(heads []specnn.Head, from int) {
	for ci := from; ci < chunkCount(st.frames); ci++ {
		lo := ci * ChunkFrames
		hi := lo + ChunkFrames
		if hi > st.frames {
			hi = st.frames
		}
		z := Zone{
			Frames:   hi - lo,
			MinPred:  make([]uint8, len(heads)),
			MaxPred:  make([]uint8, len(heads)),
			MaxTail:  make([][]float64, len(heads)),
			MaxTail1: make([]float64, len(heads)),
			Presence: make([][]uint64, len(heads)),
		}
		words := (z.Frames + 63) / 64
		for h, head := range heads {
			z.MaxTail[h] = make([]float64, head.Classes)
			z.MaxTail[h][0] = 1
			z.Presence[h] = make([]uint64, words)
			minP, maxP := 255, 0
			for f := lo; f < hi; f++ {
				pred := st.inf.PredCount(h, f)
				if pred < minP {
					minP = pred
				}
				if pred > maxP {
					maxP = pred
				}
				if pred >= 1 {
					z.Presence[h][(f-lo)/64] |= 1 << uint((f-lo)%64)
				}
				for n := 1; n < head.Classes; n++ {
					if t := st.inf.TailProb(h, f, n); t > z.MaxTail[h][n] {
						z.MaxTail[h][n] = t
					}
				}
				if t := st.tail1[h][f]; t > z.MaxTail1[h] {
					z.MaxTail1[h] = t
				}
			}
			z.MinPred[h] = uint8(minP)
			z.MaxPred[h] = uint8(maxP)
		}
		st.zones = append(st.zones, z)
	}
}

// Req is one scrubbing requirement resolved to a model head: at least N
// objects of the head's class.
type Req struct {
	Head int
	N    int
}

// clampReqs clamps requirement thresholds the way TailProb clamps them. A
// requirement at or below zero contributes a constant 1, which no zone map
// can zero out, so its presence makes every chunk ineligible for skipping.
func (s *Segment) clampReqs(reqs []Req) (clamped []Req, skipEligible bool) {
	clamped = make([]Req, len(reqs))
	skipEligible = true
	for i, r := range reqs {
		k := s.model.HeadInfo[r.Head].Classes
		n := r.N
		if n >= k {
			n = k - 1
		}
		clamped[i] = Req{Head: r.Head, N: n}
		if n <= 0 {
			skipEligible = false
		}
	}
	return clamped, skipEligible
}

// scoreSum writes the paper's sum-combiner score of frames [lo, hi) into
// scores (indexed by frame), consulting zone maps to skip the computation
// for chunks where every requirement's mass-above-threshold is exactly
// zero: every frame there scores exactly 0, the zero the slice must already
// hold. It returns the chunks and frames so skipped.
func (st *segState) scoreSum(clamped []Req, skipEligible bool, lo, hi int, scores []float32) (skippedChunks, skippedFrames int) {
	for ci := ChunkOf(lo); ci < len(st.zones) && ci*ChunkFrames < hi; ci++ {
		cLo := max(lo, ci*ChunkFrames)
		cHi := min(hi, ci*ChunkFrames+st.zones[ci].Frames)
		skip := skipEligible
		if skip {
			for _, r := range clamped {
				if st.zones[ci].MaxTail[r.Head][r.N] != 0 {
					skip = false
					break
				}
			}
		}
		if skip {
			skippedChunks++
			skippedFrames += cHi - cLo
			continue
		}
		for f := cLo; f < cHi; f++ {
			var sc float64
			for _, r := range clamped {
				sc += st.inf.TailProb(r.Head, f, r.N)
			}
			scores[f] = float32(sc)
		}
	}
	return skippedChunks, skippedFrames
}

// sortRanked sorts frames into the ranking's total order: score
// descending, frame ascending.
func sortRanked(order []int32, scores []float32) {
	sort.Slice(order, func(i, j int) bool {
		si, sj := scores[order[i]], scores[order[j]]
		if si != sj {
			return si > sj
		}
		return order[i] < order[j]
	})
}

// RankSum orders all indexed frames by descending specialized-network
// confidence for the requirements — the paper's sum combiner, reproducing
// scrub.RankByConfidence bit for bit — while consulting zone maps to skip
// the score computation for chunks where every requirement's
// mass-above-threshold is exactly zero (every frame there scores exactly
// 0, so the global sort's tie-break orders them identically either way).
// It returns the order and the number of chunks and frames skipped.
func (s *Segment) RankSum(reqs []Req) (order []int32, skippedChunks, skippedFrames int) {
	st := s.st()
	clamped, skipEligible := s.clampReqs(reqs)
	scores := make([]float32, st.frames)
	skippedChunks, skippedFrames = st.scoreSum(clamped, skipEligible, 0, st.frames, scores)
	order = make([]int32, st.frames)
	for i := range order {
		order[i] = int32(i)
	}
	sortRanked(order, scores)
	return order, skippedChunks, skippedFrames
}

// RankSkips is RankSum's skip accounting alone: the chunks (and their
// frames) of this view whose zone maps prove a zero score for every
// requirement. It reads zone maps only.
func (s *Segment) RankSkips(reqs []Req) (skippedChunks, skippedFrames int) {
	st := s.st()
	clamped, skipEligible := s.clampReqs(reqs)
	if !skipEligible {
		return 0, 0
	}
chunks:
	for ci := range st.zones {
		for _, r := range clamped {
			if st.zones[ci].MaxTail[r.Head][r.N] != 0 {
				continue chunks
			}
		}
		skippedChunks++
		skippedFrames += st.zones[ci].Frames
	}
	return skippedChunks, skippedFrames
}

// Ranking is RankSum's order over the first Frames frames of a segment,
// kept with the scores behind it so that a grown segment extends it
// instead of ranking the whole day again. A Ranking is immutable.
type Ranking struct {
	Frames int
	Order  []int32
	scores []float32
}

// ExtendRanking ranks all the segment's frames for the requirements, given
// the ranking of a prefix of them (nil ranks from scratch): only the frames
// past prev.Frames are scored and sorted, then merged into prev's order. A
// frame's score depends on that frame alone and the order is total — score
// descending, frame ascending — so the merge is RankSum's full sort, bit
// for bit.
func (s *Segment) ExtendRanking(prev *Ranking, reqs []Req) *Ranking {
	st := s.st()
	from := 0
	if prev != nil {
		from = prev.Frames
	}
	if from >= st.frames {
		return prev
	}
	clamped, skipEligible := s.clampReqs(reqs)
	r := &Ranking{Frames: st.frames, scores: make([]float32, st.frames), Order: make([]int32, 0, st.frames)}
	if prev != nil {
		copy(r.scores, prev.scores)
	}
	st.scoreSum(clamped, skipEligible, from, st.frames, r.scores)
	fresh := make([]int32, st.frames-from)
	for i := range fresh {
		fresh[i] = int32(from + i)
	}
	sortRanked(fresh, r.scores)
	if prev == nil {
		r.Order = fresh
		return r
	}
	// Every fresh frame is later than every ranked one, so on a score tie
	// the ranked frame goes first.
	old, i, j := prev.Order, 0, 0
	for i < len(old) && j < len(fresh) {
		if r.scores[fresh[j]] > r.scores[old[i]] {
			r.Order = append(r.Order, fresh[j])
			j++
		} else {
			r.Order = append(r.Order, old[i])
			i++
		}
	}
	r.Order = append(append(r.Order, old[i:]...), fresh[j:]...)
	return r
}

// Prefix returns the ranking restricted to frames below n — the ranking of
// a view pinned at n frames, since a total order restricted to a subset is
// that subset's order. The result aliases the ranking when n covers it and
// must be treated as read-only.
func (r *Ranking) Prefix(n int) []int32 {
	if n >= r.Frames {
		return r.Order
	}
	out := make([]int32, 0, n)
	for _, f := range r.Order {
		if int(f) < n {
			out = append(out, f)
		}
	}
	return out
}

// validateHeads checks a loaded segment's head table against the model it
// will serve reads for.
func validateHeads(heads []specnn.Head, model *specnn.CountModel) error {
	if len(heads) != len(model.HeadInfo) {
		return fmt.Errorf("index: segment has %d heads, model has %d", len(heads), len(model.HeadInfo))
	}
	for i, h := range heads {
		if h != model.HeadInfo[i] {
			return fmt.Errorf("index: segment head %d is %v, model has %v", i, h, model.HeadInfo[i])
		}
	}
	return nil
}

// classSlice parses a canonical class key back into classes.
func classSlice(key string) []vidsim.Class {
	if key == "" {
		return nil
	}
	var out []vidsim.Class
	start := 0
	for i := 0; i <= len(key); i++ {
		if i == len(key) || key[i] == ',' {
			out = append(out, vidsim.Class(key[start:i]))
			start = i + 1
		}
	}
	return out
}
