package index

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"repro/internal/flight"
	"repro/internal/specnn"
	"repro/internal/vidsim"
)

// contextBackground is the wait context for slot waiters: slot fills are
// never abandoned, matching the engine's historical singleflight caches.
var contextBackground = context.Background()

// Config configures a Manager.
type Config struct {
	// Dir is the index root directory; empty keeps the tier in memory
	// only (the pre-index engine behavior, minus the restart survival).
	Dir string
	// Stream names the stream the manager indexes.
	Stream string
	// Fingerprint hashes every configuration input segment contents
	// depend on; it namespaces the on-disk layout and guards loads.
	Fingerprint uint64
	// Train builds the specialized network for a class set on a miss.
	Train func(classes []vidsim.Class) (*specnn.CountModel, error)
}

// Manager is the engine's index tier: a singleflight cache of models and
// segments backed (optionally) by the on-disk store. The goroutine that
// fills a slot is the one charged its simulated build cost; waiters and
// disk loads are charged zero — the same cache-hit accounting the
// in-memory flight slots implemented, now restart-safe.
type Manager struct {
	cfg Config
	dir string // resolved <root>/<stream>/<fingerprint> dir; "" if memory-only

	mu     sync.Mutex
	models map[string]*flight.Slot[*specnn.CountModel]
	segs   map[string]*flight.Slot[*Segment]
	labels map[int]*LabelStore

	modelsTrained, modelsLoaded int
	segsBuilt, segsLoaded       int
	buildSimSeconds             float64
	errs                        []string
}

// maxRecordedErrors bounds the persist-error ring surfaced in Stats.
const maxRecordedErrors = 8

// NewManager builds a Manager; with a Dir it will lazily load persisted
// artifacts and persist fresh builds.
func NewManager(cfg Config) *Manager {
	m := &Manager{
		cfg:    cfg,
		models: make(map[string]*flight.Slot[*specnn.CountModel]),
		segs:   make(map[string]*flight.Slot[*Segment]),
		labels: make(map[int]*LabelStore),
	}
	if cfg.Dir != "" {
		m.dir = segmentDirFor(cfg.Dir, cfg.Stream, cfg.Fingerprint)
	}
	return m
}

// Dir returns the manager's resolved on-disk directory ("" in memory-only
// mode).
func (m *Manager) Dir() string { return m.dir }

// recordErr keeps the most recent persistence/load problems for Stats;
// the tier degrades to memory-only behavior rather than failing queries.
func (m *Manager) recordErr(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.errs) >= maxRecordedErrors {
		copy(m.errs, m.errs[1:])
		m.errs = m.errs[:maxRecordedErrors-1]
	}
	m.errs = append(m.errs, err.Error())
}

func (m *Manager) segKey(classes string, day int) string {
	return fmt.Sprintf("%s@day%d", classes, day)
}

// Model returns (building and caching) the specialized network for the
// class set. The returned cost is the simulated training charge: paid by
// exactly one caller when the model is trained fresh, zero on cache hits
// and disk loads (a loaded model's training was paid in a prior session —
// the paper's "no train" accounting).
func (m *Manager) Model(classes []vidsim.Class) (*specnn.CountModel, float64, error) {
	key := ClassKey(classes)
	m.mu.Lock()
	s, ok := m.models[key]
	if !ok {
		s = flight.NewSlot[*specnn.CountModel]()
		m.models[key] = s
		m.mu.Unlock()
		fresh := false
		mod, err := s.Fill(func() (*specnn.CountModel, error) {
			if m.dir != "" {
				if loaded, lerr := m.loadModel(key); lerr == nil {
					return loaded, nil
				} else if !os.IsNotExist(lerr) {
					m.recordErr(lerr)
				}
			}
			trained, terr := m.cfg.Train(classes)
			if terr != nil {
				return nil, terr
			}
			fresh = true
			m.persistModel(key, trained)
			return trained, nil
		})
		if err != nil {
			// Failed (or panicked) training is cached: it is
			// deterministic, so retrying would only re-pay the failure.
			return nil, 0, err
		}
		m.mu.Lock()
		if fresh {
			m.modelsTrained++
			m.buildSimSeconds += mod.TrainSimSeconds
		} else {
			m.modelsLoaded++
		}
		m.mu.Unlock()
		if fresh {
			return mod, mod.TrainSimSeconds, nil
		}
		return mod, 0, nil
	}
	m.mu.Unlock()
	mod, err := s.Wait(contextBackground)
	return mod, 0, err
}

// InstallModel publishes an externally produced model (an import) for the
// class set, replacing any cached one. Session-only: imports are not
// persisted, and segments already built from a previous model are not
// invalidated (matching the engine's historical import semantics).
func (m *Manager) InstallModel(classes []vidsim.Class, model *specnn.CountModel) {
	key := ClassKey(classes)
	m.mu.Lock()
	m.models[key] = flight.Filled(model)
	m.mu.Unlock()
}

func (m *Manager) loadModel(classKey string) (*specnn.CountModel, error) {
	payload, err := readBlobFile(modelPath(m.dir, classKey), magicModel, m.cfg.Fingerprint)
	if err != nil {
		return nil, err
	}
	var mod specnn.CountModel
	if err := mod.UnmarshalBinary(payload); err != nil {
		return nil, fmt.Errorf("%w: model %s: %v", ErrCorrupt, classKey, err)
	}
	for _, c := range classSlice(classKey) {
		if mod.HeadIndex(c) < 0 {
			return nil, fmt.Errorf("%w: model %s has no head for %q", ErrCorrupt, classKey, c)
		}
	}
	return &mod, nil
}

func (m *Manager) persistModel(classKey string, mod *specnn.CountModel) {
	if m.dir == "" {
		return
	}
	blob, err := mod.MarshalBinary()
	if err == nil {
		err = writeBlobFile(modelPath(m.dir, classKey), magicModel, m.cfg.Fingerprint, blob)
	}
	if err != nil {
		m.recordErr(fmt.Errorf("index: persisting model %s: %w", classKey, err))
	}
}

// Segment returns the materialized segment for the class set, pinned as a
// read-only view at exactly v.Frames — v is the caller's (snapshot) video,
// so the view stays bit-identical to a fresh build at that horizon even
// while live ingest extends the underlying segment. The returned cost is
// the simulated inference charge paid by exactly one caller: the whole-day
// pass on a fresh build, or just the missing tail when the cached or
// persisted segment covers only a prefix of v (a live stream indexed
// mid-day, or a slot filled by a query pinned at an older epoch). Cache
// hits and whole disk loads are free, which is precisely the paper's
// indexed accounting.
func (m *Manager) Segment(classes []vidsim.Class, v *vidsim.Video) (*Segment, float64, error) {
	seg, cost, _, err := m.segment(classes, v)
	if err != nil {
		return nil, 0, err
	}
	return seg.At(v), cost, nil
}

// segment is Segment minus the pinning, plus the number of frames
// actually inferred by this call (whole video on a fresh build, the
// extension tail on a partial disk load or stale slot, zero on hits and
// whole loads) — what Ingest reports. It returns the live master segment,
// guaranteed to cover at least v.Frames.
func (m *Manager) segment(classes []vidsim.Class, v *vidsim.Video) (*Segment, float64, int, error) {
	mod, _, err := m.Model(classes)
	if err != nil {
		return nil, 0, 0, err
	}
	classKey := ClassKey(classes)
	key := m.segKey(classKey, v.Day)
	m.mu.Lock()
	s, ok := m.segs[key]
	var seg *Segment
	var cost float64
	freshFrames := 0
	if !ok {
		s = flight.NewSlot[*Segment]()
		m.segs[key] = s
		m.mu.Unlock()
		fromDisk := false
		seg, err = s.Fill(func() (*Segment, error) {
			k := Key{Stream: m.cfg.Stream, Fingerprint: m.cfg.Fingerprint, Day: v.Day, Classes: classKey}
			path := segmentPath(m.dir, k)
			if m.dir != "" {
				if loaded, lerr := readSegmentFile(path, k, mod, v); lerr == nil {
					// A persisted prefix (a live day indexed mid-stream)
					// loads as-is; the coverage pass below infers and
					// appends only the missing tail, never rebuilding.
					fromDisk = true
					return loaded, nil
				} else if !os.IsNotExist(lerr) {
					m.recordErr(lerr)
				}
			}
			built, sim := Build(k, mod, v)
			cost = sim
			freshFrames = v.Frames
			if m.dir != "" {
				if werr := writeSegmentFile(path, built); werr != nil {
					m.recordErr(fmt.Errorf("index: persisting segment %s: %w", k, werr))
				}
			}
			return built, nil
		})
		if err != nil {
			return nil, 0, 0, err
		}
		m.mu.Lock()
		if fromDisk {
			m.segsLoaded++
		} else {
			m.segsBuilt++
		}
		m.buildSimSeconds += cost
		m.mu.Unlock()
	} else {
		m.mu.Unlock()
		seg, err = s.Wait(contextBackground)
		if err != nil {
			return nil, 0, 0, err
		}
	}
	// The slot may cover fewer frames than the caller's snapshot (it was
	// filled by a query pinned at an older epoch, or loaded from a prior
	// session's partial day): infer and append only the missing tail,
	// charging this caller exactly that increment.
	added, fromChunk, sim := seg.Extend(v)
	if added > 0 {
		m.mu.Lock()
		m.buildSimSeconds += sim
		m.mu.Unlock()
		m.persistAppend(seg, fromChunk)
		cost += sim
		freshFrames += added
	}
	return seg, cost, freshFrames, nil
}

// persistAppend appends a segment's newly indexed chunks to its on-disk
// file. The segment's writer mutex orders concurrent appends so record
// framing never interleaves.
func (m *Manager) persistAppend(seg *Segment, fromChunk int) {
	if m.dir == "" {
		return
	}
	k := seg.Key()
	seg.mu.Lock()
	werr := appendSegmentFile(segmentPath(m.dir, k), seg, fromChunk)
	seg.mu.Unlock()
	if werr != nil {
		m.recordErr(fmt.Errorf("index: appending segment %s: %w", k, werr))
	}
}

// PeekSegment returns the segment for (class set, day) if it is already
// materialized in memory or loadable from disk and covers the video's
// horizon — it never trains or runs inference. The result is pinned at
// exactly v.Frames (see Segment), so a query at an older snapshot reads
// the same bits a fresh build at its horizon would, even when live ingest
// has pushed the master segment further. Plan families use it for
// opportunistic acceleration: when it returns nil they fall back to
// on-the-fly evaluation, and when it returns a segment, reads are
// bit-identical to that fallback.
func (m *Manager) PeekSegment(classes []vidsim.Class, v *vidsim.Video) *Segment {
	classKey := ClassKey(classes)
	key := m.segKey(classKey, v.Day)
	m.mu.Lock()
	s, ok := m.segs[key]
	m.mu.Unlock()
	if ok {
		if seg, err, done := s.TryWait(); done && err == nil && seg != nil && seg.Frames() >= v.Frames {
			return seg.At(v)
		}
		return nil
	}
	if m.dir == "" {
		return nil
	}
	mod := m.peekModel(classKey)
	if mod == nil {
		return nil
	}
	k := Key{Stream: m.cfg.Stream, Fingerprint: m.cfg.Fingerprint, Day: v.Day, Classes: classKey}
	loaded, err := readSegmentFile(segmentPath(m.dir, k), k, mod, v)
	if err != nil {
		if !os.IsNotExist(err) {
			m.recordErr(err)
		}
		return nil
	}
	if loaded.Frames() < v.Frames {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.segs[key]; ok {
		// Raced with a builder; prefer its slot.
		if seg, err, done := s.TryWait(); done && err == nil && seg != nil && seg.Frames() >= v.Frames {
			return seg.At(v)
		}
		return nil
	}
	m.segs[key] = flight.Filled(loaded)
	m.segsLoaded++
	return loaded.At(v)
}

// peekModel returns the class set's model from the cache or disk, never
// training one.
func (m *Manager) peekModel(classKey string) *specnn.CountModel {
	m.mu.Lock()
	s, ok := m.models[classKey]
	m.mu.Unlock()
	if ok {
		if mod, err, done := s.TryWait(); done && err == nil {
			return mod
		}
		return nil
	}
	if m.dir == "" {
		return nil
	}
	mod, err := m.loadModel(classKey)
	if err != nil {
		if !os.IsNotExist(err) {
			m.recordErr(err)
		}
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.models[classKey]; !ok {
		m.models[classKey] = flight.Filled(mod)
		m.modelsLoaded++
	}
	return mod
}

// Ingest extends the class set's segment for a live video whose frame
// count has grown, indexing the new frames chunk by chunk and appending
// them to the on-disk file without touching existing chunks (a segment
// persisted mid-day by a previous session is loaded and extended, never
// rebuilt). It returns the number of frames newly indexed by this call:
// the extension tail, or the whole video when nothing was indexed yet.
func (m *Manager) Ingest(classes []vidsim.Class, v *vidsim.Video) (int, error) {
	_, _, freshFrames, err := m.segment(classes, v)
	if err != nil {
		return 0, err
	}
	return freshFrames, nil
}

// IngestAll extends every materialized segment of the video's day to the
// video's current frame count (see Ingest), returning the total frames
// newly indexed across segments. Class sets ingest in sorted key order so
// ingest activity — and the resulting on-disk appends — is deterministic.
// The continuous-query tier calls this after a live stream appends
// frames, so standing queries and fresh queries alike find every open
// segment covering the new horizon.
func (m *Manager) IngestAll(v *vidsim.Video) (int, error) {
	suffix := fmt.Sprintf("@day%d", v.Day)
	m.mu.Lock()
	var classKeys []string
	for k, s := range m.segs {
		if !strings.HasSuffix(k, suffix) {
			continue
		}
		if _, err, done := s.TryWait(); done && err == nil {
			classKeys = append(classKeys, strings.TrimSuffix(k, suffix))
		}
	}
	m.mu.Unlock()
	sort.Strings(classKeys)
	total := 0
	for _, ck := range classKeys {
		n, err := m.Ingest(classSlice(ck), v)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// CoverageLag returns the maximum update-propagation debt across the
// day's materialized segments at the given horizon: horizon minus indexed
// frames, floored at zero. It is zero whenever every open segment has
// been extended through the horizon (the state AppendLive leaves behind
// before publishing a snapshot).
func (m *Manager) CoverageLag(day, horizon int) int {
	suffix := fmt.Sprintf("@day%d", day)
	m.mu.Lock()
	slots := make([]*flight.Slot[*Segment], 0, len(m.segs))
	for k, s := range m.segs {
		if strings.HasSuffix(k, suffix) {
			slots = append(slots, s)
		}
	}
	m.mu.Unlock()
	lag := 0
	for _, s := range slots {
		if seg, err, done := s.TryWait(); done && err == nil && seg != nil {
			if d := horizon - seg.Frames(); d > lag {
				lag = d
			}
		}
	}
	return lag
}

// Labels returns the day's ground-truth label store, loading persisted
// labels on first use.
func (m *Manager) Labels(day int) *LabelStore {
	m.mu.Lock()
	ls, ok := m.labels[day]
	if !ok {
		ls = newLabelStore(day)
		m.labels[day] = ls
		m.mu.Unlock()
		if m.dir != "" {
			batches, err := readLabelFile(labelsPath(m.dir, day), m.cfg.Fingerprint)
			if err != nil && !os.IsNotExist(err) {
				m.recordErr(err)
			}
			for _, b := range batches {
				ls.install(b)
			}
		}
		return ls
	}
	m.mu.Unlock()
	return ls
}

// CommitLabels publishes every store's pending observations. Called at
// the end of each query execution, so the next query's lookups see them.
func (m *Manager) CommitLabels() {
	m.mu.Lock()
	stores := make([]*LabelStore, 0, len(m.labels))
	for _, ls := range m.labels {
		stores = append(stores, ls)
	}
	m.mu.Unlock()
	for _, ls := range stores {
		ls.Commit()
	}
}

// Flush persists everything buffered in memory: committed-but-unsaved
// ground-truth labels (segments and models persist at build time). Safe
// to call repeatedly; a failed append re-queues its labels.
func (m *Manager) Flush() error {
	if m.dir == "" {
		return nil
	}
	m.mu.Lock()
	days := make([]int, 0, len(m.labels))
	for day := range m.labels {
		days = append(days, day)
	}
	m.mu.Unlock()
	sort.Ints(days)
	var firstErr error
	for _, day := range days {
		m.mu.Lock()
		ls := m.labels[day]
		m.mu.Unlock()
		batches := ls.drainUnsaved()
		if len(batches) == 0 {
			continue
		}
		if err := appendLabelFile(labelsPath(m.dir, day), m.cfg.Fingerprint, batches); err != nil {
			ls.requeue(batches)
			m.recordErr(fmt.Errorf("index: persisting labels day %d: %w", day, err))
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// LoadSummaries returns the persisted planner-summaries blob, if present
// and valid.
func (m *Manager) LoadSummaries() ([]byte, bool) {
	if m.dir == "" {
		return nil, false
	}
	payload, err := readBlobFile(summariesPath(m.dir), magicSummary, m.cfg.Fingerprint)
	if err != nil {
		if !os.IsNotExist(err) {
			m.recordErr(err)
		}
		return nil, false
	}
	return payload, true
}

// SaveSummaries persists the planner-summaries blob atomically.
func (m *Manager) SaveSummaries(blob []byte) error {
	if m.dir == "" {
		return nil
	}
	if err := writeBlobFile(summariesPath(m.dir), magicSummary, m.cfg.Fingerprint, blob); err != nil {
		m.recordErr(fmt.Errorf("index: persisting summaries: %w", err))
		return err
	}
	return nil
}

// LoadCalibration returns the persisted planner-calibration blob, if
// present and valid. Calibration lives beside the held-out summaries but
// in its own file: summaries are a derivable cache, calibration is
// learned feedback state a warm restart should keep.
func (m *Manager) LoadCalibration() ([]byte, bool) {
	if m.dir == "" {
		return nil, false
	}
	payload, err := readBlobFile(calibrationPath(m.dir), magicCalib, m.cfg.Fingerprint)
	if err != nil {
		if !os.IsNotExist(err) {
			m.recordErr(err)
		}
		return nil, false
	}
	return payload, true
}

// SaveCalibration persists the planner-calibration blob atomically.
func (m *Manager) SaveCalibration(blob []byte) error {
	if m.dir == "" {
		return nil
	}
	if err := writeBlobFile(calibrationPath(m.dir), magicCalib, m.cfg.Fingerprint, blob); err != nil {
		m.recordErr(fmt.Errorf("index: persisting calibration: %w", err))
		return err
	}
	return nil
}

// SegmentInfo describes one materialized segment for stats/inspection.
type SegmentInfo struct {
	Key    Key
	Frames int
	Chunks int
	Bytes  int64
}

// LabelDayInfo describes one day's ground-truth label store.
type LabelDayInfo struct {
	Day     int
	Entries int
	Hits    uint64
	Misses  uint64
	// DenseChunks counts the filled (class, chunk) dense count columns and
	// DenseBytes their memory.
	DenseChunks int
	DenseBytes  int64
}

// Stats is a snapshot of the tier's activity.
type Stats struct {
	// Dir is the resolved on-disk directory ("" when memory-only).
	Dir string
	// ModelsTrained / ModelsLoaded count fresh trainings vs disk loads.
	ModelsTrained, ModelsLoaded int
	// SegmentsBuilt / SegmentsLoaded count fresh inference passes vs
	// disk loads.
	SegmentsBuilt, SegmentsLoaded int
	// BuildSimSeconds is the simulated cost invested in fresh builds
	// (training + whole-day inference) — the index investment the
	// indexed accounting amortizes.
	BuildSimSeconds float64
	// Segments lists materialized segments.
	Segments []SegmentInfo
	// Labels lists per-day ground-truth label stores.
	Labels []LabelDayInfo
	// Errors holds recent persistence/load problems (the tier degrades
	// to memory-only on error rather than failing queries).
	Errors []string
}

// Stats returns a snapshot of the tier's activity.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	st := Stats{
		Dir:             m.dir,
		ModelsTrained:   m.modelsTrained,
		ModelsLoaded:    m.modelsLoaded,
		SegmentsBuilt:   m.segsBuilt,
		SegmentsLoaded:  m.segsLoaded,
		BuildSimSeconds: m.buildSimSeconds,
		Errors:          append([]string(nil), m.errs...),
	}
	segSlots := make([]*flight.Slot[*Segment], 0, len(m.segs))
	for _, s := range m.segs {
		segSlots = append(segSlots, s)
	}
	stores := make([]*LabelStore, 0, len(m.labels))
	for _, ls := range m.labels {
		stores = append(stores, ls)
	}
	m.mu.Unlock()
	for _, s := range segSlots {
		if seg, err, done := s.TryWait(); done && err == nil && seg != nil {
			st.Segments = append(st.Segments, SegmentInfo{
				Key:    seg.Key(),
				Frames: seg.Frames(),
				Chunks: seg.Chunks(),
				Bytes:  seg.MemoryBytes(),
			})
		}
	}
	sort.Slice(st.Segments, func(i, j int) bool { return st.Segments[i].Key.String() < st.Segments[j].Key.String() })
	for _, ls := range stores {
		hits, misses := ls.Hits()
		dense := ls.DenseChunks()
		st.Labels = append(st.Labels, LabelDayInfo{Day: ls.Day(), Entries: ls.Len(), Hits: hits, Misses: misses,
			DenseChunks: dense, DenseBytes: int64(dense) * ChunkFrames * 4})
	}
	sort.Slice(st.Labels, func(i, j int) bool { return st.Labels[i].Day < st.Labels[j].Day })
	return st
}
