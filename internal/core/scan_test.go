package core

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/index"
)

// These tests drive the scan operator with a toy kernel whose products
// are pure functions of the frame index, so what the operator itself owes
// — visit order, charge order, early exit, suspension, settlement,
// fan-out — is checked against a few lines of serial arithmetic rather
// than against another executor.

func toyHit(f int) bool     { return (f*2654435761)%11 < 2 }
func toyCost(f int) float64 { return 1 / float64(f%97+1) }

// toyFold is the serial temporal fold: GAP/LIMIT over ascending frames.
type toyFold struct {
	limit, gap, last int
	frames           []int
}

// add folds frame f and reports whether the LIMIT is now satisfied.
func (a *toyFold) add(f int) bool {
	if toyHit(f) && !(a.gap > 0 && f-a.last < a.gap) {
		a.last = f
		a.frames = append(a.frames, f)
	}
	return a.limit >= 0 && len(a.frames) >= a.limit
}

type toyKernel struct {
	toyFold
	panicAt int // produce panics on the range holding this frame
}

type toyState struct {
	Pos      int   `json:"pos"`
	Finished bool  `json:"finished"`
	Last     int   `json:"last"`
	Frames   []int `json:"frames"`
	Stats    Stats `json:"stats"`
}

func newToyKernel(limit, gap int) *toyKernel {
	return &toyKernel{toyFold: toyFold{limit: limit, gap: gap, last: -1 << 40}, panicAt: -1}
}

func (k *toyKernel) produce(lo, hi int) []int {
	if lo <= k.panicAt && k.panicAt < hi {
		panic("boom")
	}
	p := make([]int, hi-lo)
	for i := range p {
		p[i] = lo + i
	}
	return p
}

func (k *toyKernel) merge(m *Stats, fold bool, blo, bhi, off0 int, p []int) (int, int, bool, error) {
	hits := 0
	for f := blo; f < bhi; f++ {
		if p[off0+f-blo] != f {
			return f - blo + 1, hits, false, fmt.Errorf("frame %d was handed the product of frame %d", f, p[off0+f-blo])
		}
		if m != nil {
			m.DetectorCalls++
			m.FilterSeconds += toyCost(f)
		}
		if toyHit(f) {
			hits++
		}
		if fold && k.add(f) {
			return f - blo + 1, hits, true, nil
		}
	}
	return bhi - blo, hits, false, nil
}

func (k *toyKernel) save(p *scanProgress) ([]byte, error) {
	return json.Marshal(&toyState{Pos: p.pos, Finished: p.finished, Last: k.last, Frames: k.frames, Stats: p.stats})
}

func (k *toyKernel) load(state []byte, p *scanProgress) error {
	var st toyState
	if err := json.Unmarshal(state, &st); err != nil {
		return err
	}
	*p = scanProgress{pos: st.Pos, finished: st.Finished, stats: st.Stats}
	k.last, k.frames = st.Last, st.Frames
	return nil
}

func (k *toyKernel) adopt(prev scanKernel[[]int]) { k.toyFold = prev.(*toyKernel).toyFold }

func (k *toyKernel) finish(res *Result) { res.Frames = append([]int(nil), k.frames...) }

// toySchedule is one visit order over frames [lo, hi): nil chunks is the
// temporal order, otherwise a density-style chunk permutation.
type toySchedule struct {
	name   string
	lo, hi int
	chunks []densityChunk
}

func toyChunks(lo, hi int, perm func(n int) []int) []densityChunk {
	var in []densityChunk
	for ci := index.ChunkOf(lo); ci <= index.ChunkOf(hi-1); ci++ {
		in = append(in, densityChunk{ci: ci, fLo: max(lo, ci*index.ChunkFrames), fHi: min(hi, (ci+1)*index.ChunkFrames)})
	}
	out := make([]densityChunk, len(in))
	for i, j := range perm(len(in)) {
		out[i] = in[j]
	}
	return out
}

func (s *toySchedule) open(limit, gap, par int) *scanExec[[]int] {
	counters := &execCounters{}
	if s.chunks == nil {
		return newScan(counters, "toy", "toy", par, s.hi-s.lo, limit >= 0, newToyKernel(limit, gap))
	}
	x := newScan(counters, "toy", "toy", par, 0, false, newToyKernel(limit, gap))
	x.orderByDensity(s.chunks, s.lo, s.hi, limit, func() scanKernel[[]int] { return newToyKernel(limit, gap) })
	return x
}

// reference computes, serially, what a scan under the schedule owes: the
// frames visited in visit order up to where the LIMIT settles, the meter
// charged for them in that order, and the temporal fold over them.
func (s *toySchedule) reference(limit, gap int) (visited int, meter Stats, frames []int) {
	charge := func(f int) {
		visited++
		meter.DetectorCalls++
		meter.FilterSeconds += toyCost(f)
	}
	if s.chunks == nil {
		acc := toyFold{limit: limit, gap: gap, last: -1 << 40}
		for f := s.lo; f < s.hi; f++ {
			charge(f)
			if acc.add(f) {
				break
			}
		}
		return visited, meter, acc.frames
	}
	var seen []int
	for _, ent := range s.chunks {
		for f := ent.fLo; f < ent.fHi; f++ {
			charge(f)
			seen = append(seen, f)
		}
		sort.Ints(seen)
		acc := toyFold{limit: limit, gap: gap, last: -1 << 40}
		frames = nil
		for _, f := range seen {
			if acc.add(f) {
				break
			}
		}
		frames = acc.frames
		if len(frames) >= limit {
			break
		}
	}
	return visited, meter, frames
}

func TestScanOperatorToyKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const lo, hi = 300, 9*index.ChunkFrames + 77
	inOrder := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	reversed := func(n int) []int {
		out := inOrder(n)
		sort.Sort(sort.Reverse(sort.IntSlice(out)))
		return out
	}
	// The density orders start and end mid-chunk.
	schedules := []*toySchedule{{name: "temporal", lo: 0, hi: hi}}
	for _, p := range []struct {
		name string
		perm func(n int) []int
	}{
		{"density-in-order", inOrder},
		{"density-reversed", reversed},
		{"density-shuffled-a", rng.Perm},
		{"density-shuffled-b", rng.Perm},
	} {
		schedules = append(schedules, &toySchedule{name: p.name, lo: lo, hi: hi, chunks: toyChunks(lo, hi, p.perm)})
	}
	for _, s := range schedules {
		for _, lg := range [][2]int{{5, 40}, {60, 0}, {1 << 30, 25}, {-1, 0}} {
			limit, gap := lg[0], lg[1]
			if limit < 0 && s.chunks != nil {
				continue // density order exists for LIMIT queries only
			}
			wantVisited, wantMeter, wantFrames := s.reference(limit, gap)
			for _, par := range []int{1, 4, 8} {
				label := fmt.Sprintf("%s limit=%d gap=%d par=%d", s.name, limit, gap, par)
				x := s.open(limit, gap, par)
				for steps := 0; !x.Done(); steps++ {
					if steps > 1000 {
						t.Fatalf("%s: scan does not terminate", label)
					}
					// Watermarks land mid-chunk and mid-shard more often than not.
					if err := x.RunTo(x.Pos() + 1 + rng.Intn(3*index.ChunkFrames)); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if rng.Intn(2) == 0 {
						// Suspend onto a fresh operator: retained products are gone.
						state, err := x.Snapshot()
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						pos := x.Pos()
						x = s.open(limit, gap, par)
						if err := x.Restore(state); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if x.Pos() != pos {
							t.Fatalf("%s: restored at unit %d, suspended at %d", label, x.Pos(), pos)
						}
					}
				}
				res, err := x.Result()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if x.Pos() != wantVisited {
					t.Errorf("%s: visited %d frames, want %d", label, x.Pos(), wantVisited)
				}
				if !slices.Equal(res.Frames, wantFrames) {
					t.Errorf("%s: settled %d frames (first %v), the serial temporal fold over the visited set gives %d (first %v)",
						label, len(res.Frames), res.Frames[:min(8, len(res.Frames))], len(wantFrames), wantFrames[:min(8, len(wantFrames))])
				}
				if res.Stats.DetectorCalls != wantMeter.DetectorCalls ||
					math.Float64bits(res.Stats.FilterSeconds) != math.Float64bits(wantMeter.FilterSeconds) {
					t.Errorf("%s: meter (%d, %v), visit-order sum is (%d, %v)", label,
						res.Stats.DetectorCalls, res.Stats.FilterSeconds, wantMeter.DetectorCalls, wantMeter.FilterSeconds)
				}
			}
		}
	}
}

// TestScanOperatorPropagatesProducePanic: a kernel panic inside a worker
// re-raises on the goroutine that called RunTo — where the serve pool's
// per-task recover can contain it — after every worker has exited.
func TestScanOperatorPropagatesProducePanic(t *testing.T) {
	for _, par := range []int{1, 4} {
		before := runtime.NumGoroutine()
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Errorf("par=%d: recovered %v, want \"boom\"", par, r)
				}
			}()
			k := newToyKernel(-1, 0)
			k.panicAt = shardSpan + 5
			x := newScan(&execCounters{}, "toy", "toy", par, 6*shardSpan, false, k)
			err := x.RunTo(-1)
			t.Errorf("par=%d: RunTo returned (%v) instead of panicking", par, err)
		}()
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("par=%d: %d goroutines before the panic, %d after — a worker leaked", par, before, after)
		}
	}
}
