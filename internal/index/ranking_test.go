package index

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/vidsim"
)

// TestExtendRankingMatchesRankSum is the merged ranking's property test:
// over random append schedules — batches of a few frames to a few chunks,
// so horizons fall inside chunks and on their edges — a ranking extended
// batch by batch equals RankSum's full sort of the same pinned view at
// every horizon, for one- and two-requirement shapes, and a view pinned
// before later appends reads the same order out of the grown ranking.
func TestExtendRankingMatchesRankSum(t *testing.T) {
	w := world(t)
	car, bus := w.model.HeadIndex(vidsim.Car), w.model.HeadIndex(vidsim.Bus)
	shapes := [][]Req{
		{{Head: car, N: 2}},
		{{Head: bus, N: 1}},
		{{Head: car, N: 1}, {Head: bus, N: 1}},
		{{Head: car, N: 0}, {Head: bus, N: 3}}, // a constant term: no chunk is skip-eligible
	}
	full := vidsim.Generate(w.cfg, 2)
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		live := vidsim.GenerateLive(w.cfg, 2, 1+rng.Intn(2*ChunkFrames))
		seg, _ := Build(testKey(w, 2), w.model, live)
		rankings := make([]*Ranking, len(shapes))
		type pinned struct {
			view  *Segment
			shape int
		}
		var earlier []pinned
		for steps := 0; ; steps++ {
			view := seg.At(live)
			for i, reqs := range shapes {
				rankings[i] = view.ExtendRanking(rankings[i], reqs)
				want, wantChunks, wantFrames := view.RankSum(reqs)
				if rankings[i].Frames != view.Frames() || !reflect.DeepEqual(rankings[i].Order, want) {
					t.Fatalf("seed %d, horizon %d, shape %d: merged ranking differs from a full sort", seed, view.Frames(), i)
				}
				if c, f := view.RankSkips(reqs); c != wantChunks || f != wantFrames {
					t.Fatalf("seed %d, horizon %d, shape %d: RankSkips (%d, %d), RankSum skipped (%d, %d)",
						seed, view.Frames(), i, c, f, wantChunks, wantFrames)
				}
			}
			for _, p := range earlier {
				want, _, _ := p.view.RankSum(shapes[p.shape])
				if got := rankings[p.shape].Prefix(p.view.Frames()); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: view pinned at %d reads a different order out of the ranking grown to %d",
						seed, p.view.Frames(), rankings[p.shape].Frames)
				}
			}
			if steps%3 == 0 {
				earlier = append(earlier, pinned{view, steps % len(shapes)})
			}
			if live.Frames >= full.Frames {
				if steps < 3 {
					t.Fatalf("seed %d exercised only %d appends", seed, steps)
				}
				break
			}
			n := 1 + rng.Intn(40)
			if rng.Intn(2) == 0 {
				n = rng.Intn(3 * ChunkFrames)
			}
			if rng.Intn(4) == 0 {
				n = ChunkFrames - live.Frames%ChunkFrames // land exactly on a chunk edge
			}
			live.AppendFrames(n)
			seg.Extend(live)
		}
	}
}

// TestLabelStoreDenseColumn pins the dense count column's contract: only
// whole chunks are stored, the first fill wins, classes and chunks are
// independent, and the stats count what is resident.
func TestLabelStoreDenseColumn(t *testing.T) {
	s := newLabelStore(2)
	col := func(v int32) []int32 {
		c := make([]int32, ChunkFrames)
		for i := range c {
			c[i] = v + int32(i%3)
		}
		return c
	}
	if s.DenseCounts(vidsim.Car, 0) != nil || s.DenseChunks() != 0 {
		t.Fatal("empty store reports a column")
	}
	s.FillDense(vidsim.Car, 2, col(7))
	s.FillDense(vidsim.Car, 2, col(9)) // a second fill of the same chunk is dropped
	s.FillDense(vidsim.Car, 3, col(1)[:ChunkFrames-1])
	s.FillDense(vidsim.Bus, 0, col(4))
	if got := s.DenseCounts(vidsim.Car, 2); !reflect.DeepEqual(got, col(7)) {
		t.Fatal("chunk 2 does not hold its first fill")
	}
	for _, miss := range []struct {
		c     vidsim.Class
		chunk int
	}{{vidsim.Car, 0}, {vidsim.Car, 1}, {vidsim.Car, 3}, {vidsim.Car, 99}, {vidsim.Bus, 2}} {
		if s.DenseCounts(miss.c, miss.chunk) != nil {
			t.Errorf("%s chunk %d reports a column nobody filled whole", miss.c, miss.chunk)
		}
	}
	if !reflect.DeepEqual(s.DenseCounts(vidsim.Bus, 0), col(4)) || s.DenseChunks() != 2 {
		t.Fatalf("store holds %d columns, want car/2 and bus/0", s.DenseChunks())
	}
}
