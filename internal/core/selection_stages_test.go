package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/feature"
	"repro/internal/filters"
	"repro/internal/index"
	"repro/internal/specnn"
	"repro/internal/vidsim"
)

// TestSelectionStages pins the stage builder, the one place the §8 cascade
// order is decided: per shape, the stage order, what a frame reaching each
// stage is charged (in the serial scan's add order), how the estimate
// prices it, which stage carries the zone conjunct, and whether the label
// stage reads the segment.
func TestSelectionStages(t *testing.T) {
	const extract, infer = feature.CostSeconds, specnn.InferenceCostSeconds
	content := []*filters.ContentFilter{{}}
	label := &filters.LabelFilter{Head: 2, Threshold: 0.25}
	seg := new(index.Segment)
	conj := []index.Conjunct{{Head: 2, Threshold: 0.25, Tail1: true}}
	labelFirst := AllFilters()
	labelFirst.LabelFirst = true

	for _, tc := range []struct {
		name    string
		prep    selPrep
		plan    SelectionPlan
		want    []selStage
		wantSeg bool
	}{
		{name: "no filters", plan: AllFilters()},
		{name: "content only", prep: selPrep{contentFilters: content}, plan: AllFilters(),
			want: []selStage{{kind: stageContent, charges: []float64{extract}, price: []float64{extract}}}},
		{name: "label only, network", prep: selPrep{labelFilter: label}, plan: AllFilters(),
			want: []selStage{{kind: stageLabel, charges: []float64{extract, infer}, price: []float64{extract, infer}, conj: conj}}},
		{name: "label only, segment", prep: selPrep{labelFilter: label, seg: seg}, plan: AllFilters(), wantSeg: true,
			want: []selStage{{kind: stageLabel, charges: []float64{extract, infer}, price: []float64{extract, infer}, conj: conj}}},
		{name: "content then label", prep: selPrep{contentFilters: content, labelFilter: label, seg: seg}, plan: AllFilters(), wantSeg: true,
			want: []selStage{
				{kind: stageContent, charges: []float64{extract}, price: []float64{extract}},
				{kind: stageLabel, charges: []float64{infer}, price: []float64{infer}, conj: conj},
			}},
		{name: "label first", prep: selPrep{contentFilters: content, labelFilter: label, seg: seg}, plan: labelFirst, wantSeg: true,
			want: []selStage{
				{kind: stageLabel, charges: []float64{extract, infer}, price: []float64{extract + infer}, conj: conj},
				{kind: stageContent},
			}},
		{name: "label first without content is label only", prep: selPrep{labelFilter: label}, plan: labelFirst,
			want: []selStage{{kind: stageLabel, charges: []float64{extract, infer}, price: []float64{extract, infer}, conj: conj}}},
		{name: "oracle replaces every filter", prep: selPrep{contentFilters: content, labelFilter: label, seg: seg},
			plan: SelectionPlan{UseContent: true, UseLabel: true, NoScopeOracle: true},
			want: []selStage{{kind: stageOracle}}},
	} {
		got, gotSeg := tc.prep.stages(tc.plan)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: stages\n got  %+v\n want %+v", tc.name, got, tc.want)
		}
		if (gotSeg != nil) != tc.wantSeg || (gotSeg != nil && gotSeg != seg) {
			t.Errorf("%s: label stage's segment %p, want segment: %v", tc.name, gotSeg, tc.wantSeg)
		}
	}
}

// TestZoneWalkCountsEachChunkOnce drives the chunk walk the selection and
// binary kernels share over a window that starts off a chunk boundary, at
// step 3, under shard layouts whose edges fall inside refuted chunks: every
// visited frame is handed out exactly once, scanned ranges never cross a
// chunk, and the marks count each refuted chunk once and each of its
// visited frames once, whatever the layout.
func TestZoneWalkCountsEachChunkOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	e := testEngine(t, "taipei")
	classes := []vidsim.Class{"bus"}
	if err := e.BuildIndex(classes); err != nil {
		t.Fatal(err)
	}
	seg := e.idx.PeekSegment(classes, e.Test)
	head := seg.Model().HeadIndex("bus")
	const lo, step, visited = 700, 3, 2800
	chunkOf := func(i int) int { return index.ChunkOf(lo + i*step) }

	// A threshold the zone maps refute some, not all, of the window's
	// chunks for.
	var conj []index.Conjunct
	refuted := map[int]bool{}
	for _, thr := range []float64{0.5, 0.8, 0.9, 0.97} {
		conj = []index.Conjunct{{Head: head, Threshold: thr, Tail1: true}}
		refuted = map[int]bool{}
		for ci := chunkOf(0); ci <= chunkOf(visited-1); ci++ {
			if seg.CanSkipConjunction(ci, conj) {
				refuted[ci] = true
			}
		}
		if len(refuted) >= 2 {
			break
		}
	}
	if n := chunkOf(visited-1) - chunkOf(0) + 1; len(refuted) < 2 || len(refuted) == n {
		t.Fatalf("no threshold refutes some but not all of the %d chunks (%d refuted)", n, len(refuted))
	}
	wantFrames := 0
	for i := 0; i < visited; i++ {
		if refuted[chunkOf(i)] {
			wantFrames++
		}
	}

	walk := func(label string, edges []int, conj []index.Conjunct) Stats {
		t.Helper()
		var m Stats
		seen := make([]int, visited)
		for s := 0; s+1 < len(edges); s++ {
			zoneWalk(seg, conj, lo, step, edges[s], edges[s+1],
				func(i int, z zoneMark) {
					seen[i]++
					if !refuted[chunkOf(i)] || z&zoneSkipped == 0 {
						t.Errorf("%s: visited frame %d (chunk %d) skipped with mark %b", label, i, chunkOf(i), z)
					}
					z.count(&m)
				},
				func(chunk, i, iEnd int) bool {
					for ; i < iEnd; i++ {
						seen[i]++
						if chunkOf(i) != chunk || conj != nil && refuted[chunk] {
							t.Errorf("%s: visited frame %d (chunk %d) scanned as chunk %d", label, i, chunkOf(i), chunk)
						}
					}
					return true
				})
		}
		for i, n := range seen {
			if n != 1 {
				t.Fatalf("%s: visited frame %d handed out %d times", label, i, n)
			}
		}
		return m
	}

	layouts := map[string][]int{"one range": {0, visited}}
	for _, span := range []int{97, 341, 1024} {
		var edges []int
		for i := 0; i < visited; i += span {
			edges = append(edges, i)
		}
		layouts[fmt.Sprintf("shards of %d", span)] = append(edges, visited)
	}
	for label, edges := range layouts {
		m := walk(label, edges, conj)
		if m.IndexChunksSkipped != len(refuted) || m.ConjunctionChunksSkipped != len(refuted) || m.IndexFramesSkipped != wantFrames {
			t.Errorf("%s: counted %d chunks (%d by conjunction), %d frames; want %d chunks, %d frames",
				label, m.IndexChunksSkipped, m.ConjunctionChunksSkipped, m.IndexFramesSkipped, len(refuted), wantFrames)
		}
		if m = walk(label+", no conjunct", edges, nil); m.IndexChunksSkipped != 0 || m.IndexFramesSkipped != 0 {
			t.Errorf("%s: a walk without a conjunct skipped: %+v", label, m)
		}
	}

	// Without a segment there are no chunks to align to: one scan.
	calls := 0
	zoneWalk(nil, conj, lo, step, 5, visited, func(int, zoneMark) { t.Error("skip without a segment") },
		func(chunk, i, iEnd int) bool {
			calls++
			if chunk != -1 || i != 5 || iEnd != visited {
				t.Errorf("segmentless scan of chunk %d [%d,%d)", chunk, i, iEnd)
			}
			return true
		})
	if calls != 1 {
		t.Errorf("segmentless walk made %d scans", calls)
	}
}
