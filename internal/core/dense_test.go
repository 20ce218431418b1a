package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/frameql"
	"repro/internal/index"
	"repro/internal/scrub"
	"repro/internal/vidsim"
)

// denseChunks reads the test day's filled dense count columns.
func denseChunks(e *Engine) int {
	n := 0
	for _, ld := range e.IndexStats().Labels {
		n += ld.DenseChunks
	}
	return n
}

// TestDenseCountColumnAnswerNeutral pins the dense detector-count column:
// an exact scan's Result and cost meter are the same whether every chunk
// is computed (cold), every sealed chunk is read (warm), or only a prefix
// is — at each parallelism, across an append that seals the chunk an
// earlier snapshot saw in part, and for a query still pinned to that
// earlier snapshot. The unsealed tail is never stored.
func TestDenseCountColumnAnswerNeutral(t *testing.T) {
	if testing.Short() {
		t.Skip("generates streams")
	}
	opts := Options{Scale: 0.01, Seed: 1, LiveStart: 0.3}
	open := func() *Engine {
		e, err := NewEngine("taipei", opts)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	queries := []string{
		`SELECT FCOUNT(*) FROM taipei WHERE class='car'`,
		`SELECT COUNT(*) FROM taipei WHERE class='bus'`,
		`SELECT /*+ PLAN(binary-exact) */ timestamp FROM taipei WHERE class = 'car' AND timestamp >= 500 FNR WITHIN 0.02 FPR WITHIN 0.02 LIMIT 40 GAP 5`,
	}
	infos := make([]*frameql.Info, len(queries))
	for i, q := range queries {
		var err error
		if infos[i], err = frameql.Analyze(q); err != nil {
			t.Fatal(err)
		}
	}
	e := open()
	pinned, _ := e.Pin() // horizon 3564: three sealed chunks and 492 frames of a fourth
	h0 := pinned.Horizon()
	if h0%index.ChunkFrames == 0 {
		t.Fatalf("initial horizon %d leaves no partial chunk", h0)
	}
	for step, grow := range []int{0, 700, 2 * index.ChunkFrames} {
		if grow > 0 {
			if _, err := e.AppendLive(grow); err != nil {
				t.Fatal(err)
			}
		}
		// A control engine at the same horizon that never scanned before:
		// every one of its chunks is computed.
		ctl := open()
		if _, err := ctl.AppendLive(e.Horizon() - ctl.Horizon()); err != nil {
			t.Fatal(err)
		}
		for i, info := range infos {
			for _, par := range []int{1, 4, 8} {
				label := fmt.Sprintf("%s, horizon %d, p%d", queries[i], e.Horizon(), par)
				want, err := ctl.ExecuteParallel(info, par)
				if err != nil {
					t.Fatal(err)
				}
				for _, stage := range []string{"first", "repeated"} {
					got, err := e.ExecuteParallel(info, par)
					if err != nil {
						t.Fatal(err)
					}
					resultsIdentical(t, label+": "+stage+" scan vs an engine with no column", want, got)
				}
			}
		}
		sealed := e.Horizon() / index.ChunkFrames
		if got := denseChunks(e); got != 2*sealed {
			t.Errorf("step %d: %d dense columns at horizon %d, want car and bus × %d sealed chunks", step, got, e.Horizon(), sealed)
		}
	}
	// The view pinned before the appends still reads its own horizon only,
	// though the chunk it saw in part is now stored whole.
	ctl := open()
	for i, info := range infos {
		want, err := ctl.ExecuteParallel(info, 4)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pinned.ExecuteParallel(info, 4)
		if err != nil {
			t.Fatal(err)
		}
		resultsIdentical(t, fmt.Sprintf("%s pinned at %d after the stream grew", queries[i], h0), want, got)
	}
}

// rankFromSegment builds the importance order from the materialized
// segment's columns in one full sort (Segment.RankSum, bit-identical to
// scrub.RankByConfidence over the same inference) — what every scrubbing
// enumeration did before rankings became resident, kept as the reference
// the merge-extended ranking is tested against.
func rankFromSegment(seg *index.Segment, reqs []scrub.Requirement) (order []int32, chunksSkipped, framesSkipped int, err error) {
	ireqs, err := scrubIndexReqs(seg, reqs)
	if err != nil {
		return nil, 0, 0, err
	}
	order, chunksSkipped, framesSkipped = seg.RankSum(ireqs)
	return order, chunksSkipped, framesSkipped, nil
}

// TestResidentRankingMatchesRankFromSegment checks the scrubbing shape's
// resident importance order — scored and merged suffix by suffix — against
// rankFromSegment's full sort, over random append schedules with horizons
// inside and on the edge of chunks, including a snapshot pinned before an
// append asking after it.
func TestResidentRankingMatchesRankFromSegment(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	e := residentEngine(t)
	classes := []vidsim.Class{vidsim.Car, vidsim.Bus}
	if err := e.BuildIndex(classes); err != nil {
		t.Fatal(err)
	}
	reqs := []scrub.Requirement{{Class: vidsim.Car, N: 2}, {Class: vidsim.Bus, N: 1}}
	ranking := &scrubRanking{}
	rng := rand.New(rand.NewSource(5))
	check := func(pe *Engine) {
		t.Helper()
		seg, _, err := pe.segment(classes, pe.Test)
		if err != nil {
			t.Fatal(err)
		}
		ireqs, err := scrubIndexReqs(seg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		want, wantChunks, wantFrames, err := rankFromSegment(seg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if got := ranking.at(seg, ireqs); !reflect.DeepEqual(got, want) {
			t.Fatalf("horizon %d: resident ranking differs from rankFromSegment", seg.Frames())
		}
		if c, f := seg.RankSkips(ireqs); c != wantChunks || f != wantFrames {
			t.Fatalf("horizon %d: skip accounting (%d, %d), rankFromSegment's (%d, %d)", seg.Frames(), c, f, wantChunks, wantFrames)
		}
	}
	var stale []*Engine
	for steps := 0; e.Horizon() < e.DayFrames(); steps++ {
		pe, _ := e.Pin()
		check(pe)
		if steps%2 == 0 {
			stale = append(stale, pe)
		}
		n := 1 + rng.Intn(2*index.ChunkFrames)
		if steps%3 == 2 {
			n = index.ChunkFrames - e.Horizon()%index.ChunkFrames
		}
		if _, err := e.AppendLive(n); err != nil {
			t.Fatal(err)
		}
	}
	pe, _ := e.Pin()
	check(pe)
	for _, old := range stale {
		check(old)
	}
}

// TestAggregateIgnoresTimestampBounds records a known defect rather than
// fixing it (ROADMAP 4(f)): the aggregate family never reads the query's
// timestamp bounds. Its scans cover, its samplers draw from, and its means
// divide by the whole visible day, so a windowed FCOUNT answers — and
// charges — exactly like the unwindowed one. The serving benchmark's
// "fixed-size window" reads therefore scan the whole day. When the bug is
// fixed this test's expectations flip: the windowed answers must equal a
// brute-force count over the window, and the meters shrink with it.
func TestAggregateIgnoresTimestampBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("generates streams")
	}
	e, err := NewEngine("taipei", Options{Scale: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	run := func(q string) *Result {
		res, err := e.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return res
	}
	whole := run(`SELECT FCOUNT(*) FROM taipei WHERE class='car'`)
	windowed := run(`SELECT FCOUNT(*) FROM taipei WHERE class='car' AND timestamp >= 1000 AND timestamp < 2000`)
	resultsIdentical(t, "windowed FCOUNT vs whole-day FCOUNT (today's behaviour)", whole, windowed)
	if windowed.Stats.DetectorCalls != e.Test.Frames {
		t.Errorf("windowed FCOUNT made %d detector calls; today it makes one per visible frame (%d)", windowed.Stats.DetectorCalls, e.Test.Frames)
	}
	// What the window actually holds, for the record.
	c := e.DTest.NewCounter()
	sum := 0
	for f := 1000; f < 2000; f++ {
		sum += c.CountAt(f, vidsim.Car)
	}
	if truth := float64(sum) / 1000; truth == windowed.Value {
		t.Errorf("windowed FCOUNT equals the window's true mean %v: the bug this test pins is gone — update it and ROADMAP 4(f)", truth)
	}
	total := run(`SELECT COUNT(*) FROM taipei WHERE class='car' AND timestamp < 2000`)
	if want := whole.Value * float64(e.Test.Frames); total.Value != want {
		t.Errorf("windowed COUNT(*) = %v, today it is the whole day's total %v", total.Value, want)
	}
}
