package core

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/frameql"
	"repro/internal/plan"
	"repro/internal/scrub"
)

// scrubPlans are the three probe orders, each forced by hint.
var scrubPlans = []string{"scrub-importance", "scrub-sequential", "scrub-noscope-oracle"}

// scrubQuery is a three-car scrubbing query under the given plan, with
// where ("" or a WHERE clause) and tail (LIMIT/GAP) spliced in.
func scrubQuery(planName, where, tail string) string {
	return fmt.Sprintf(`SELECT /*+ PLAN(%s) */ timestamp FROM taipei %s GROUP BY timestamp HAVING SUM(class='car') >= 3 %s`,
		planName, where, tail)
}

// beginScrub opens the query and returns the execution with the rank
// order its kernel searches.
func beginScrub(t *testing.T, e *Engine, info *frameql.Info, par int) (*Execution, []int32) {
	t.Helper()
	x, err := e.BeginQuery(info, par)
	if err != nil {
		t.Fatal(err)
	}
	sx, ok := x.ex.(*scanExec[struct{}])
	if !ok {
		t.Fatalf("scrubbing query opened a %T, want the scan operator", x.ex)
	}
	return x, sx.k.(*scrubKernel).order
}

// scrubReference is scrub.Search over an order with an independent
// verifier, metered as a serial search is: one detection per probe.
type scrubReference struct {
	e *Engine
	s *scrub.Searcher
	m Stats
}

func newScrubReference(e *Engine, order []int32, info *frameql.Info) *scrubReference {
	limit := info.Limit
	if limit < 0 {
		limit = math.MaxInt
	}
	return &scrubReference{e: e, s: scrub.NewSearcher(order, limit, info.Gap)}
}

// runTo advances the reference to rank position pos (-1: to the end).
func (r *scrubReference) runTo(pos int) scrub.Result {
	r.s.RunTo(pos, func(f int) bool {
		r.m.addDetection(r.e.DTest.FullFrameCost())
		return r.e.DTest.CountAt(f, "car") >= 3
	})
	return r.s.Result()
}

// roundTrip sends a cursor through its wire form.
func roundTrip(t *testing.T, cur *plan.Cursor) *plan.Cursor {
	t.Helper()
	wire, err := cur.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if cur, err = plan.DecodeCursor(wire); err != nil {
		t.Fatal(err)
	}
	return cur
}

// TestScrubKernelMatchesReferenceSearch compares the scrubbing kernel on
// the scan operator with scrub.Search over the same order — frames in
// found order, verifications, the meter to the bit, the exhaustion note —
// for all three probe orders, one-shot at parallelism 1, 4 and 8 and
// suspended through a wire cursor after every rank position (every
// stride-th for the searches that run for thousands of positions).
func TestScrubKernelMatchesReferenceSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	e := testEngine(t, "taipei")
	const window = `WHERE timestamp >= 15000 AND timestamp < 15400`
	cases := []struct {
		name, where, tail string
		// edge takes where and tail from shardEdgeCase: the limit is met on
		// the last position of a shard of the one-shot layout.
		edge bool
		// stride is the rank positions between suspensions (default 1: every
		// position).
		stride int
	}{
		{name: "limit-0", tail: "LIMIT 0"},
		{name: "no-limit", where: window},
		{name: "no-limit-whole-day", stride: 10000},
		// In frame order this search runs 11,551 positions, about half of
		// them passed over unverified, and crosses the ramp into full-size
		// shards.
		{name: "gap-heavy-past-ramp", tail: "LIMIT 20 GAP 300", stride: 500},
		{name: "gap-over-window", where: window, tail: "LIMIT 3 GAP 1000"},
		{name: "limit-on-shard-edge", edge: true},
		{name: "window-filters-ranking", where: `WHERE timestamp >= 14000 AND timestamp < 19000`, tail: "LIMIT 5 GAP 30"},
	}
	for _, tc := range cases {
		for _, planName := range scrubPlans {
			t.Run(tc.name+"/"+planName, func(t *testing.T) {
				where, tail := tc.where, tc.tail
				if tc.edge {
					where, tail = shardEdgeCase(t, e, planName)
				}
				info, err := frameql.Analyze(scrubQuery(planName, where, tail))
				if err != nil {
					t.Fatal(err)
				}
				// Warm training and inference so every open below sees the
				// same cached charges.
				if _, err := e.ExecuteParallel(info, 1); err != nil {
					t.Fatal(err)
				}
				for _, par := range []int{1, 4, 8} {
					x, order := beginScrub(t, e, info, par)
					ref := newScrubReference(e, order, info)
					want, meter := ref.runTo(-1), &ref.m
					if info.Limit == 0 && !x.Done() {
						t.Fatalf("p%d: LIMIT 0 search not done at open", par)
					}
					if err := x.RunTo(-1); err != nil {
						t.Fatal(err)
					}
					got, err := x.Result()
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("p%d", par)
					if got.Stats.Plan != planName {
						t.Fatalf("%s: ran %s", label, got.Stats.Plan)
					}
					if fmt.Sprint(got.Frames) != fmt.Sprint(want.Frames) {
						t.Fatalf("%s: found %v, reference search found %v", label, got.Frames, want.Frames)
					}
					if got.Stats.DetectorCalls != want.Verified || got.Stats.DetectorCalls != meter.DetectorCalls ||
						math.Float64bits(got.Stats.DetectorSeconds) != math.Float64bits(meter.DetectorSeconds) {
						t.Fatalf("%s: charged %d calls / %v s, reference search verified %d / %v s",
							label, got.Stats.DetectorCalls, got.Stats.DetectorSeconds, want.Verified, meter.DetectorSeconds)
					}
					noted := strings.Contains(strings.Join(got.Stats.Notes, "\n"), "search exhausted")
					if wantNote := want.Exhausted && planName == "scrub-importance"; noted != wantNote {
						t.Fatalf("%s: exhaustion note present=%v, want %v (exhausted=%v): %q",
							label, noted, wantNote, want.Exhausted, got.Stats.Notes)
					}
					if tc.edge {
						if pos := x.Pos(); !onShardEdge(pos) {
							t.Fatalf("%s: limit met at position %d, not a shard's last", label, pos-1)
						}
					}

					// Every suspend point: one rank position (or stride) per RunTo,
					// the cursor through its wire form each time, its meter the
					// reference's at that frontier.
					y, _ := beginScrub(t, e, info, par)
					ref = newScrubReference(e, order, info)
					for !y.Done() {
						if err := y.RunTo(y.Pos() + max(tc.stride, 1)); err != nil {
							t.Fatal(err)
						}
						cur, err := y.Suspend()
						if err != nil {
							t.Fatal(err)
						}
						var st scrubState
						if err := json.Unmarshal(cur.State, &st); err != nil {
							t.Fatal(err)
						}
						if at := ref.runTo(cur.Units); st.Stats.DetectorCalls != at.Verified {
							t.Fatalf("%s: cursor at position %d has charged %d verifications, reference search %d",
								label, cur.Units, st.Stats.DetectorCalls, at.Verified)
						}
						if y, err = e.ResumeQuery(roundTrip(t, cur)); err != nil {
							t.Fatal(err)
						}
					}
					stepped, err := y.Result()
					if err != nil {
						t.Fatal(err)
					}
					resultsIdentical(t, label+": one-shot vs suspended at every position", got, stepped)
				}
			})
		}
	}

	// The windowed importance order is the resident ranking restricted to the
	// window, relative order kept.
	full, err := frameql.Analyze(scrubQuery("scrub-importance", "", "LIMIT 5"))
	if err != nil {
		t.Fatal(err)
	}
	windowed, err := frameql.Analyze(scrubQuery("scrub-importance", window, "LIMIT 5"))
	if err != nil {
		t.Fatal(err)
	}
	_, ranking := beginScrub(t, e, full, 1)
	_, order := beginScrub(t, e, windowed, 1)
	want := scrub.FilterOrder(ranking, func(f int) bool { return f >= 15000 && f < 15400 })
	if len(order) != 400 || fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("windowed importance order has %d positions and is not the ranking filtered to the window (%d)", len(order), len(want))
	}
}

// onShardEdge reports whether pos is where a shard of the one-shot
// scrubbing layout ends: the cumulative doubling spans from rampSpan.
func onShardEdge(pos int) bool {
	for span, edge := rampSpan, 0; edge < pos; {
		edge += span
		if edge == pos {
			return true
		}
		if span < shardSpan {
			span *= 2
		}
	}
	return false
}

// shardEdgeCase finds a window start and a LIMIT under which the plan's
// search, GAP 20, accepts its last frame on the last position of one of the
// layout's first shards: sliding the window slides every frame's position.
func shardEdgeCase(t *testing.T, e *Engine, planName string) (where, tail string) {
	t.Helper()
	for lo := 15000; lo < 15200; lo++ {
		where = fmt.Sprintf("WHERE timestamp >= %d", lo)
		info, err := frameql.Analyze(scrubQuery(planName, where, "LIMIT 1000000 GAP 20"))
		if err != nil {
			t.Fatal(err)
		}
		_, order := beginScrub(t, e, info, 1)
		s := scrub.NewSearcher(order, info.Limit, info.Gap)
		for found := 0; !s.Done() && s.Pos() < 800; {
			s.RunTo(s.Pos()+1, func(f int) bool { return e.DTest.CountAt(f, "car") >= 3 })
			n := len(s.State().Frames)
			if n > found && onShardEdge(s.Pos()) {
				return where, fmt.Sprintf("LIMIT %d GAP 20", n)
			}
			found = n
		}
	}
	t.Fatalf("%s: no window start in [15000,15200) puts an accepted frame on a shard edge", planName)
	return "", ""
}

// TestScrubResumeRechargesNothing suspends a search mid-way and requires
// that the cursor's meter is a serial search's at the frontier and that the
// resumed search charges exactly the remainder: no position is charged
// twice.
func TestScrubResumeRechargesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	e := testEngine(t, "taipei")
	for _, planName := range scrubPlans {
		info, err := frameql.Analyze(scrubQuery(planName, "", "LIMIT 12 GAP 100"))
		if err != nil {
			t.Fatal(err)
		}
		x, order := beginScrub(t, e, info, 4)
		whole := newScrubReference(e, order, info).runTo(-1)
		var end int
		for _, f := range order {
			if end++; f == int32(whole.Frames[len(whole.Frames)-1]) {
				break
			}
		}
		mark := end / 2
		if err := x.RunTo(mark); err != nil {
			t.Fatal(err)
		}
		cur, err := x.Suspend()
		if err != nil {
			t.Fatal(err)
		}
		var st scrubState
		if err := json.Unmarshal(cur.State, &st); err != nil {
			t.Fatal(err)
		}
		upTo := newScrubReference(e, order, info).runTo(mark)
		if cur.Units != mark || cur.Done || st.Stats.DetectorCalls != upTo.Verified {
			t.Fatalf("%s: suspended at %d (done=%v) having charged %d verifications; a serial search to %d charges %d",
				planName, cur.Units, cur.Done, st.Stats.DetectorCalls, mark, upTo.Verified)
		}
		y, err := e.ResumeQuery(roundTrip(t, cur))
		if err != nil {
			t.Fatal(err)
		}
		if err := y.RunTo(-1); err != nil {
			t.Fatal(err)
		}
		res, err := y.Result()
		if err != nil {
			t.Fatal(err)
		}
		if resumed := res.Stats.DetectorCalls - st.Stats.DetectorCalls; resumed != whole.Verified-upTo.Verified {
			t.Fatalf("%s: resumed search charged %d verifications, the serial search's remainder is %d",
				planName, resumed, whole.Verified-upTo.Verified)
		}
		if y.Pos() != end {
			t.Fatalf("%s: search ended at position %d, reference at %d", planName, y.Pos(), end)
		}
	}
}
