package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/frameql"
	"repro/internal/plan"
	"repro/internal/specnn"
	"repro/internal/vidsim"
)

// resumeCases is one query per plan family (plus fallback and hint-forced
// variants), shared by the suspend/resume and advance tests.
var resumeCases = []struct {
	family string
	query  string
	// units is the watermark to suspend at when the execution's Total is
	// unknown up front (adaptive sampling).
	units int
}{
	{family: "aggregate-sampling", query: `SELECT FCOUNT(*) FROM taipei WHERE class='car' ERROR WITHIN 0.1 AT CONFIDENCE 95%`, units: 10},
	{family: "aggregate-exhaustive", query: `SELECT FCOUNT(*) FROM taipei WHERE class='bus'`},
	{family: "aggregate-rewrite", query: `SELECT FCOUNT(*) FROM taipei WHERE class='bus' ERROR WITHIN 0.2 AT CONFIDENCE 90%`},
	{family: "aggregate-aqp-fallback", query: `SELECT FCOUNT(*) FROM taipei WHERE class='bear' ERROR WITHIN 0.1`, units: 10},
	{family: "aggregate-forced-naive", query: `SELECT /*+ PLAN(naive-exhaustive) */ FCOUNT(*) FROM taipei WHERE class='car'`},
	{family: "aggregate-forced-oracle", query: `SELECT /*+ PLAN(noscope-oracle) */ FCOUNT(*) FROM taipei WHERE class='car'`},
	{family: "distinct-tracking", query: `SELECT COUNT(DISTINCT trackid) FROM taipei WHERE class='bus' AND timestamp < 3000`},
	{family: "scrubbing-importance", query: `SELECT timestamp FROM taipei GROUP BY timestamp HAVING SUM(class='car') >= 3 LIMIT 5 GAP 30`},
	{family: "scrubbing-forced-sequential", query: `SELECT /*+ PLAN(scrub-sequential) */ timestamp FROM taipei GROUP BY timestamp HAVING SUM(class='car') >= 3 LIMIT 5 GAP 30`},
	{family: "selection-cascade", query: `SELECT * FROM taipei WHERE class = 'bus' AND redness(content) >= 17.5 AND area(mask) > 60000 GROUP BY trackid HAVING COUNT(*) > 15`},
	{family: "exhaustive", query: `SELECT * FROM taipei WHERE (class='car' OR class='bus') AND timestamp < 2500`},
	{family: "exhaustive-limit-gap", query: `SELECT * FROM taipei WHERE class='car' AND timestamp < 2500 LIMIT 5 GAP 100`},
	{family: "binary-cascade", query: `SELECT timestamp FROM taipei WHERE class = 'car' FNR WITHIN 0.02 FPR WITHIN 0.02`},
}

// suspendWatermark picks a mid-execution suspension point.
func suspendWatermark(x *Execution, fallback int) int {
	if total := x.Total(); total > 0 {
		if total/2 > 0 {
			return total / 2
		}
		return 1
	}
	if fallback > 0 {
		return fallback
	}
	return 1
}

// runResumed executes a query by suspending at the watermark, serializing
// the cursor through its wire form, resuming on eng, and completing.
func runResumed(t *testing.T, eng *Engine, info *frameql.Info, par, watermarkFallback int) (*Result, *plan.Cursor) {
	t.Helper()
	x, err := eng.BeginQuery(info, par)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.RunTo(suspendWatermark(x, watermarkFallback)); err != nil {
		t.Fatal(err)
	}
	cur, err := x.Suspend()
	if err != nil {
		t.Fatal(err)
	}
	// The cursor must survive its wire form: a standing query's state
	// crosses process boundaries as bytes.
	cur = roundTrip(t, cur)
	y, err := eng.ResumeQuery(cur)
	if err != nil {
		t.Fatal(err)
	}
	if got := y.Pos(); got != cur.Units {
		t.Fatalf("resumed execution starts at unit %d, cursor recorded %d", got, cur.Units)
	}
	if err := y.RunTo(-1); err != nil {
		t.Fatal(err)
	}
	res, err := y.Result()
	if err != nil {
		t.Fatal(err)
	}
	ncur, err := y.Suspend()
	if err != nil {
		t.Fatal(err)
	}
	return res, ncur
}

// TestSuspendResumeMatrix is the resumable-execution contract's
// enforcement: for every plan family, executing to a mid-scan watermark,
// serializing the cursor, and resuming must produce a Result bitwise
// identical — answers, rows, frames, and the full simulated cost meter —
// to one uninterrupted execution, at parallelism 1, 4, and 8.
func TestSuspendResumeMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	e := testEngine(t, "taipei")
	for _, tc := range resumeCases {
		t.Run(tc.family, func(t *testing.T) {
			info, err := frameql.Analyze(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			// Warm the model/inference caches so one-shot and resumed
			// executions see the same cached-cost accounting.
			if _, err := e.ExecuteParallel(info, 1); err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{1, 4, 8} {
				base, err := e.ExecuteParallel(info, par)
				if err != nil {
					t.Fatal(err)
				}
				resumed, cur := runResumed(t, e, info, par, tc.units)
				resultsIdentical(t, fmt.Sprintf("%s: one-shot vs resumed at parallelism %d", tc.family, par), base, resumed)
				if !cur.Done {
					t.Errorf("%s: completed execution's cursor not Done: %+v", tc.family, cur)
				}
			}
		})
	}
}

// TestSuspendResumeRepeated suspends an exhaustive scan at many
// watermarks — cursor round-tripped at each — and still matches the
// uninterrupted run bit for bit.
func TestSuspendResumeRepeated(t *testing.T) {
	if testing.Short() {
		t.Skip("generates streams")
	}
	e := testEngine(t, "taipei")
	info, err := frameql.Analyze(`SELECT * FROM taipei WHERE (class='car' OR class='bus') AND timestamp < 2500`)
	if err != nil {
		t.Fatal(err)
	}
	base, err := e.ExecuteParallel(info, 4)
	if err != nil {
		t.Fatal(err)
	}
	x, err := e.BeginQuery(info, 4)
	if err != nil {
		t.Fatal(err)
	}
	step := x.Total()/7 + 1
	for !x.Done() {
		if err := x.RunTo(x.Pos() + step); err != nil {
			t.Fatal(err)
		}
		cur, err := x.Suspend()
		if err != nil {
			t.Fatal(err)
		}
		wire, err := cur.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if cur, err = plan.DecodeCursor(wire); err != nil {
			t.Fatal(err)
		}
		if x, err = e.ResumeQuery(cur); err != nil {
			t.Fatal(err)
		}
	}
	res, err := x.Result()
	if err != nil {
		t.Fatal(err)
	}
	resultsIdentical(t, "7-step suspend/resume vs one-shot", base, res)
}

// TestCursorResumesAcrossEngines pins the restart story: a cursor
// suspended on one engine resumes on a second engine built from the same
// configuration (as after a process restart) and completes bit-identical
// to the uninterrupted run.
func TestCursorResumesAcrossEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("generates streams")
	}
	opts := Options{Scale: 0.01, Seed: 1, Spec: specnn.Options{TrainFrames: 18000, Epochs: 2, Seed: 7}, HeldOutSample: 8000}
	a, err := NewEngine("taipei", opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEngine("taipei", opts)
	if err != nil {
		t.Fatal(err)
	}
	info, err := frameql.Analyze(`SELECT * FROM taipei WHERE (class='car' OR class='bus') AND timestamp < 2500`)
	if err != nil {
		t.Fatal(err)
	}
	base, err := a.ExecuteParallel(info, 4)
	if err != nil {
		t.Fatal(err)
	}
	x, err := a.BeginQuery(info, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.RunTo(x.Total() / 2); err != nil {
		t.Fatal(err)
	}
	cur, err := x.Suspend()
	if err != nil {
		t.Fatal(err)
	}
	wire, err := cur.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if cur, err = plan.DecodeCursor(wire); err != nil {
		t.Fatal(err)
	}
	y, err := b.ResumeQuery(cur)
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
	resultsIdentical(t, "cursor resumed on a restarted engine", base, res)
}

// TestCursorRejectedBeyondHorizon: a cursor covering frames an engine
// cannot see (a restart with an earlier LiveStart) must be refused, not
// restored into answers over invisible frames.
func TestCursorRejectedBeyondHorizon(t *testing.T) {
	if testing.Short() {
		t.Skip("generates streams")
	}
	full, err := NewEngine("taipei", Options{Scale: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	short, err := NewEngine("taipei", Options{Scale: 0.01, Seed: 1, LiveStart: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	info, err := frameql.Analyze(`SELECT FCOUNT(*) FROM taipei WHERE class='car'`)
	if err != nil {
		t.Fatal(err)
	}
	x, err := full.BeginQuery(info, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.RunTo(-1); err != nil {
		t.Fatal(err)
	}
	cur, err := x.Suspend()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := short.ResumeQuery(cur); err == nil {
		t.Fatal("resume beyond the visible horizon must fail")
	}
	if _, _, err := short.Advance(cur); err == nil {
		t.Fatal("advance beyond the visible horizon must fail")
	}
}

// liveTestEngine builds a live engine: half the test day visible, the
// rest arriving via AppendLive.
func liveTestEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine("taipei", Options{
		Scale: 0.02,
		Seed:  1,
		Spec: specnn.Options{
			TrainFrames: 18000,
			Epochs:      2,
			Seed:        7,
		},
		HeldOutSample: 8000,
		LiveStart:     0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestAdvanceMatchesFreshQuery is the continuous tier's core guarantee:
// after a live stream appends frames, advancing a standing query's cursor
// yields exactly what a fresh execution of the same query over the
// extended stream yields — bitwise, full cost meter included — for every
// plan family. Scan families pay only the new suffix; population-
// dependent families re-run deterministically.
func TestAdvanceMatchesFreshQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	e := liveTestEngine(t)
	startHorizon := e.Horizon()
	if !e.Live() || startHorizon >= e.DayFrames() {
		t.Fatalf("engine not live: horizon %d of %d", startHorizon, e.DayFrames())
	}

	// Open one standing query per family against the initial horizon.
	type standing struct {
		family string
		info   *frameql.Info
		cur    *plan.Cursor
	}
	var subs []*standing
	for _, tc := range resumeCases {
		info, err := frameql.Analyze(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		// Warm one-time preparation (training, held-out statistics) so
		// standing and fresh executions observe identical cached charges.
		if _, err := e.ExecuteParallel(info, 1); err != nil {
			t.Fatal(err)
		}
		x, err := e.BeginQuery(info, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := x.RunTo(-1); err != nil {
			t.Fatal(err)
		}
		if _, err := x.Result(); err != nil {
			t.Fatal(err)
		}
		cur, err := x.Suspend()
		if err != nil {
			t.Fatal(err)
		}
		if cur.Horizon != startHorizon {
			t.Fatalf("%s: cursor horizon %d, want %d", tc.family, cur.Horizon, startHorizon)
		}
		subs = append(subs, &standing{family: tc.family, info: info, cur: cur})
	}

	// Two ingest batches; after each, every advanced cursor must match a
	// fresh query of the extended stream.
	for batch := 0; batch < 2; batch++ {
		added, err := e.AppendLive(e.DayFrames() / 5)
		if err != nil {
			t.Fatal(err)
		}
		if added == 0 {
			t.Fatal("AppendLive added no frames")
		}
		for _, s := range subs {
			advanced, ncur, err := e.Advance(s.cur)
			if err != nil {
				t.Fatalf("%s: advance: %v", s.family, err)
			}
			if ncur.Horizon != e.Horizon() {
				t.Fatalf("%s: advanced cursor horizon %d, want %d", s.family, ncur.Horizon, e.Horizon())
			}
			fresh, err := e.ExecuteParallel(s.info, 4)
			if err != nil {
				t.Fatalf("%s: fresh query: %v", s.family, err)
			}
			resultsIdentical(t, fmt.Sprintf("%s: batch %d advanced vs fresh", s.family, batch), advanced, fresh)
			// A second advance with no new frames must be a stable fixpoint.
			again, ncur2, err := e.Advance(ncur)
			if err != nil {
				t.Fatal(err)
			}
			if ncur2.Horizon != ncur.Horizon {
				t.Fatalf("%s: idle advance moved horizon %d -> %d", s.family, ncur.Horizon, ncur2.Horizon)
			}
			resultsIdentical(t, fmt.Sprintf("%s: batch %d idle advance", s.family, batch), advanced, again)
			s.cur = ncur2
		}
	}
}

// TestAppendLiveSemantics pins AppendLive's contract: epoch bumps only
// when frames appear, clamping at the day's end, and no-op on a full
// (non-live) engine.
func TestAppendLiveSemantics(t *testing.T) {
	if testing.Short() {
		t.Skip("generates streams")
	}
	e, err := NewEngine("taipei", Options{Scale: 0.01, Seed: 1, LiveStart: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if e.StreamEpoch() != 0 {
		t.Fatalf("fresh engine epoch = %d", e.StreamEpoch())
	}
	added, err := e.AppendLive(e.DayFrames())
	if err != nil {
		t.Fatal(err)
	}
	if added == 0 || e.Horizon() != e.DayFrames() {
		t.Fatalf("append to day end: added %d, horizon %d of %d", added, e.Horizon(), e.DayFrames())
	}
	if e.StreamEpoch() != 1 {
		t.Fatalf("epoch after append = %d, want 1", e.StreamEpoch())
	}
	// Clamped: nothing left to append, epoch must not move.
	added, err = e.AppendLive(100)
	if err != nil {
		t.Fatal(err)
	}
	if added != 0 || e.StreamEpoch() != 1 {
		t.Fatalf("append past day end: added %d, epoch %d", added, e.StreamEpoch())
	}

	full, err := NewEngine("taipei", Options{Scale: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if full.Live() {
		t.Fatal("full engine reports live")
	}
	added, err = full.AppendLive(100)
	if err != nil {
		t.Fatal(err)
	}
	if added != 0 || full.StreamEpoch() != 0 {
		t.Fatalf("full engine append: added %d, epoch %d", added, full.StreamEpoch())
	}
}

// parentCursor is one record of testdata/cursors_pr13.json,
// testdata/cursors_pr22_scrub.json, testdata/cursors_pr23_rewrite.json or
// testdata/cursors_pr36_aqp.json: a mid-scan and a completed cursor of one
// (family, plan), in wire form.
type parentCursor struct {
	Name  string          `json:"name"`
	Query string          `json:"query"`
	Index []vidsim.Class  `json:"index,omitempty"`
	Mark  int             `json:"mark"`
	Mid   json.RawMessage `json:"mid"`
	Done  json.RawMessage `json:"done"`
}

// TestResumeParentCursors resumes cursors that the executors of PR 13
// (commit cd13c64, before the scan operator replaced the per-family
// execs) suspended on testEngine's configuration at parallelism 4, each
// after one warming run: one mid-scan (the density-limit ones mid-chunk)
// and one completed cursor per scan plan. plan.Cursor carries no version
// field, so a renamed JSON tag in a family's state would decode to zero
// values and silently restart the scan; this requires instead that every
// resumed Result — answer, rows, full cost meter — is bit-identical to an
// uninterrupted run. The scrubbing cursors are from commit 88c6233, the
// last with a separate scrubbing executor: each was suspended mid-search
// with LIMIT and GAP in force and carries that executor's speculative
// prefetch_window, which the scan operator ignores (the search verifies
// those positions itself when it probes them). The specialized-rewrite
// cursors are from commit 8db8565, the last with a third executor for plans
// without progress structure: one suspended before its single unit, one
// after; the rewrite's scan kernel writes the same format. The sampled
// aggregate cursors (naive-aqp, control-variates) are from commit f3afea9,
// the last with a separate adaptive-sampling executor, suspended at
// parallelism 1 after two sampling rounds: they carry that executor's
// serialized sampler, which the sampling scan ignores (it replays the
// draws, a pure function of seed and draw number).
// The files are frozen: a deliberate cursor format change must keep
// decoding them, not re-record them.
func TestResumeParentCursors(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	var cases []parentCursor
	for _, file := range []string{"testdata/cursors_pr13.json", "testdata/cursors_pr22_scrub.json", "testdata/cursors_pr23_rewrite.json", "testdata/cursors_pr36_aqp.json"} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var recorded []parentCursor
		if err := json.Unmarshal(data, &recorded); err != nil {
			t.Fatal(err)
		}
		cases = append(cases, recorded...)
	}
	e := testEngine(t, "taipei")
	for _, tc := range cases {
		t.Run(tc.Name, func(t *testing.T) {
			for _, c := range tc.Index {
				if err := e.BuildIndex([]vidsim.Class{c}); err != nil {
					t.Fatal(err)
				}
			}
			info, err := frameql.Analyze(tc.Query)
			if err != nil {
				t.Fatal(err)
			}
			// Warm preparation, as the recording did: the cursors carry
			// the charges of a warm engine.
			if _, err := e.ExecuteParallel(info, 1); err != nil {
				t.Fatal(err)
			}
			want, err := e.ExecuteParallel(info, 4)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []struct {
				label string
				wire  []byte
				done  bool
			}{{"mid-scan", tc.Mid, false}, {"completed", tc.Done, true}} {
				cur, err := plan.DecodeCursor(w.wire)
				if err != nil {
					t.Fatal(err)
				}
				if cur.Plan != want.Stats.Plan {
					t.Fatalf("%s cursor is of plan %q, the query now runs %q", w.label, cur.Plan, want.Stats.Plan)
				}
				x, err := e.ResumeQuery(cur)
				if err != nil {
					t.Fatal(err)
				}
				if x.Pos() != cur.Units || x.Done() != w.done {
					t.Fatalf("%s cursor restored at unit %d done=%v, recorded unit %d done=%v",
						w.label, x.Pos(), x.Done(), cur.Units, w.done)
				}
				if !w.done && cur.Units != tc.Mark {
					t.Fatalf("mid-scan cursor at unit %d, recorded mark %d", cur.Units, tc.Mark)
				}
				if err := x.RunTo(-1); err != nil {
					t.Fatal(err)
				}
				got, err := x.Result()
				if err != nil {
					t.Fatal(err)
				}
				resultsIdentical(t, tc.Name+": "+w.label+" parent cursor vs uninterrupted", want, got)
			}
		})
	}
}

// TestRewriteCursorFormat: specialized-rewrite runs on the scan operator
// but keeps one cursor format — suspended before and after its unit it
// writes, byte for byte, what commit 8db8565's third executor recorded.
func TestRewriteCursorFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	data, err := os.ReadFile("testdata/cursors_pr23_rewrite.json")
	if err != nil {
		t.Fatal(err)
	}
	var recorded []parentCursor
	if err := json.Unmarshal(data, &recorded); err != nil {
		t.Fatal(err)
	}
	tc := recorded[0]
	e := testEngine(t, "taipei")
	info, err := frameql.Analyze(tc.Query)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecuteParallel(info, 1); err != nil {
		t.Fatal(err)
	}
	x, err := e.BeginQuery(info, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		label string
		units int
		want  json.RawMessage
	}{{"before its unit", 0, tc.Mid}, {"completed", -1, tc.Done}} {
		if err := x.RunTo(w.units); err != nil {
			t.Fatal(err)
		}
		if x.Total() != 1 {
			t.Fatalf("%s: Total %d, want 1", w.label, x.Total())
		}
		cur, err := x.Suspend()
		if err != nil {
			t.Fatal(err)
		}
		got, err := cur.Encode()
		if err != nil {
			t.Fatal(err)
		}
		var g, want bytes.Buffer
		if err := json.Compact(&g, got); err != nil {
			t.Fatal(err)
		}
		if err := json.Compact(&want, w.want); err != nil {
			t.Fatal(err)
		}
		if g.String() != want.String() {
			t.Errorf("%s cursor:\n got  %s\n want %s", w.label, g.String(), want.String())
		}
	}
}
