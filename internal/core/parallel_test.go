package core

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/detect"
	"repro/internal/frameql"
	"repro/internal/vidsim"
)

// shardRanges splits n visited frames into shardSpan-sized shards.
func shardRanges(n int) []shard { return shardRangesSpan(n, shardSpan) }

func TestShardRangesLayout(t *testing.T) {
	for _, n := range []int{0, 1, shardSpan - 1, shardSpan, shardSpan + 1, 3*shardSpan + 7} {
		shards := shardRanges(n)
		covered := 0
		for i, s := range shards {
			if s.index != i {
				t.Fatalf("n=%d: shard %d has index %d", n, i, s.index)
			}
			if s.lo != covered {
				t.Fatalf("n=%d: shard %d starts at %d, want %d", n, i, s.lo, covered)
			}
			if s.hi <= s.lo || s.hi-s.lo > shardSpan {
				t.Fatalf("n=%d: shard %d has bad span [%d,%d)", n, i, s.lo, s.hi)
			}
			covered = s.hi
		}
		if covered != n {
			t.Fatalf("n=%d: shards cover %d", n, covered)
		}
	}
}

func TestRampShardRangesLayout(t *testing.T) {
	for _, n := range []int{0, 1, rampSpan, rampSpan + 1, 10*shardSpan + 5} {
		shards := resumeShards(0, n, true)
		covered := 0
		span := rampSpan
		for i, s := range shards {
			if s.lo != covered {
				t.Fatalf("n=%d: shard %d starts at %d, want %d", n, i, s.lo, covered)
			}
			if s.hi-s.lo > span {
				t.Fatalf("n=%d: shard %d span %d exceeds ramp %d", n, i, s.hi-s.lo, span)
			}
			covered = s.hi
			if span < shardSpan {
				span *= 2
			}
		}
		if covered != n {
			t.Fatalf("n=%d: shards cover %d", n, covered)
		}
	}
	// The first shard of a LIMIT scan must be small: a limit satisfied in
	// the first frames should not pay a full shardSpan of speculation.
	if s := resumeShards(0, 10*shardSpan, true); s[0].hi-s[0].lo != rampSpan {
		t.Errorf("first ramp shard spans %d, want %d", s[0].hi-s[0].lo, rampSpan)
	}
}

// TestExhaustivePreEvalErrorRespectsLimit pins the serial error semantics
// the sharded pre-evaluation must preserve: a row whose predicate
// evaluation errors only matters if a serial scan would have reached it —
// a LIMIT satisfied earlier returns rows, not the error.
func TestExhaustivePreEvalErrorRespectsLimit(t *testing.T) {
	e := testEngine(t, "taipei")
	// The query's predicate short-circuits to true on car rows and
	// type-errors (number vs string) on any other class. The test needs
	// the scan's first detection to be a car; find where that holds.
	var buf []detect.Detection
	firstDet := -1
	for f := 0; f < e.Test.Frames; f++ {
		buf = e.DTest.Detect(f, buf[:0])
		if len(buf) > 0 {
			if buf[0].Class != vidsim.Car {
				t.Skipf("first detection (frame %d) is %q, not car", f, buf[0].Class)
			}
			firstDet = f
			break
		}
	}
	if firstDet < 0 {
		t.Skip("no detections at this scale")
	}
	withLimit, err := frameql.Analyze(`SELECT * FROM taipei WHERE class='car' OR timestamp='x' LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	noLimit, err := frameql.Analyze(`SELECT * FROM taipei WHERE class='car' OR timestamp='x'`)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4, 8} {
		res, err := e.ExecuteParallel(withLimit, par)
		if err != nil {
			t.Fatalf("par %d: LIMIT 1 query errored (%v) but the limit row precedes the erroring row", par, err)
		}
		if len(res.Rows) != 1 || res.Rows[0].Class != vidsim.Car {
			t.Fatalf("par %d: rows = %+v, want one car row", par, res.Rows)
		}
		if _, err := e.ExecuteParallel(noLimit, par); err == nil {
			t.Fatalf("par %d: unlimited query must surface the predicate error", par)
		}
	}
}

func TestRunShardedOrderAndEarlyStop(t *testing.T) {
	n := 5*shardSpan + 123
	for _, workers := range []int{1, 3, 8} {
		var consumed []int
		var produced atomic.Int64
		runSharded(workers, shardRanges(n), nil,
			func(s shard) int { produced.Add(1); return s.index },
			func(s shard, v int) bool {
				if v != s.index {
					t.Fatalf("shard %d delivered value %d", s.index, v)
				}
				consumed = append(consumed, v)
				return v < 2 // stop after consuming shard 2
			})
		if want := []int{0, 1, 2}; len(consumed) != 3 || consumed[0] != 0 || consumed[1] != 1 || consumed[2] != 2 {
			t.Fatalf("workers=%d: consumed %v, want %v", workers, consumed, want)
		}
		if produced.Load() < 3 {
			t.Fatalf("workers=%d: produced only %d shards", workers, produced.Load())
		}
	}
}

// TestRunShardedPropagatesProducePanic: a panic inside a shard worker
// must re-raise on the caller's goroutine (where the serve pool's
// per-task recover can contain it) after all workers have exited —
// never crash the process from a bare goroutine.
func TestRunShardedPropagatesProducePanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Errorf("workers=%d: recovered %v, want \"boom\"", workers, r)
				}
			}()
			runSharded(workers, shardRanges(3*shardSpan), nil,
				func(s shard) int {
					if s.index == 1 {
						panic("boom")
					}
					return s.index
				},
				func(s shard, v int) bool { return true })
			t.Errorf("workers=%d: runSharded returned instead of panicking", workers)
		}()
	}
}

func TestRunShardedCountsShards(t *testing.T) {
	var c execCounters
	runSharded(4, shardRanges(3*shardSpan), &c,
		func(s shard) struct{} { return struct{}{} },
		func(s shard, v struct{}) bool { return true })
	if got := c.shards.Load(); got != 3 {
		t.Errorf("shards counter = %d, want 3", got)
	}
	if got := c.fanouts.Load(); got != 1 {
		t.Errorf("fanouts counter = %d, want 1", got)
	}
}

// resultsIdentical asserts two Results are bit-identical: answers, frames,
// rows, track IDs, evaluation metadata, and every field of the cost meter.
func resultsIdentical(t *testing.T, label string, a, b *Result) {
	t.Helper()
	fail := func(format string, args ...interface{}) {
		t.Helper()
		t.Errorf("%s: %s", label, fmt.Sprintf(format, args...))
	}
	if a.Kind != b.Kind {
		fail("Kind %q vs %q", a.Kind, b.Kind)
	}
	if math.Float64bits(a.Value) != math.Float64bits(b.Value) {
		fail("Value %v vs %v", a.Value, b.Value)
	}
	if math.Float64bits(a.StdErr) != math.Float64bits(b.StdErr) {
		fail("StdErr %v vs %v", a.StdErr, b.StdErr)
	}
	if len(a.Frames) != len(b.Frames) {
		fail("Frames len %d vs %d", len(a.Frames), len(b.Frames))
	} else {
		for i := range a.Frames {
			if a.Frames[i] != b.Frames[i] {
				fail("Frames[%d] %d vs %d", i, a.Frames[i], b.Frames[i])
				break
			}
		}
	}
	if len(a.Rows) != len(b.Rows) {
		fail("Rows len %d vs %d", len(a.Rows), len(b.Rows))
	} else {
		for i := range a.Rows {
			if a.Rows[i] != b.Rows[i] {
				fail("Rows[%d] %+v vs %+v", i, a.Rows[i], b.Rows[i])
				break
			}
		}
	}
	if len(a.TrackIDs) != len(b.TrackIDs) {
		fail("TrackIDs len %d vs %d", len(a.TrackIDs), len(b.TrackIDs))
	} else {
		for i := range a.TrackIDs {
			if a.TrackIDs[i] != b.TrackIDs[i] {
				fail("TrackIDs[%d] %d vs %d", i, a.TrackIDs[i], b.TrackIDs[i])
				break
			}
		}
	}
	if len(a.evalTruthIDs) != len(b.evalTruthIDs) {
		fail("evalTruthIDs len %d vs %d", len(a.evalTruthIDs), len(b.evalTruthIDs))
	} else {
		for i := range a.evalTruthIDs {
			if a.evalTruthIDs[i] != b.evalTruthIDs[i] {
				fail("evalTruthIDs[%d] %d vs %d", i, a.evalTruthIDs[i], b.evalTruthIDs[i])
				break
			}
		}
	}
	sa, sb := a.Stats, b.Stats
	if sa.Plan != sb.Plan {
		fail("Plan %q vs %q", sa.Plan, sb.Plan)
	}
	if sa.DetectorCalls != sb.DetectorCalls {
		fail("DetectorCalls %d vs %d", sa.DetectorCalls, sb.DetectorCalls)
	}
	for _, c := range []struct {
		name string
		x, y float64
	}{
		{"DetectorSeconds", sa.DetectorSeconds, sb.DetectorSeconds},
		{"SpecNNSeconds", sa.SpecNNSeconds, sb.SpecNNSeconds},
		{"FilterSeconds", sa.FilterSeconds, sb.FilterSeconds},
		{"TrainSeconds", sa.TrainSeconds, sb.TrainSeconds},
	} {
		if math.Float64bits(c.x) != math.Float64bits(c.y) {
			fail("%s %v vs %v (not bit-identical)", c.name, c.x, c.y)
		}
	}
	if len(sa.Notes) != len(sb.Notes) {
		fail("Notes len %d vs %d", len(sa.Notes), len(sb.Notes))
	} else {
		for i := range sa.Notes {
			if sa.Notes[i] != sb.Notes[i] {
				fail("Notes[%d] %q vs %q", i, sa.Notes[i], sb.Notes[i])
				break
			}
		}
	}
}

// TestDeterminismMatrix is the determinism contract's enforcement: every
// plan family, run at parallelism 1, 4, and 8 with the same seed, must
// produce a bit-identical Result — answers, rows, frames, and the full
// simulated cost meter.
func TestDeterminismMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	e := testEngine(t, "taipei")
	cases := []struct {
		family string
		query  string
	}{
		{"aggregate-sampling", `SELECT FCOUNT(*) FROM taipei WHERE class='car' ERROR WITHIN 0.1 AT CONFIDENCE 95%`},
		{"aggregate-exhaustive", `SELECT FCOUNT(*) FROM taipei WHERE class='bus'`},
		{"aggregate-aqp-fallback", `SELECT FCOUNT(*) FROM taipei WHERE class='bear' ERROR WITHIN 0.1`},
		{"distinct-tracking", `SELECT COUNT(DISTINCT trackid) FROM taipei WHERE class='bus' AND timestamp < 3000`},
		{"scrubbing-importance", `SELECT timestamp FROM taipei GROUP BY timestamp HAVING SUM(class='car') >= 3 LIMIT 5 GAP 30`},
		{"scrubbing-fallback", `SELECT timestamp FROM taipei GROUP BY timestamp HAVING SUM(class='bear') >= 1 AND timestamp < 4000 LIMIT 1`},
		{"selection-cascade", `SELECT * FROM taipei WHERE class = 'bus' AND redness(content) >= 17.5 AND area(mask) > 60000 GROUP BY trackid HAVING COUNT(*) > 15`},
		{"exhaustive", `SELECT * FROM taipei WHERE (class='car' OR class='bus') AND timestamp < 2500`},
		{"exhaustive-limit-gap", `SELECT * FROM taipei WHERE class='car' AND timestamp < 2500 LIMIT 5 GAP 100`},
		{"binary-cascade", `SELECT timestamp FROM taipei WHERE class = 'car' FNR WITHIN 0.02 FPR WITHIN 0.02`},
	}
	for _, tc := range cases {
		t.Run(tc.family, func(t *testing.T) {
			info, err := frameql.Analyze(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			// Warm the model/inference caches so every parallelism level
			// sees the same cached-cost accounting.
			if _, err := e.ExecuteParallel(info, 1); err != nil {
				t.Fatal(err)
			}
			base, err := e.ExecuteParallel(info, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{4, 8} {
				got, err := e.ExecuteParallel(info, par)
				if err != nil {
					t.Fatal(err)
				}
				resultsIdentical(t, fmt.Sprintf("%s: parallelism 1 vs %d", tc.family, par), base, got)
			}
		})
	}
}

// TestSelectionPlansDeterministicAcrossParallelism extends the matrix to
// explicit selection plans (naive and oracle baselines shard too).
func TestSelectionPlansDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	e := testEngine(t, "taipei")
	info, err := frameql.Analyze(`
		SELECT * FROM taipei
		WHERE class = 'bus' AND redness(content) >= 17.5
		GROUP BY trackid HAVING COUNT(*) > 10`)
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range []SelectionPlan{NaivePlan(), {NoScopeOracle: true}, AllFilters()} {
		if _, err := e.executeSelectionPlan(info, plan, 1); err != nil {
			t.Fatal(err)
		}
		base, err := e.executeSelectionPlan(info, plan, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{4, 8} {
			got, err := e.executeSelectionPlan(info, plan, par)
			if err != nil {
				t.Fatal(err)
			}
			resultsIdentical(t, fmt.Sprintf("plan %s: parallelism 1 vs %d", planName(plan), par), base, got)
		}
	}
}
