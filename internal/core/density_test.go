package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/frameql"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/vidsim"
)

// densityCases is one hint-forced density-limit query per plan family the
// candidate is feasible for. The exhaustive case carries a redundant OR
// conjunct so the analyzer marks it Residual (routing it to the exhaustive
// enumerator) while still extracting a class for the density schedule.
// Every family except binary — whose cascade trains its own segment —
// needs a pre-built index segment: the selection prep only peeks at
// already-materialized ones.
var densityCases = []struct {
	family string
	query  string
	index  []vidsim.Class
}{
	{
		family: "selection-plain",
		query:  `SELECT /*+ PLAN(density-limit) */ * FROM taipei WHERE class = 'car' AND timestamp < 2500 LIMIT 5 GAP 100`,
		index:  []vidsim.Class{vidsim.Car},
	},
	{
		family: "selection-content",
		query:  `SELECT /*+ PLAN(density-limit) */ * FROM taipei WHERE class = 'bus' AND redness(content) >= 17.5 AND area(mask) > 60000 LIMIT 3 GAP 50`,
		index:  []vidsim.Class{vidsim.Bus},
	},
	{
		family: "binary",
		query:  `SELECT /*+ PLAN(density-limit) */ timestamp FROM taipei WHERE class = 'car' FNR WITHIN 0.05 FPR WITHIN 0.05 LIMIT 7 GAP 50`,
	},
	{
		family: "exhaustive-residual",
		query:  `SELECT /*+ PLAN(density-limit) */ * FROM taipei WHERE class = 'bus' AND (class = 'bus' OR class = 'car') AND timestamp < 16000 LIMIT 5 GAP 100`,
		index:  []vidsim.Class{vidsim.Bus},
	},
}

// densityResumeMidChunk runs a query suspending at a deliberately
// chunk-misaligned watermark, serializes the cursor through its wire form,
// and completes the resumed execution.
func densityResumeMidChunk(t *testing.T, e *Engine, info *frameql.Info, par, salt int) *Result {
	t.Helper()
	x, err := e.BeginQuery(info, par)
	if err != nil {
		t.Fatal(err)
	}
	total := x.Total()
	mark := total/2 + 1 + salt%(index.ChunkFrames-2)
	if mark >= total {
		mark = total/2 + 1
	}
	if mark < 1 {
		mark = 1
	}
	if mark%index.ChunkFrames == 0 {
		mark++
	}
	if err := x.RunTo(mark); err != nil {
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
	y, err := e.ResumeQuery(cur)
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
	return res
}

// TestDensityLimitForcedDeterminism pins the density-ordered executor's
// determinism contract per family: a hint-forced density-limit execution
// is bitwise identical — answers, rows, tracks, and the full simulated
// cost meter — at parallelism 1, 4, and 8, and across a suspension landing
// mid-chunk.
func TestDensityLimitForcedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	e := testEngine(t, "taipei")
	for _, tc := range densityCases {
		t.Run(tc.family, func(t *testing.T) {
			if len(tc.index) > 0 {
				if err := e.BuildIndex(tc.index); err != nil {
					t.Fatal(err)
				}
			}
			info, err := frameql.Analyze(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			// Warm training and held-out statistics so every compared
			// execution replays identical cached charges.
			if _, err := e.ExecuteParallel(info, 1); err != nil {
				t.Fatal(err)
			}
			ref, err := e.ExecuteParallel(info, 1)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Stats.Plan != densityPlanName {
				t.Fatalf("hint did not force the density plan: got %q", ref.Stats.Plan)
			}
			for _, par := range []int{4, 8} {
				got, err := e.ExecuteParallel(info, par)
				if err != nil {
					t.Fatal(err)
				}
				resultsIdentical(t, fmt.Sprintf("%s: par %d vs par 1", tc.family, par), ref, got)
			}
			for i, par := range []int{1, 4, 8} {
				resumed := densityResumeMidChunk(t, e, info, par, 137*i+31)
				resultsIdentical(t, fmt.Sprintf("%s: mid-chunk resume at par %d vs one-shot", tc.family, par), ref, resumed)
			}
		})
	}
}

// TestDensityLimitFuzzEquivalence is the density executor's randomized
// determinism oracle: for random predicates, thresholds, horizons off
// chunk boundaries, and LIMIT/GAP mixes across all three feasible
// families, the forced density plan must produce results bitwise
// identical, full cost meter included, across parallelism 1, 4, and 8 and
// across a mid-chunk suspend/resume.
func TestDensityLimitFuzzEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	e := testEngine(t, "taipei")
	for _, c := range []vidsim.Class{vidsim.Bus, vidsim.Car} {
		if err := e.BuildIndex([]vidsim.Class{c}); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(97))
	classes := []string{"car", "bus"}
	horizon := func() int {
		h := 1500 + rng.Intn(4000)
		if h%index.ChunkFrames == 0 {
			h++
		}
		return h
	}
	limit := func() int { return 1 + rng.Intn(8) }
	gap := func() int { return 20 + rng.Intn(120) }

	var queries []string
	for i := 0; i < 3; i++ {
		queries = append(queries, fmt.Sprintf(
			`SELECT /*+ PLAN(density-limit) */ timestamp FROM taipei WHERE class = '%s' AND timestamp < %d FNR WITHIN %.3f FPR WITHIN %.3f LIMIT %d GAP %d`,
			classes[rng.Intn(len(classes))], horizon(),
			0.01+0.04*rng.Float64(), 0.01+0.04*rng.Float64(), limit(), gap()))
	}
	for i := 0; i < 3; i++ {
		queries = append(queries, fmt.Sprintf(
			`SELECT /*+ PLAN(density-limit) */ * FROM taipei WHERE class = '%s' AND area(mask) > %d AND timestamp < %d LIMIT %d GAP %d`,
			classes[rng.Intn(len(classes))], 40000+rng.Intn(40000), horizon(), limit(), gap()))
	}
	for i := 0; i < 2; i++ {
		queries = append(queries, fmt.Sprintf(
			`SELECT /*+ PLAN(density-limit) */ * FROM taipei WHERE class = 'bus' AND (class = 'bus' OR class = '%s') AND timestamp < %d LIMIT %d GAP %d`,
			classes[rng.Intn(len(classes))], horizon(), limit(), gap()))
	}

	for qi, q := range queries {
		info, err := frameql.Analyze(q)
		if err != nil {
			t.Fatalf("query %d %q: %v", qi, q, err)
		}
		if _, err := e.ExecuteParallel(info, 1); err != nil {
			t.Fatalf("query %d %q: %v", qi, q, err)
		}
		ref, err := e.ExecuteParallel(info, 1)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Stats.Plan != densityPlanName {
			t.Fatalf("query %d %q: hint did not force the density plan: got %q", qi, q, ref.Stats.Plan)
		}
		for _, par := range []int{4, 8} {
			got, err := e.ExecuteParallel(info, par)
			if err != nil {
				t.Fatal(err)
			}
			resultsIdentical(t, fmt.Sprintf("query %d %q: par %d vs par 1", qi, q, par), ref, got)
		}
		resumed := densityResumeMidChunk(t, e, info, 1+rng.Intn(8), rng.Intn(1<<20))
		resultsIdentical(t, fmt.Sprintf("query %d %q: mid-chunk resume vs one-shot", qi, q), ref, resumed)
	}
}

// TestDensityScheduleSnapshotDeterministic pins that the visit schedule is
// a pure function of the pinned snapshot's zone maps: building it twice
// yields deeply equal schedules, the order is descending density with
// ascending chunk index as the tie-break, and with no conjunction the
// schedule partitions the scan range exactly.
func TestDensityScheduleSnapshotDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	e := testEngine(t, "taipei")
	if err := e.BuildIndex([]vidsim.Class{vidsim.Car}); err != nil {
		t.Fatal(err)
	}
	seg := e.idx.PeekSegment([]vidsim.Class{vidsim.Car}, e.Test)
	if seg == nil {
		t.Fatal("no materialized segment after BuildIndex")
	}
	head := seg.Model().HeadIndex(vidsim.Car)
	if head < 0 {
		t.Fatal("segment has no head for class car")
	}
	pin := seg.At(e.Test)
	heads := []int{head}

	a, ap, af := buildDensitySchedule(pin, heads, nil, 0, e.Test.Frames)
	b, bp, bf := buildDensitySchedule(pin, heads, nil, 0, e.Test.Frames)
	if !reflect.DeepEqual(a, b) || ap != bp || af != bf {
		t.Fatal("two schedule builds over the same pinned snapshot disagree")
	}
	if ap != 0 || af != 0 {
		t.Fatalf("schedule without a conjunction pruned %d chunks / %d frames", ap, af)
	}
	for i := 1; i < len(a); i++ {
		if a[i].density > a[i-1].density {
			t.Fatalf("schedule[%d] density %d exceeds schedule[%d] density %d", i, a[i].density, i-1, a[i-1].density)
		}
		if a[i].density == a[i-1].density && a[i].ci < a[i-1].ci {
			t.Fatalf("equal-density tie at schedule[%d] broke temporal order: chunk %d before %d", i, a[i-1].ci, a[i].ci)
		}
	}
	seen := make(map[int]bool, len(a))
	frames := 0
	for _, ent := range a {
		if seen[ent.ci] {
			t.Fatalf("chunk %d scheduled twice", ent.ci)
		}
		seen[ent.ci] = true
		if ent.fLo >= ent.fHi {
			t.Fatalf("chunk %d has empty frame range [%d,%d)", ent.ci, ent.fLo, ent.fHi)
		}
		frames += ent.fHi - ent.fLo
	}
	if frames != e.Test.Frames {
		t.Fatalf("schedule covers %d frames, scan range has %d", frames, e.Test.Frames)
	}

	// A conjunction prunes deterministically and soundly: pruned chunks
	// plus scheduled chunks partition the range, and every pruned chunk is
	// one the kernel refutes.
	conj := []index.Conjunct{{Head: head, N: 1, Threshold: 0.5}}
	c1, cp1, cf1 := buildDensitySchedule(pin, heads, conj, 0, e.Test.Frames)
	c2, cp2, cf2 := buildDensitySchedule(pin, heads, conj, 0, e.Test.Frames)
	if !reflect.DeepEqual(c1, c2) || cp1 != cp2 || cf1 != cf2 {
		t.Fatal("two conjunction-pruned schedule builds disagree")
	}
	if len(c1)+cp1 != len(a) {
		t.Fatalf("pruned schedule has %d chunks + %d pruned, full schedule has %d", len(c1), cp1, len(a))
	}
	for _, ent := range c1 {
		if pin.CanSkipConjunction(ent.ci, conj) {
			t.Fatalf("chunk %d is scheduled but the conjunction kernel refutes it", ent.ci)
		}
	}
}

// densityMatchesTemporal asserts a density execution settled exactly the
// temporal plan's answer: frames, rows, tracks, detector calls, the full
// simulated cost meter, and the skip accounting. Plan names and notes are
// exempt — they legitimately differ between the two physical plans.
func densityMatchesTemporal(t *testing.T, label string, den, tem *Result) {
	t.Helper()
	fail := func(format string, args ...interface{}) {
		t.Helper()
		t.Errorf("%s: %s", label, fmt.Sprintf(format, args...))
	}
	if !reflect.DeepEqual(den.Frames, tem.Frames) {
		fail("frames diverge: %d vs %d returned", len(den.Frames), len(tem.Frames))
	}
	if !reflect.DeepEqual(den.Rows, tem.Rows) {
		fail("rows diverge: %d vs %d returned", len(den.Rows), len(tem.Rows))
	}
	if !reflect.DeepEqual(den.TrackIDs, tem.TrackIDs) {
		fail("track ids diverge: %d vs %d returned", len(den.TrackIDs), len(tem.TrackIDs))
	}
	if den.Stats.DetectorCalls != tem.Stats.DetectorCalls {
		fail("DetectorCalls %d vs %d", den.Stats.DetectorCalls, tem.Stats.DetectorCalls)
	}
	for _, c := range []struct {
		name string
		x, y float64
	}{
		{"DetectorSeconds", den.Stats.DetectorSeconds, tem.Stats.DetectorSeconds},
		{"SpecNNSeconds", den.Stats.SpecNNSeconds, tem.Stats.SpecNNSeconds},
		{"FilterSeconds", den.Stats.FilterSeconds, tem.Stats.FilterSeconds},
		{"TrainSeconds", den.Stats.TrainSeconds, tem.Stats.TrainSeconds},
	} {
		if math.Float64bits(c.x) != math.Float64bits(c.y) {
			fail("%s %v vs %v (not bit-identical)", c.name, c.x, c.y)
		}
	}
	if den.Stats.IndexChunksSkipped != tem.Stats.IndexChunksSkipped {
		fail("IndexChunksSkipped %d vs %d", den.Stats.IndexChunksSkipped, tem.Stats.IndexChunksSkipped)
	}
	if den.Stats.IndexFramesSkipped != tem.Stats.IndexFramesSkipped {
		fail("IndexFramesSkipped %d vs %d", den.Stats.IndexFramesSkipped, tem.Stats.IndexFramesSkipped)
	}
	if den.Stats.ConjunctionChunksSkipped != tem.Stats.ConjunctionChunksSkipped {
		fail("ConjunctionChunksSkipped %d vs %d", den.Stats.ConjunctionChunksSkipped, tem.Stats.ConjunctionChunksSkipped)
	}
}

// TestDensityLimitExhaustionMatchesTemporal pins the exhaustion
// invariant: when the LIMIT is never satisfied the density order visits
// its whole schedule, and the settled answer — and for the binary cascade
// the full cost meter, since the conjunction kernel refutes exactly the
// chunks the temporal zone consult skips — matches the temporal plan.
func TestDensityLimitExhaustionMatchesTemporal(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	e := testEngine(t, "taipei")

	binQ := `SELECT timestamp FROM taipei WHERE class = 'bus' FNR WITHIN 0.05 FPR WITHIN 0.05 LIMIT 50000 GAP 50`
	binInfo, err := frameql.Analyze(binQ)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecuteParallel(binInfo, 1); err != nil {
		t.Fatal(err)
	}
	binTem, err := e.ExecuteForced(binInfo, 1, "binary-cascade")
	if err != nil {
		t.Fatal(err)
	}
	binDen, err := e.ExecuteForced(binInfo, 1, densityPlanName)
	if err != nil {
		t.Fatal(err)
	}
	if binDen.Stats.Plan != densityPlanName || binTem.Stats.Plan != "binary-cascade" {
		t.Fatalf("forced plans: %q and %q", binDen.Stats.Plan, binTem.Stats.Plan)
	}
	densityMatchesTemporal(t, "binary exhaustion", binDen, binTem)

	if err := e.BuildIndex([]vidsim.Class{vidsim.Bus}); err != nil {
		t.Fatal(err)
	}
	exQ := `SELECT * FROM taipei WHERE class = 'bus' AND (class = 'bus' OR class = 'car') AND timestamp < 9000 LIMIT 100000 GAP 25`
	exInfo, err := frameql.Analyze(exQ)
	if err != nil {
		t.Fatal(err)
	}
	exTem, err := e.ExecuteForced(exInfo, 1, "exhaustive")
	if err != nil {
		t.Fatal(err)
	}
	exDen, err := e.ExecuteForced(exInfo, 1, densityPlanName)
	if err != nil {
		t.Fatal(err)
	}
	if exDen.Stats.Plan != densityPlanName || exTem.Stats.Plan != "exhaustive" {
		t.Fatalf("forced plans: %q and %q", exDen.Stats.Plan, exTem.Stats.Plan)
	}
	densityMatchesTemporal(t, "exhaustive exhaustion", exDen, exTem)
}

// TestDensityLimitSparseTargetSkipsAhead is the tentpole's acceptance
// assertion: on a LIMIT query whose target is sparse at the start of the
// scan range (the taipei bus stream goes quiet for several chunks after
// frame 10240 and peaks later), the density-ordered plan settles K results
// while scanning strictly fewer frames and strictly fewer chunks than the
// temporal ramp, and records that it visited chunks out of temporal order.
func TestDensityLimitSparseTargetSkipsAhead(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	e := testEngine(t, "taipei")
	if err := e.BuildIndex([]vidsim.Class{vidsim.Bus}); err != nil {
		t.Fatal(err)
	}
	q := `SELECT * FROM taipei WHERE class = 'bus' AND (class = 'bus' OR class = 'car') AND timestamp >= 10240 LIMIT 20 GAP 10`
	info, err := frameql.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}

	s0 := e.Accounting()
	tem, err := e.ExecuteForced(info, 1, "exhaustive")
	if err != nil {
		t.Fatal(err)
	}
	s1 := e.Accounting()
	den, err := e.ExecuteForced(info, 1, densityPlanName)
	if err != nil {
		t.Fatal(err)
	}
	s2 := e.Accounting()

	if len(den.Rows) != 20 {
		t.Fatalf("density plan settled %d rows, want the full LIMIT 20", len(den.Rows))
	}
	// GAP separates distinct returned frames; several rows on one frame
	// are fine (same contract the temporal exhaustive plan honors).
	for i := 1; i < len(den.Rows); i++ {
		if den.Rows[i].Timestamp != den.Rows[i-1].Timestamp &&
			den.Rows[i].Timestamp-den.Rows[i-1].Timestamp < 10 {
			t.Fatalf("GAP violated: rows at %d then %d", den.Rows[i-1].Timestamp, den.Rows[i].Timestamp)
		}
	}
	temporalChunks := s1.Chunks - s0.Chunks
	densityChunks := s2.Chunks - s1.Chunks
	t.Logf("frames scanned: density %d vs temporal %d; chunks: density %d vs temporal %d; out-of-order %d",
		den.Stats.DetectorCalls, tem.Stats.DetectorCalls, densityChunks, temporalChunks, den.Stats.DensityChunksOutOfOrder)
	if den.Stats.DetectorCalls >= tem.Stats.DetectorCalls {
		t.Errorf("density plan scanned %d frames, temporal ramp %d — want strictly fewer",
			den.Stats.DetectorCalls, tem.Stats.DetectorCalls)
	}
	if densityChunks >= temporalChunks {
		t.Errorf("density plan visited %d chunks, temporal ramp %d — want strictly fewer", densityChunks, temporalChunks)
	}
	if den.Stats.DensityChunksOutOfOrder == 0 {
		t.Error("density plan reported no out-of-order chunk visits on a late-peaking target")
	}
}
