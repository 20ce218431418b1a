package core

import (
	"fmt"
	"math"
	"strconv"
	"testing"

	"repro/internal/frameql"
	"repro/internal/obs"
)

// These tests pin the tracing contract: a traced execution is bit-identical
// to an untraced one (answers and the full cost meter — tracing reads the
// meter, never charges it), and every plan family's span tree has the
// pinned shape with per-shard frame counts that reconcile against the
// scan's total.

// traceCases is one query per plan family, flagged with whether the
// family runs on the scan operator (and so must report per-shard child
// spans; scrubbing's shards are ranges of rank positions, adaptive
// sampling's are ranges of draws, the specialized rewrite's is its one
// unit).
var traceCases = []struct {
	family string
	query  string
	// shards: the plan scans frames through runScan, so its scan span
	// carries "shard" children whose Frames sum to the scan's Frames.
	shards bool
}{
	{family: "aggregate-sampling", query: `SELECT FCOUNT(*) FROM taipei WHERE class='car' ERROR WITHIN 0.1 AT CONFIDENCE 95%`, shards: true},
	{family: "aggregate-exhaustive", query: `SELECT FCOUNT(*) FROM taipei WHERE class='bus'`, shards: true},
	{family: "aggregate-rewrite", query: `SELECT FCOUNT(*) FROM taipei WHERE class='bus' ERROR WITHIN 0.2 AT CONFIDENCE 90%`, shards: true},
	{family: "distinct-tracking", query: `SELECT COUNT(DISTINCT trackid) FROM taipei WHERE class='bus' AND timestamp < 3000`, shards: true},
	{family: "scrubbing-importance", query: `SELECT timestamp FROM taipei GROUP BY timestamp HAVING SUM(class='car') >= 3 LIMIT 5 GAP 30`, shards: true},
	{family: "selection-cascade", query: `SELECT * FROM taipei WHERE class = 'bus' AND redness(content) >= 17.5 AND area(mask) > 60000 GROUP BY trackid HAVING COUNT(*) > 15`, shards: true},
	{family: "exhaustive", query: `SELECT * FROM taipei WHERE (class='car' OR class='bus') AND timestamp < 2500`, shards: true},
	{family: "binary-cascade", query: `SELECT timestamp FROM taipei WHERE class = 'car' FNR WITHIN 0.02 FPR WITHIN 0.02`, shards: true},
}

func childNamed(s *obs.Span, name string) *obs.Span {
	for _, c := range s.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

func childNames(s *obs.Span) []string {
	names := make([]string, len(s.Children))
	for i, c := range s.Children {
		names[i] = c.Name
	}
	return names
}

// checkScanShards verifies the acceptance-criterion reconciliation: the
// summed per-shard frame counts equal the scan span's total frames.
func checkScanShards(t *testing.T, label string, scan *obs.Span, wantShards bool) {
	t.Helper()
	var shardFrames, shardCount int
	for _, c := range scan.Children {
		if c.Name != "shard" {
			t.Errorf("%s: scan has unexpected child %q", label, c.Name)
			continue
		}
		shardCount++
		shardFrames += c.Frames
		if c.Attrs["range"] == "" || c.Attrs["shard"] == "" {
			t.Errorf("%s: shard span missing range/shard attrs: %v", label, c.Attrs)
		}
	}
	if !wantShards {
		if shardCount != 0 {
			t.Errorf("%s: non-scanning family reported %d shard spans", label, shardCount)
		}
		return
	}
	if shardCount == 0 {
		t.Fatalf("%s: scanning family reported no shard spans", label)
	}
	if shardFrames != scan.Frames {
		t.Errorf("%s: shard frames sum %d, scan span frames %d", label, shardFrames, scan.Frames)
	}
	if scan.Frames <= 0 {
		t.Errorf("%s: scan span consumed %d frames", label, scan.Frames)
	}
}

// TestTracedExecutionAnswerNeutral is the tracing tier's core guarantee:
// for every plan family, ExecuteParallelTraced returns a result
// bit-identical to ExecuteParallel's — value, rows, and the full
// simulated cost meter — while recording the pinned span tree
// (plan → prep → scan → finalize) with reconciling counters.
func TestTracedExecutionAnswerNeutral(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	e := testEngine(t, "taipei")
	for _, tc := range traceCases {
		t.Run(tc.family, func(t *testing.T) {
			info, err := frameql.Analyze(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			// Warm one-time preparation so traced and untraced runs
			// observe identical cached-cost accounting.
			if _, err := e.ExecuteParallel(info, 1); err != nil {
				t.Fatal(err)
			}
			base, err := e.ExecuteParallel(info, 4)
			if err != nil {
				t.Fatal(err)
			}
			tr := obs.NewTrace(tc.query)
			traced, err := e.ExecuteParallelTraced(info, 4, tr)
			if err != nil {
				t.Fatal(err)
			}
			tr.Finish()
			resultsIdentical(t, tc.family+": untraced vs traced", base, traced)

			root := tr.Root
			for _, name := range []string{"plan", "prep", "scan", "finalize"} {
				if childNamed(root, name) == nil {
					t.Fatalf("%s: span tree missing %q: children %v", tc.family, name, childNames(root))
				}
			}
			if got := childNames(root); got[0] != "plan" || got[1] != "prep" {
				t.Errorf("%s: span order %v, want plan, prep first", tc.family, got)
			}
			if fam := root.Attrs["family"]; fam == "" {
				t.Errorf("%s: root missing family attr", tc.family)
			}
			if root.Attrs["plan"] != traced.Stats.Plan {
				t.Errorf("%s: root plan attr %q, result plan %q", tc.family, root.Attrs["plan"], traced.Stats.Plan)
			}
			if root.Attrs["parallelism"] != "4" {
				t.Errorf("%s: parallelism attr %q", tc.family, root.Attrs["parallelism"])
			}

			// The root's actual cost attr must quote the result's meter
			// exactly — same float, same formatting.
			want := strconv.FormatFloat(traced.Stats.TotalSeconds(), 'g', -1, 64)
			if got := root.Attrs["actual_sim_seconds"]; got != want {
				t.Errorf("%s: actual_sim_seconds attr %q, want %q", tc.family, got, want)
			}

			// Per-stage charges must account for the whole meter: tracing
			// never charges and never loses a stage (sampling settles its
			// per-sample cost during finalize, not the scan).
			prep, scan := childNamed(root, "prep"), childNamed(root, "scan")
			fin := childNamed(root, "finalize")
			total := traced.Stats.TotalSeconds()
			sum := prep.SimSeconds + scan.SimSeconds + fin.SimSeconds
			if math.Abs(sum-total) > 1e-9*(1+math.Abs(total)) {
				t.Errorf("%s: prep %v + scan %v + finalize %v sim seconds != result total %v",
					tc.family, prep.SimSeconds, scan.SimSeconds, fin.SimSeconds, total)
			}
			checkScanShards(t, tc.family, scan, tc.shards)
		})
	}
}

// TestAdvanceTracedShapeAndNeutrality pins the standing-query trace: an
// AdvanceTraced over newly ingested frames returns the bit-identical
// result of an untraced Advance from the same cursor, and records
// ingest-catchup → resume → scan → finalize → suspend with the suffix's
// shard spans reconciling.
func TestAdvanceTracedShapeAndNeutrality(t *testing.T) {
	if testing.Short() {
		t.Skip("generates streams")
	}
	e, err := NewEngine("taipei", Options{Scale: 0.01, Seed: 1, LiveStart: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// A forced naive plan needs no training, keeping the live engine cheap.
	info, err := frameql.Analyze(`SELECT /*+ PLAN(naive-exhaustive) */ FCOUNT(*) FROM taipei WHERE class='car'`)
	if err != nil {
		t.Fatal(err)
	}
	x, err := e.BeginQuery(info, 2)
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
	added, err := e.AppendLive(e.DayFrames() / 4)
	if err != nil {
		t.Fatal(err)
	}
	if added == 0 {
		t.Fatal("AppendLive added no frames")
	}

	base, bcur, err := e.Advance(cur)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace(cur.Query)
	traced, ncur, err := e.AdvanceTraced(cur, tr)
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	resultsIdentical(t, "advance: untraced vs traced", base, traced)
	if ncur.Horizon != bcur.Horizon || ncur.Horizon != e.Horizon() {
		t.Fatalf("advanced horizons diverge: traced %d, untraced %d, engine %d",
			ncur.Horizon, bcur.Horizon, e.Horizon())
	}

	root := tr.Root
	if root.Attrs["standing"] != "true" {
		t.Error("advance root missing standing attr")
	}
	for _, name := range []string{"ingest-catchup", "resume", "scan", "finalize", "suspend"} {
		if childNamed(root, name) == nil {
			t.Fatalf("advance span tree missing %q: children %v", name, childNames(root))
		}
	}
	ing := childNamed(root, "ingest-catchup")
	if from, _ := strconv.Atoi(ing.Attrs["from_horizon"]); from != cur.Horizon {
		t.Errorf("ingest-catchup from_horizon %q, cursor horizon %d", ing.Attrs["from_horizon"], cur.Horizon)
	}
	scan := childNamed(root, "scan")
	checkScanShards(t, "advance", scan, true)
	// A naive scan plan pays exactly the ingested suffix on advance.
	if want := ncur.Horizon - cur.Horizon; scan.Frames != want {
		t.Errorf("advance scan consumed %d frames, want suffix %d", scan.Frames, want)
	}
	if tr.DurMS <= 0 {
		t.Errorf("finished trace has duration %v", tr.DurMS)
	}
}

// TestTracedNilDegradesToUntraced pins the nil contract end to end: a nil
// trace selects the plain execution path, and nil spans absorb every
// method call, so untraced code needs no branches.
func TestTracedNilDegradesToUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	e := testEngine(t, "taipei")
	info, err := frameql.Analyze(`SELECT FCOUNT(*) FROM taipei WHERE class='bus'`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecuteParallel(info, 1); err != nil {
		t.Fatal(err)
	}
	base, err := e.ExecuteParallel(info, 2)
	if err != nil {
		t.Fatal(err)
	}
	viaNil, err := e.ExecuteParallelTraced(info, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	resultsIdentical(t, "nil trace", base, viaNil)

	var sp *obs.Span
	sp.SetAttr("k", "v")
	sp.Fail(fmt.Errorf("ignored"))
	sp.End()
	if c := sp.Child("x"); c != nil {
		t.Errorf("nil span Child returned %v", c)
	}
}
