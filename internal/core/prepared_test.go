package core

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/frameql"
	"repro/internal/plan"
	"repro/internal/specnn"
	"repro/internal/vidsim"
)

// preparedOpts is a small indexed engine configuration for the prepared-
// store tests.
func preparedOpts(dir string, specSeed int64) Options {
	return Options{
		Scale:         0.01,
		Seed:          1,
		Spec:          specnn.Options{TrainFrames: 9000, Epochs: 1, Seed: specSeed},
		HeldOutSample: 4000,
		IndexDir:      dir,
	}
}

// preparedCases pairs one query per family that has prepared state with
// the physical plans to force on it.
var preparedCases = []struct {
	query string
	plans []string
}{
	{`SELECT FCOUNT(*) FROM taipei WHERE class='car' ERROR WITHIN 0.1 AT CONFIDENCE 95%`,
		[]string{"control-variates", "naive-aqp", "naive-exhaustive"}},
	{`SELECT timestamp FROM taipei GROUP BY timestamp HAVING SUM(class='car') >= 2 LIMIT 5 GAP 30`,
		[]string{"scrub-importance", "scrub-sequential"}},
	{`SELECT timestamp FROM taipei WHERE timestamp >= 300 AND timestamp < 9000 GROUP BY timestamp HAVING SUM(class='car') >= 2 LIMIT 5 GAP 30`,
		[]string{"scrub-importance"}},
	{`SELECT * FROM taipei WHERE class = 'bus' AND redness(content) >= 17.5 GROUP BY trackid HAVING COUNT(*) > 15`,
		[]string{"selection-all-filters", "selection-label-first", "selection-naive"}},
	{`SELECT timestamp FROM taipei WHERE class = 'car' FNR WITHIN 0.02 FPR WITHIN 0.02 LIMIT 10 GAP 20`,
		[]string{"binary-cascade", "binary-exact", "density-limit"}},
}

// hinted rewrites a query to force a plan by hint.
func hinted(q, planName string) string {
	return strings.Replace(q, "SELECT", "SELECT /*+ PLAN("+planName+") */", 1)
}

// stripPrepared clears EXPLAIN's store provenance so reports taken at
// different store states compare equal everywhere else.
func stripPrepared(rep *plan.Report) *plan.Report {
	cp := *rep
	cp.Candidates = append([]plan.Candidate(nil), rep.Candidates...)
	for i := range cp.Candidates {
		cp.Candidates[i].Prepared = ""
	}
	return &cp
}

func preparedMarks(rep *plan.Report) map[string]bool {
	marks := map[string]bool{}
	for _, c := range rep.Candidates {
		if c.Feasible {
			marks[c.Prepared] = true
		}
	}
	return marks
}

// TestPreparedStoreAnswerNeutral pins the store's contract: whether a
// shape's products are computed now (cold store), served from memory
// (warm), or decoded from the persisted summaries blob (a reopened
// engine), every candidate table — estimates and pick — and every
// execution's Result with its full cost meter are bit-identical, at
// parallelism 1, 4 and 8, for forced plans and across suspend/resume.
func TestPreparedStoreAnswerNeutral(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	dir := t.TempDir()
	a, err := NewEngine("taipei", preparedOpts(dir, 7))
	if err != nil {
		t.Fatal(err)
	}
	// Materialize the index first, charged to no query, so no execution
	// below differs by a first-caller charge.
	for _, c := range []vidsim.Class{vidsim.Car, vidsim.Bus} {
		if err := a.BuildIndex([]vidsim.Class{c}); err != nil {
			t.Fatal(err)
		}
	}

	// Candidate tables: cold, then warm, before anything executes (so the
	// calibration store is empty throughout).
	coldReps := make([]*plan.Report, len(preparedCases))
	for i, tc := range preparedCases {
		info, err := frameql.Analyze(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := a.ExplainPlan(info, 0)
		if err != nil {
			t.Fatal(err)
		}
		if i != 2 && !preparedMarks(cold)["miss"] { // case 2 shares case 1's shape
			t.Errorf("%s: first EXPLAIN of a shape reports no miss: %v", tc.query, preparedMarks(cold))
		}
		warm, err := a.ExplainPlan(info, 0)
		if err != nil {
			t.Fatal(err)
		}
		if m := preparedMarks(warm); !m["hit"] || m["miss"] {
			t.Errorf("%s: repeated EXPLAIN marks %v, want hit only", tc.query, m)
		}
		if !reflect.DeepEqual(stripPrepared(cold), stripPrepared(warm)) {
			t.Errorf("%s: candidate table differs between a cold and a warm store:\n%+v\n%+v", tc.query, cold, warm)
		}
		coldReps[i] = cold
	}
	if err := a.FlushIndex(); err != nil {
		t.Fatal(err)
	}
	b, err := NewEngine("taipei", preparedOpts(dir, 7))
	if err != nil {
		t.Fatal(err)
	}
	for i, tc := range preparedCases {
		info, _ := frameql.Analyze(tc.query)
		disk, err := b.ExplainPlan(info, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Importance rankings are not persisted (they re-derive from the
		// persisted segment), so a reopened engine's first enumeration of a
		// scrubbing shape — case 1 — ranks again and says so.
		want := "hit"
		if i == 1 {
			want = "miss"
		}
		if m := preparedMarks(disk); len(m) != 1 || !m[want] {
			t.Errorf("%s: EXPLAIN on a reopened engine marks %v, want %s only", tc.query, m, want)
		}
		if !reflect.DeepEqual(stripPrepared(coldReps[i]), stripPrepared(disk)) {
			t.Errorf("%s: candidate table differs after a reload from disk:\n%+v\n%+v", tc.query, coldReps[i], disk)
		}
	}
	var loads uint64
	for _, st := range b.Accounting().Prepared {
		loads += st.DiskLoads
	}
	if loads == 0 {
		t.Error("reopened engine served no prepared entry from disk")
	}

	// Executions: reference on a cold store at parallelism 1, then warm and
	// disk-loaded stores at every parallelism, one-shot and resumed.
	for _, tc := range preparedCases {
		for _, name := range tc.plans {
			info, err := frameql.Analyze(hinted(tc.query, name))
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s on %s", name, tc.query)
			a.planner.prep = newPrepStore()
			ref, err := a.ExecuteParallel(info, 1)
			if err != nil {
				t.Fatalf("%s: cold: %v", label, err)
			}
			if ref.PlanReport.Chosen != name {
				t.Fatalf("%s: ran %q", label, ref.PlanReport.Chosen)
			}
			for _, par := range []int{1, 4, 8} {
				for stage, e := range map[string]*Engine{"warm": a, "disk": b} {
					res, err := e.ExecuteParallel(info, par)
					if err != nil {
						t.Fatalf("%s: %s p%d: %v", label, stage, par, err)
					}
					resultsIdentical(t, fmt.Sprintf("%s: cold vs %s p%d", label, stage, par), ref, res)
					resumed, _ := runResumed(t, e, info, par, 10)
					resultsIdentical(t, fmt.Sprintf("%s: cold vs %s p%d resumed", label, stage, par), ref, resumed)
				}
			}
		}
	}
}

// TestPreparedStoreTrainsOnce races goroutines onto one cold shape: the
// shape's products are computed by exactly one of them (run under -race).
func TestPreparedStoreTrainsOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	info, err := frameql.Analyze(preparedCases[3].query)
	if err != nil {
		t.Fatal(err)
	}
	misses := func(racers int) uint64 {
		e, err := NewEngine("taipei", preparedOpts("", 7))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < racers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := e.ExplainPlan(info, 0); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		return e.Accounting().Prepared["selection"].Misses
	}
	alone, raced := misses(1), misses(8)
	if alone == 0 || raced != alone {
		t.Fatalf("8 racing enumerations computed %d products, one alone computes %d", raced, alone)
	}
}

// TestPreparedStoreBounded feeds the store 10 000 distinct thresholds —
// ad-hoc traffic whose shapes never recur: it never holds more than its
// constant cap, and the most recent shapes are the ones resident.
func TestPreparedStoreBounded(t *testing.T) {
	e := &Engine{planner: newPlannerState(), exec: &execCounters{}}
	u := &prepUse{family: "binary-detection"}
	key := func(i int) string { return e.shapeKey("binary", nil, vidsim.Car, float64(i)/1e5, 0.02) }
	for i := 0; i < 10000; i++ {
		if _, err := prepared(e, u, key(i), func() (*binaryBand, error) { return &binaryBand{LowT: float64(i)}, nil }); err != nil {
			t.Fatal(err)
		}
		if n := e.Accounting().PreparedEntries; n > prepCap {
			t.Fatalf("store holds %d entries after %d shapes, cap %d", n, i+1, prepCap)
		}
	}
	st := e.Accounting()
	if st.PreparedEntries != prepCap || st.Prepared["binary-detection"].Misses != 10000 {
		t.Fatalf("after 10000 shapes: %d entries, stats %+v", st.PreparedEntries, st.Prepared)
	}
	th, err := prepared(e, u, key(9999), func() (*binaryBand, error) { return nil, fmt.Errorf("recomputed a resident shape") })
	if err != nil || th.LowT != 9999 {
		t.Fatalf("most recent shape not resident: %v %v", th, err)
	}
	if _, err := prepared(e, u, key(0), func() (*binaryBand, error) { return nil, fmt.Errorf("evicted") }); err == nil {
		t.Fatal("oldest shape still resident past the cap")
	}
	if n := e.Accounting().PreparedEntries; n > prepCap {
		t.Fatalf("a failed fill left %d entries", n)
	}
}

// TestPreparedStoreMissesAfterModelImport pins invalidation by key: products
// derived from a model that has since been replaced by an import are never
// served again, from memory or from disk — the query answers exactly as on
// an engine with the same history and an empty store.
func TestPreparedStoreMissesAfterModelImport(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	other, err := NewEngine("taipei", preparedOpts("", 8))
	if err != nil {
		t.Fatal(err)
	}
	classes := []vidsim.Class{vidsim.Bus}
	imported, err := other.ExportModel(classes)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{preparedCases[3].query,
		`SELECT timestamp FROM taipei WHERE class = 'bus' FNR WITHIN 0.02 FPR WITHIN 0.02`,
		`SELECT timestamp FROM taipei GROUP BY timestamp HAVING SUM(class='bus') >= 1 LIMIT 5 GAP 30`}

	// history replays the session on an engine: every query under the
	// trained model, then the import. reset empties the store after it.
	history := func(dir string) *Engine {
		e, err := NewEngine("taipei", preparedOpts(dir, 7))
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			if _, err := e.Query(q); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	dir := t.TempDir()
	mem, ref, onDisk := history(""), history(""), history(dir)
	if err := onDisk.FlushIndex(); err != nil {
		t.Fatal(err)
	}
	reopened, err := NewEngine("taipei", preparedOpts(dir, 7))
	if err != nil {
		t.Fatal(err)
	}
	// The reopened engine needs the same segments the others built before
	// the import; it loads them from disk.
	if err := reopened.BuildIndex(classes); err != nil {
		t.Fatal(err)
	}
	ref.planner.prep = newPrepStore()
	for _, e := range []*Engine{mem, ref, reopened} {
		if err := e.ImportModel(classes, imported); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range queries {
		info, err := frameql.Analyze(q)
		if err != nil {
			t.Fatal(err)
		}
		for name, e := range map[string]*Engine{"in memory": mem, "from disk": reopened} {
			rep, err := e.ExplainPlan(info, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !preparedMarks(rep)["miss"] {
				t.Errorf("%s, %s: a shape trained under the replaced model was served: %v", q, name, preparedMarks(rep))
			}
		}
		want, err := ref.ExecuteParallel(info, 1)
		if err != nil {
			t.Fatal(err)
		}
		for name, e := range map[string]*Engine{"in memory": mem, "from disk": reopened} {
			got, err := e.ExecuteParallel(info, 1)
			if err != nil {
				t.Fatal(err)
			}
			// The reopened engine loaded its models and segments, the others
			// trained them: only the answer and the scan's own charges compare.
			got.Stats.TrainSeconds, got.Stats.SpecNNSeconds = want.Stats.TrainSeconds, want.Stats.SpecNNSeconds
			if got.Stats.Plan != want.Stats.Plan {
				t.Errorf("%s, %s: ran %s, empty store runs %s", q, name, got.Stats.Plan, want.Stats.Plan)
				continue
			}
			answersIdentical(t, fmt.Sprintf("%s, stale store %s vs empty store", q, name), want, got)
		}
	}
}
