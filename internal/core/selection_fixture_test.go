package core

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"testing"

	"repro/internal/frameql"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/vidsim"
)

// This file pins the §8 selection cascade bit for bit against the commit
// before it became a stage list (8db8565, where pricing, evaluation, charge
// replay and skip eligibility each spelled the cascade order out). The
// fixture testdata/selection_pr23.json was recorded there by this test: a
// corpus covering every cascade shape (content only, label only, content
// then label, the forced label-first order, the filterless scan, the
// presence oracle, each Figure-11 factor and lesion plan, LIMIT/GAP, a
// duration predicate sampled at a temporal step, the density order), each
// with the test-day segment absent and present. A record holds the result's
// hashes, every meter bit, the notes and skip counters, and — for planned
// queries — every candidate's estimate and marginal bits. The file is
// frozen: a change to the cascade must keep reproducing it.
//
// Regenerate (only when an intentional semantic change lands) with:
//
//	BLAZEIT_CAPTURE_SELECTION=1 go test -run TestSelectionFixture ./internal/core/

const selectionFixturePath = "testdata/selection_pr23.json"

// selFixtureCase is one corpus entry: a planned query (the hint in its text
// forces the candidate) or, with plan set, an explicit filter plan.
type selFixtureCase struct {
	name  string
	query string
	plan  *SelectionPlan
	// threshold, when nonzero, replaces the trained label threshold: the
	// no-false-negative threshold refutes no chunk at this scale, a raised
	// one does, which is what exercises zone skipping and its counters.
	threshold float64
}

const (
	selFixtureRaised = 0.9
	selFixtureRedBus = `SELECT %s * FROM taipei WHERE class = 'bus' AND redness(content) >= 17.5 AND area(mask) > 60000 AND xmax(mask) <= 920 AND timestamp >= 700 AND timestamp < 9100 GROUP BY trackid HAVING COUNT(*) > 15`
	selFixtureLimit  = `SELECT %s * FROM taipei WHERE class = 'car' AND redness(content) >= 12 AND timestamp >= 300 AND timestamp < 7000 LIMIT 6 GAP 90`
)

func selFixtureCases() []selFixtureCase {
	hinted := func(format, planName string) string {
		hint := ""
		if planName != "" {
			hint = "/*+ PLAN(" + planName + ") */"
		}
		return fmt.Sprintf(format, hint)
	}
	cases := []selFixtureCase{
		{name: "content-then-label", query: hinted(selFixtureRedBus, "")},
		{name: "label-first", query: hinted(selFixtureRedBus, "selection-label-first")},
		{name: "naive", query: hinted(selFixtureRedBus, "selection-naive")},
		{name: "noscope-oracle", query: hinted(selFixtureRedBus, "selection-noscope-oracle")},
		{name: "label-only", query: `SELECT * FROM taipei WHERE class = 'bus' AND area(mask) > 60000 AND timestamp >= 1500 AND timestamp < 8000`},
		{name: "label-only-duration-step", query: `SELECT * FROM taipei WHERE class = 'car' AND area(mask) > 30000 AND timestamp < 6500 GROUP BY trackid HAVING COUNT(*) > 21`},
		{name: "content-only-no-model", query: `SELECT * FROM taipei WHERE class = 'bear' AND redness(content) >= 10 AND timestamp < 5000`},
		{name: "limit-gap", query: hinted(selFixtureLimit, "")},
		{name: "limit-gap-label-first", query: hinted(selFixtureLimit, "selection-label-first")},
		{name: "limit-gap-duration", query: `SELECT * FROM taipei WHERE class = 'bus' AND area(mask) > 40000 AND timestamp >= 200 GROUP BY trackid HAVING COUNT(*) > 11 LIMIT 4 GAP 50`},
		{name: "density-limit", query: hinted(selFixtureLimit, "density-limit")},
	}
	for _, lp := range []struct {
		name string
		plan SelectionPlan
	}{
		{"plan-spatial", SelectionPlan{UseSpatial: true}},
		{"plan-spatial-temporal", SelectionPlan{UseSpatial: true, UseTemporal: true}},
		{"plan-content-only", SelectionPlan{UseSpatial: true, UseTemporal: true, UseContent: true}},
		{"plan-all", AllFilters()},
		{"plan-no-spatial", SelectionPlan{UseTemporal: true, UseContent: true, UseLabel: true}},
		{"plan-no-temporal", SelectionPlan{UseSpatial: true, UseContent: true, UseLabel: true}},
		{"plan-no-content", SelectionPlan{UseSpatial: true, UseTemporal: true, UseLabel: true}},
		{"plan-label-first-no-temporal", SelectionPlan{UseSpatial: true, UseContent: true, UseLabel: true, LabelFirst: true}},
		{"plan-oracle-over-filters", SelectionPlan{UseContent: true, UseLabel: true, NoScopeOracle: true}},
	} {
		p := lp.plan
		cases = append(cases, selFixtureCase{name: lp.name, query: hinted(selFixtureRedBus, ""), plan: &p})
	}
	for _, lp := range []struct {
		name string
		plan SelectionPlan
	}{
		{"raised-threshold-label-only", SelectionPlan{UseSpatial: true, UseLabel: true}},
		{"raised-threshold-label-only-step", SelectionPlan{UseSpatial: true, UseTemporal: true, UseLabel: true}},
		{"raised-threshold-label-first", SelectionPlan{UseSpatial: true, UseContent: true, UseLabel: true, LabelFirst: true}},
		{"raised-threshold-content-then-label", SelectionPlan{UseSpatial: true, UseContent: true, UseLabel: true}},
	} {
		p := lp.plan
		cases = append(cases, selFixtureCase{name: lp.name, query: hinted(selFixtureRedBus, ""), plan: &p, threshold: selFixtureRaised})
	}
	return cases
}

// selResultPrint is one Result's bit-exact fingerprint.
type selResultPrint struct {
	Plan                     string   `json:"plan"`
	RowsLen                  int      `json:"rows_len"`
	RowsHash                 uint64   `json:"rows_hash"`
	TrackIDsLen              int      `json:"track_ids_len"`
	TrackIDsHash             uint64   `json:"track_ids_hash"`
	TruthIDsHash             uint64   `json:"truth_ids_hash"`
	DetectorCalls            int      `json:"detector_calls"`
	DetectorBits             uint64   `json:"detector_bits"`
	SpecNNBits               uint64   `json:"specnn_bits"`
	FilterBits               uint64   `json:"filter_bits"`
	TrainBits                uint64   `json:"train_bits"`
	Notes                    []string `json:"notes"`
	IndexChunksSkipped       int      `json:"index_chunks_skipped"`
	IndexFramesSkipped       int      `json:"index_frames_skipped"`
	ConjunctionChunksSkipped int      `json:"conjunction_chunks_skipped"`
	DensityChunksOutOfOrder  int      `json:"density_chunks_out_of_order"`
}

func printSelResult(res *Result) selResultPrint {
	rows, ids, truth := fnv.New64a(), fnv.New64a(), fnv.New64a()
	for _, r := range res.Rows {
		fmt.Fprintf(rows, "%d,%s,%d,%x,%x,%x,%x,%x,%x,%x,%x;", r.Timestamp, r.Class, r.TrackID,
			math.Float64bits(r.Mask.X), math.Float64bits(r.Mask.Y), math.Float64bits(r.Mask.W), math.Float64bits(r.Mask.H),
			math.Float64bits(r.Content.R), math.Float64bits(r.Content.G), math.Float64bits(r.Content.B),
			math.Float64bits(r.Confidence))
	}
	for _, id := range res.TrackIDs {
		fmt.Fprintf(ids, "%d,", id)
	}
	for _, id := range res.evalTruthIDs {
		fmt.Fprintf(truth, "%d,", id)
	}
	s := res.Stats
	return selResultPrint{
		Plan: s.Plan, RowsLen: len(res.Rows), RowsHash: rows.Sum64(),
		TrackIDsLen: len(res.TrackIDs), TrackIDsHash: ids.Sum64(), TruthIDsHash: truth.Sum64(),
		DetectorCalls: s.DetectorCalls, DetectorBits: math.Float64bits(s.DetectorSeconds),
		SpecNNBits: math.Float64bits(s.SpecNNSeconds), FilterBits: math.Float64bits(s.FilterSeconds),
		TrainBits: math.Float64bits(s.TrainSeconds), Notes: append([]string{}, s.Notes...),
		IndexChunksSkipped: s.IndexChunksSkipped, IndexFramesSkipped: s.IndexFramesSkipped,
		ConjunctionChunksSkipped: s.ConjunctionChunksSkipped, DensityChunksOutOfOrder: s.DensityChunksOutOfOrder,
	}
}

// selCandPrint is one enumerated candidate's pricing, bit for bit.
type selCandPrint struct {
	Name            string `json:"name"`
	Feasible        bool   `json:"feasible"`
	Reason          string `json:"reason,omitempty"`
	DetectorCalls   uint64 `json:"detector_calls_bits"`
	DetectorSeconds uint64 `json:"detector_seconds_bits"`
	SpecNNSeconds   uint64 `json:"specnn_seconds_bits"`
	FilterSeconds   uint64 `json:"filter_seconds_bits"`
	TrainSeconds    uint64 `json:"train_seconds_bits"`
	Marginal        uint64 `json:"marginal_bits"`
	RawMarginal     uint64 `json:"raw_marginal_bits"`
	Accuracy        uint64 `json:"accuracy_bits"`
	UpperBoundOnly  bool   `json:"upper_bound_only,omitempty"`
}

func printSelCandidates(e *Engine, info *frameql.Info) ([]selCandPrint, error) {
	rep, err := e.ExplainPlan(info, 1)
	if err != nil {
		return nil, err
	}
	out := make([]selCandPrint, len(rep.Candidates))
	for i, c := range rep.Candidates {
		out[i] = selCandPrint{
			Name: c.Name, Feasible: c.Feasible, Reason: c.Reason,
			DetectorCalls:   math.Float64bits(c.Estimate.DetectorCalls),
			DetectorSeconds: math.Float64bits(c.Estimate.DetectorSeconds),
			SpecNNSeconds:   math.Float64bits(c.Estimate.SpecNNSeconds),
			FilterSeconds:   math.Float64bits(c.Estimate.FilterSeconds),
			TrainSeconds:    math.Float64bits(c.Estimate.TrainSeconds),
			Marginal:        math.Float64bits(c.MarginalSeconds),
			RawMarginal:     math.Float64bits(c.RawMarginalSeconds),
			Accuracy:        math.Float64bits(c.Accuracy),
			UpperBoundOnly:  c.UpperBoundOnly,
		}
	}
	return out, nil
}

// selFixtureRecord is one (segment phase, case) entry of the fixture.
type selFixtureRecord struct {
	Phase string `json:"phase"`
	Name  string `json:"name"`
	Query string `json:"query"`
	// Error is the execution error (a forced candidate that cannot run).
	Error string `json:"error,omitempty"`
	// ColdCandidates is the candidate table before the case first ran on
	// this engine; Candidates after its preparation is warm.
	ColdCandidates []selCandPrint  `json:"cold_candidates,omitempty"`
	Candidates     []selCandPrint  `json:"candidates,omitempty"`
	Result         *selResultPrint `json:"result,omitempty"`
}

// openSelectionScan opens an explicit filter plan's scan, unrun, with the
// label threshold replaced when threshold is nonzero.
func openSelectionScan(e *Engine, info *frameql.Info, p SelectionPlan, threshold float64, par int) (*scanExec[*selArena], error) {
	prep, err := e.selectionPrep(info, p, &prepUse{family: info.Kind.String()})
	if err != nil {
		return nil, err
	}
	if threshold != 0 && prep.labelFilter != nil {
		// The trained filter belongs to the prepared store: replace, never
		// write through.
		lf := *prep.labelFilter
		lf.Threshold = threshold
		prep.labelFilter = &lf
	}
	return e.newSelectionExec(info, p, prep, par)
}

// midChunk picks a suspension watermark inside a chunk, past the scan's
// first shard edge when it is long enough.
func midChunk(total int) int {
	mark := total/2 + 37
	if mark%index.ChunkFrames == 0 {
		mark++
	}
	return mark
}

// runSelFixtureCase runs one case at the given parallelism; with resume set
// it suspends mid-chunk and completes from the wire form of the cursor.
func runSelFixtureCase(e *Engine, tc selFixtureCase, info *frameql.Info, par int, resume bool) (*Result, error) {
	if tc.plan != nil {
		x, err := openSelectionScan(e.pin(), info, *tc.plan, tc.threshold, par)
		if err != nil {
			return nil, err
		}
		if resume {
			if err := x.RunTo(midChunk(x.Total())); err != nil {
				return nil, err
			}
			state, err := x.Snapshot()
			if err != nil {
				return nil, err
			}
			if x, err = openSelectionScan(e.pin(), info, *tc.plan, tc.threshold, par); err != nil {
				return nil, err
			}
			if err := x.Restore(append([]byte(nil), state...)); err != nil {
				return nil, err
			}
		}
		if err := x.RunTo(-1); err != nil {
			return nil, err
		}
		return x.Result()
	}
	if !resume {
		return e.ExecuteParallel(info, par)
	}
	x, err := e.BeginQuery(info, par)
	if err != nil {
		return nil, err
	}
	if err := x.RunTo(midChunk(x.Total())); err != nil {
		return nil, err
	}
	cur, err := x.Suspend()
	if err != nil {
		return nil, err
	}
	wire, err := cur.Encode()
	if err != nil {
		return nil, err
	}
	if cur, err = plan.DecodeCursor(wire); err != nil {
		return nil, err
	}
	if x, err = e.ResumeQuery(cur); err != nil {
		return nil, err
	}
	if err := x.RunTo(-1); err != nil {
		return nil, err
	}
	return x.Result()
}

func TestSelectionFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	e, err := NewEngine("taipei", goldenOptions(""))
	if err != nil {
		t.Fatal(err)
	}
	var got []selFixtureRecord
	for _, phase := range []string{"segment-absent", "segment-present"} {
		if phase == "segment-present" {
			for _, c := range []vidsim.Class{"car", "bus"} {
				if err := e.BuildIndex([]vidsim.Class{c}); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, tc := range selFixtureCases() {
			label := phase + "/" + tc.name
			info, err := frameql.Analyze(tc.query)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			rec := selFixtureRecord{Phase: phase, Name: tc.name, Query: tc.query}
			if tc.plan == nil {
				rec.ColdCandidates, err = printSelCandidates(e, info)
			}
			if err == nil {
				// Warm the preparation so every run below replays the
				// same cached charges.
				_, err = runSelFixtureCase(e, tc, info, 1, false)
			}
			if err == nil && tc.plan == nil {
				rec.Candidates, err = printSelCandidates(e, info)
			}
			if err != nil {
				rec.Error = err.Error()
				got = append(got, rec)
				continue
			}
			for _, run := range []struct {
				label  string
				par    int
				resume bool
			}{{"p1", 1, false}, {"p4", 4, false}, {"p8", 8, false}, {"p4 mid-chunk resume", 4, true}} {
				res, err := runSelFixtureCase(e, tc, info, run.par, run.resume)
				if err != nil {
					t.Fatalf("%s %s: %v", label, run.label, err)
				}
				p := printSelResult(res)
				if rec.Result == nil {
					rec.Result = &p
				} else if !reflect.DeepEqual(*rec.Result, p) {
					t.Errorf("%s: %s differs from p1:\n got  %+v\n want %+v", label, run.label, p, *rec.Result)
				}
			}
			got = append(got, rec)
		}
	}

	if os.Getenv("BLAZEIT_CAPTURE_SELECTION") != "" {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(selectionFixturePath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("captured %d records to %s", len(got), selectionFixturePath)
		return
	}
	data, err := os.ReadFile(selectionFixturePath)
	if err != nil {
		t.Fatal(err)
	}
	var want []selFixtureRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("ran %d records, fixture holds %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			g, _ := json.Marshal(got[i])
			w, _ := json.Marshal(want[i])
			t.Errorf("%s/%s differs from the parent's record:\n got  %s\n want %s", want[i].Phase, want[i].Name, g, w)
		}
	}
}
