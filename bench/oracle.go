package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/frameql"
)

// The oracle runs off the clock, on reply bodies kept during the timed
// phase. Every answer must equal a direct single-worker execution of the
// same physical plan bit for bit — value, frames, track ids, row count, and
// the simulated cost of the scan (detector calls and seconds, filter
// seconds). Training and specialized-network seconds are left out: the
// engine charges them to whichever query first needs a model, so they depend
// on what ran before. An approximate aggregate must also keep its stated
// error bound against the exhaustive answer, at its stated confidence.

// wireReply is the part of a /query reply (or a /poll reply's result) the
// oracle compares.
type wireReply struct {
	Kind      string            `json:"kind"`
	Plan      string            `json:"plan"`
	Cached    bool              `json:"cached"`
	Value     *float64          `json:"value"`
	Frames    []int             `json:"frames"`
	Rows      []json.RawMessage `json:"rows"`
	TrackIDs  []int             `json:"track_ids"`
	Truncated bool              `json:"truncated"`
	Stats     struct {
		DetectorCalls   int     `json:"detector_calls"`
		DetectorSeconds float64 `json:"detector_seconds"`
		FilterSeconds   float64 `json:"filter_seconds"`
		TotalSeconds    float64 `json:"total_seconds"`
	} `json:"stats"`
	Horizon int `json:"horizon"`
}

// wirePoll is a /subscribe or /poll reply.
type wirePoll struct {
	ID      string    `json:"id"`
	Horizon int       `json:"horizon"`
	Updated bool      `json:"updated"`
	Result  wireReply `json:"result"`
}

// serverMaxRows is the row cap a default-configured server applies.
const serverMaxRows = 1000

// diffAnswer lists how a wire reply's answer differs from a direct result.
func diffAnswer(w *wireReply, res *core.Result) []string {
	var d []string
	if w.Kind != res.Kind {
		d = append(d, fmt.Sprintf("kind %q != %q", w.Kind, res.Kind))
	}
	if w.Value != nil && math.Float64bits(*w.Value) != math.Float64bits(res.Value) {
		d = append(d, fmt.Sprintf("value %v != %v", *w.Value, res.Value))
	}
	if !slices.Equal(w.Frames, res.Frames) {
		d = append(d, fmt.Sprintf("frames differ (%d vs %d)", len(w.Frames), len(res.Frames)))
	}
	if !slices.Equal(w.TrackIDs, res.TrackIDs) {
		d = append(d, fmt.Sprintf("track ids differ (%d vs %d)", len(w.TrackIDs), len(res.TrackIDs)))
	}
	if want := min(len(res.Rows), serverMaxRows); len(w.Rows) != want {
		d = append(d, fmt.Sprintf("rows %d != %d", len(w.Rows), want))
	}
	return d
}

// diffResult adds the scan's simulated cost to diffAnswer; a reply served
// from the cache must report none.
func diffResult(w *wireReply, res *core.Result) []string {
	d := diffAnswer(w, res)
	want := res.Stats
	if w.Cached {
		want = core.Stats{}
	}
	if w.Stats.DetectorCalls != want.DetectorCalls ||
		math.Float64bits(w.Stats.DetectorSeconds) != math.Float64bits(want.DetectorSeconds) ||
		math.Float64bits(w.Stats.FilterSeconds) != math.Float64bits(want.FilterSeconds) {
		d = append(d, fmt.Sprintf("cost (calls %d, detector %v s, filter %v s) != (%d, %v, %v)",
			w.Stats.DetectorCalls, w.Stats.DetectorSeconds, w.Stats.FilterSeconds,
			want.DetectorCalls, want.DetectorSeconds, want.FilterSeconds))
	}
	return d
}

// aggregateCheck is one approximate aggregate's distance from the truth.
type aggregateCheck struct {
	within bool
	conf   float64
}

// allowedOutside is how many of n answers may fall outside their error
// bound before the stated confidence is refuted: the expected number plus
// two binomial standard deviations, and never less than one.
func allowedOutside(n int, conf float64) int {
	p := 1 - conf
	return int(math.Ceil(float64(n)*p+2*math.Sqrt(float64(n)*p*(1-p)))) + 1
}

// directResults memoizes direct executions by query text: the dashboard
// asks the same 21 texts over and over.
type directResults struct {
	eng  *core.Engine
	byQ  map[string]*core.Result
	aggs []aggregateCheck
}

// get executes text directly with the physical plan the server chose:
// calibration may have moved the planner's pick since the reply was made.
func (dr *directResults) get(text, plan string) (*core.Result, error) {
	if res, ok := dr.byQ[text]; ok {
		return res, nil
	}
	info, err := frameql.Analyze(text)
	if err != nil {
		return nil, err
	}
	pe, _ := dr.eng.Pin()
	res, err := pe.ExecuteForced(info, 1, plan)
	if err != nil {
		return nil, err
	}
	dr.byQ[text] = res
	if info.Kind == frameql.KindAggregate && info.ErrorWithin != nil {
		truth, err := pe.ExecuteForced(info, 1, "naive-exhaustive")
		if err != nil {
			return nil, fmt.Errorf("naive-exhaustive: %w", err)
		}
		dr.aggs = append(dr.aggs, aggregateCheck{
			within: math.Abs(res.Value-truth.Value) <= *info.ErrorWithin,
			conf:   info.Confidence,
		})
	}
	return res, nil
}

// checkQueryReplies compares kept /query replies with direct executions on
// the engine that served them.
func checkQueryReplies(rep *report, eng *core.Engine, sets ...[]reply) {
	dr := &directResults{eng: eng, byQ: make(map[string]*core.Result)}
	checked := 0
	for _, kept := range sets {
		for _, k := range kept {
			var w wireReply
			if err := json.Unmarshal(k.Body, &w); err != nil {
				rep.problem("oracle: %s reply is not JSON: %v", k.Family, err)
				continue
			}
			res, err := dr.get(k.Query, w.Plan)
			if err != nil {
				rep.problem("oracle: direct %s failed: %v", k.Family, err)
				continue
			}
			for _, d := range diffResult(&w, res) {
				rep.problem("oracle: %s (cycle %d) %s: %s", k.Family, k.Cycle, d, k.Query)
			}
			checked++
		}
	}
	outside, conf := 0, 0.95
	for _, a := range dr.aggs {
		if !a.within {
			outside++
		}
		conf = a.conf
	}
	if n := len(dr.aggs); outside > allowedOutside(n, conf) {
		rep.problem("oracle: %d of %d approximate aggregates missed their error bound (confidence %.2f allows %d)",
			outside, n, conf, allowedOutside(n, conf))
	}
	rep.Extra = append(rep.Extra, fmt.Sprintf("oracle: %d replies equal direct executions; %d of %d approximate aggregates within bound",
		checked, len(dr.aggs)-outside, len(dr.aggs)))
}
