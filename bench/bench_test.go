package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
)

// adhocTexts lists the texts of the first n adhoc_miss cycles in cycle order.
func adhocTexts(g *gen, n int) (texts []string, fams [][]int) {
	for i := 0; i < n; i++ {
		order := g.order(i)
		fams = append(fams, order)
		for _, f := range order {
			texts = append(texts, g.query(families[f], fullSizes.warmPerFam+i, false))
		}
	}
	return texts, fams
}

func TestGeneratorIsSeededDistinctBalancedAndDisjoint(t *testing.T) {
	const cycles, reads, day = 300, 5000, 23760
	a, famsA := adhocTexts(newGen(1, taipei, day), cycles)
	again, _ := adhocTexts(newGen(1, taipei, day), cycles)
	if strings.Join(a, "\n") != strings.Join(again, "\n") {
		t.Fatal("same seed gave a different request list")
	}
	seen := make(map[string]bool)
	for _, q := range a {
		if seen[q] {
			t.Fatalf("adhoc_miss text repeats within a seed: %s", q)
		}
		seen[q] = true
	}
	for i, order := range famsA {
		var count [7]int
		for _, f := range order {
			count[f]++
		}
		for f, n := range count {
			if n != 1 {
				t.Fatalf("cycle %d asks %s %d times", i, families[f], n)
			}
		}
	}
	b, _ := adhocTexts(newGen(2, taipei, day), cycles)
	for _, q := range b {
		if seen[q] {
			t.Fatalf("seeds 1 and 2 share a text: %s", q)
		}
	}

	g1, g2 := newGen(1, taipei, day), newGen(2, taipei, day)
	horizon := day * 3 / 10
	reads1 := make(map[string]bool)
	for k := 0; k < reads; k++ {
		q := g1.fcount(k, fullSizes.readWindow, horizon)
		if reads1[q] {
			t.Fatalf("client B text repeats within a seed at k=%d: %s", k, q)
		}
		reads1[q] = true
	}
	for k := 0; k < reads; k++ {
		if q := g2.fcount(k, fullSizes.readWindow, horizon); reads1[q] {
			t.Fatalf("client B seeds 1 and 2 share a text: %s", q)
		}
	}
}

func TestPickTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n   int
		pct float64
	}{{5, 50}, {19, 50}, {40, 75}, {100, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // descending: the picker must sort
		}
		pct, v, n := pickTail(xs)
		if pct != c.pct || n != c.n {
			t.Errorf("n=%d: picked p%g over n=%d, want p%g over n=%d", c.n, pct, n, c.pct, c.n)
		}
		if want := float64(rank(c.n, c.pct/100)); v != want {
			t.Errorf("n=%d: p%g = %g, want %g", c.n, pct, v, want)
		}
	}
}

func TestSpreadMatchesPythonQuartiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := spread(xs); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("spread = %v, want 1", got)
	}
	// Two readings (-check): their distance as a share of their mean.
	if got := spread([]float64{90, 110}); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("spread of a pair = %v, want 0.2", got)
	}
}

func TestReplyScanners(t *testing.T) {
	body := []byte(`{"id":"sub-1","horizon":7384,"result":{"canonical":"x","stats":{"detector_calls":3,"total_seconds":12.5,"notes":["n"]},"plan_report":{"estimate_seconds":9}}}`)
	if got := simSeconds(body); got != 12.5 {
		t.Errorf("simSeconds = %v, want 12.5", got)
	}
	if got := replyHorizon(body); got != 7384 {
		t.Errorf("replyHorizon = %v, want 7384", got)
	}
	if simSeconds([]byte(`{}`)) != 0 || replyHorizon([]byte(`{}`)) != -1 {
		t.Error("scanners must report absence")
	}
}

// TestClosedLoopRunner drives timedCycles against a stub /query handler:
// two clients never have more than two requests in flight, every family is
// asked once per cycle, failures are counted, and the simulated cost and
// kept replies come from the configured cycle prefixes.
func TestClosedLoopRunner(t *testing.T) {
	var inFlight, maxInFlight, served atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			m := maxInFlight.Load()
			if n <= m || maxInFlight.CompareAndSwap(m, n) {
				break
			}
		}
		var req struct{ Query string }
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || r.URL.Path != "/query" {
			http.Error(w, "bad request", http.StatusBadRequest)
			return
		}
		served.Add(1)
		if strings.HasPrefix(req.Query, "fail") {
			http.Error(w, `{"error":{}}`, http.StatusInternalServerError)
			return
		}
		_, _ = w.Write([]byte(`{"cached":false,"stats":{"total_seconds":2.5}}`))
	}))
	defer ts.Close()

	rc := &runCtx{sz: sizes{simCycles: 3, keepCycles: 2}}
	td := timedCycles(rc, &instance{url: ts.URL}, 2, 0.2, func(i int) []cycleReq {
		reqs := make([]cycleReq, len(families))
		for f := range families {
			reqs[f] = cycleReq{fam: f, stream: taipei, text: "ok"}
		}
		if i == 5 {
			reqs[0].text = "fail"
		}
		return reqs
	})
	tl := td.t
	if got := maxInFlight.Load(); got > 2 {
		t.Errorf("%d requests in flight with 2 closed-loop clients", got)
	}
	if int64(tl.attempted) != served.Load() || tl.attempted%len(families) != 0 {
		t.Errorf("attempted %d, handler served %d", tl.attempted, served.Load())
	}
	cycles := tl.attempted / len(families)
	if cycles < 7 {
		t.Fatalf("only %d cycles in 0.2 s against a stub", cycles)
	}
	if tl.failed != 1 || len(tl.cycleMS) != cycles-1 {
		t.Errorf("failed %d, complete cycles %d of %d; want 1 failure and one incomplete cycle", tl.failed, len(tl.cycleMS), cycles)
	}
	if len(tl.famMS[0]) != cycles-1 || len(tl.famMS[1]) != cycles {
		t.Errorf("family samples %d and %d, want %d and %d", len(tl.famMS[0]), len(tl.famMS[1]), cycles-1, cycles)
	}
	if tl.simN != 3*len(families) || tl.simSum != 2.5*float64(tl.simN) {
		t.Errorf("sim over %d replies summing %v, want the first 3 cycles at 2.5 each", tl.simN, tl.simSum)
	}
	if len(tl.kept) != 2*len(families) {
		t.Errorf("kept %d replies, want the first 2 cycles", len(tl.kept))
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestResultLineMatchesBenchmarkJSON round-trips a report through its
// printed form and holds both it and the code's tables against
// BENCHMARK.json, so the file the driver reads cannot drift from what the
// command prints.
func TestResultLineMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, code {%s %s}", i, bf.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	for _, c := range []struct {
		what string
		file []metricDef
		code []metricDef
	}{{"end_to_end", bf.EndToEnd, endToEnd()}, {"per_layer", bf.PerLayer, perLayer()}} {
		if len(c.file) != len(c.code) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", c.what, len(c.file), len(c.code))
		}
		for i := range c.code {
			if c.file[i] != c.code[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", c.what, i, c.file[i], c.code[i])
			}
		}
	}
	if n := len(perLayer()); n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", n)
	}

	for _, defs := range [][]metricDef{endToEnd(), perLayer()} {
		rep := newReport("adhoc_miss")
		rep.Attempted = 10
		for i, d := range defs {
			rep.set(d.Name, 1.5+float64(i), 3)
		}
		rep.set("not.in.this.mode", 1, 0)
		rep.finish(defs)
		var out bytes.Buffer
		rep.print(&out)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
			t.Fatalf("result line keys: %v", line)
		}
		var back resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &back); err != nil {
			t.Fatal(err)
		}
		if !back.Correct || back.Attempted != 10 || len(back.Metrics) != len(defs) {
			t.Fatalf("round trip: %+v", back)
		}
		for i, d := range defs {
			if m := back.Metrics[d.Name]; m.Unit != d.Unit || m.Value != 1.5+float64(i) {
				t.Errorf("%s came back as %+v", d.Name, m)
			}
		}
	}

	missing := newReport("x")
	missing.finish(endToEnd())
	if missing.Correct {
		t.Error("a report with unmeasured metrics must not be correct")
	}
}
