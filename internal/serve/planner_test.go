package serve

import (
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"testing"
)

// TestExplainReturnsCostedCandidates pins the planner acceptance
// criterion at the HTTP layer: /explain on an aggregate query returns the
// full candidate table — at least two costed candidates — without
// executing anything.
func TestExplainReturnsCostedCandidates(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	var ex explainResponse
	getJSON(t, ts.URL+"/explain?stream=taipei&q="+url.QueryEscape(aggQuery), &ex)
	if ex.Plan == nil {
		t.Fatal("explain returned no plan section")
	}
	if ex.Plan.Chosen == "" || ex.Plan.Family != "aggregate" {
		t.Fatalf("plan = %+v", ex.Plan)
	}
	costed := 0
	for _, c := range ex.Plan.Candidates {
		if c.Feasible && c.EstimateSeconds >= 0 {
			costed++
		}
	}
	if costed < 2 {
		t.Fatalf("explain returned %d costed candidates, want >= 2: %+v", costed, ex.Plan.Candidates)
	}
	// Nothing executed: planning is not a query.
	var st statzResponse
	getJSON(t, ts.URL+"/statz", &st)
	if st.Queries.Total != 0 {
		t.Fatalf("explain executed %d queries", st.Queries.Total)
	}
	if st.Planner.Planned != 0 {
		t.Fatalf("explain recorded %d planned executions", st.Planner.Planned)
	}
	_ = s
}

// TestExplainPlansAgainstFromStream: when no ?stream= is given, the
// query's FROM relation selects the planning engine; an unserved relation
// just omits the plan section.
func TestExplainPlansAgainstFromStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	var ex explainResponse
	getJSON(t, ts.URL+"/explain?q="+url.QueryEscape(aggQuery), &ex)
	if ex.Plan == nil {
		t.Fatal("FROM names a served stream; explain should plan against it")
	}
	var ex2 explainResponse
	getJSON(t, ts.URL+"/explain?q="+url.QueryEscape("SELECT FCOUNT(*) FROM nosuch WHERE class='car'"), &ex2)
	if ex2.Plan != nil {
		t.Fatal("unserved FROM relation should omit the plan section")
	}
}

// TestExplainRejectsMalformedParallelism pins the strict-parsing fix:
// garbage in ?parallelism= is a 400, not silently the default.
func TestExplainRejectsMalformedParallelism(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, err := http.Get(ts.URL + "/explain?q=" + url.QueryEscape(aggQuery) + "&parallelism=abc")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("parallelism=abc: HTTP %d, want 400", resp.StatusCode)
	}
	// Well-formed values still work (clamped to the server maximum).
	var ex explainResponse
	getJSON(t, ts.URL+"/explain?q="+url.QueryEscape(aggQuery)+"&parallelism=2", &ex)
	want := 2
	if max := runtime.GOMAXPROCS(0); want > max {
		want = max
	}
	if ex.Parallelism != want {
		t.Fatalf("parallelism = %d, want %d", ex.Parallelism, want)
	}
}

// TestQueryCarriesPlanReport: /query responses include the planner's
// candidate table, and cache hits reuse the original execution's report.
func TestQueryCarriesPlanReport(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	body := fmt.Sprintf(`{"stream":"taipei","query":%q}`, aggQuery)
	resp, qr := postQuery(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	if qr.PlanReport == nil || qr.PlanReport.Chosen != qr.Plan {
		t.Fatalf("plan report = %+v, plan = %q", qr.PlanReport, qr.Plan)
	}
	if len(qr.PlanReport.Candidates) < 2 {
		t.Fatalf("candidates = %+v", qr.PlanReport.Candidates)
	}
	resp, hit := postQuery(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK || !hit.Cached {
		t.Fatalf("expected cache hit, HTTP %d cached=%v", resp.StatusCode, hit.Cached)
	}
	if hit.PlanReport == nil || hit.PlanReport.Chosen != qr.PlanReport.Chosen {
		t.Fatalf("cached plan report = %+v", hit.PlanReport)
	}
}

// TestQueryHintForcesPlan: a /*+ PLAN(name) */ hint flows through the
// serving path, forces the named plan, and is part of the cache key.
func TestQueryHintForcesPlan(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	hinted := `SELECT /*+ PLAN(naive-exhaustive) */ FCOUNT(*) FROM taipei WHERE class = 'car' ERROR WITHIN 0.1 AT CONFIDENCE 95%`
	resp, qr := postQuery(t, ts.URL, fmt.Sprintf(`{"stream":"taipei","query":%q}`, hinted))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	if qr.Plan != "naive-exhaustive" || !qr.PlanReport.Forced {
		t.Fatalf("plan = %q forced = %v", qr.Plan, qr.PlanReport != nil && qr.PlanReport.Forced)
	}
	// The unhinted query must not be served from the hinted entry.
	_, plain := postQuery(t, ts.URL, fmt.Sprintf(`{"stream":"taipei","query":%q}`, aggQuery))
	if plain.Cached {
		t.Fatal("unhinted query served from hinted cache entry")
	}
	// Unknown plan names surface as client errors.
	bad := `SELECT /*+ PLAN(warp-drive) */ FCOUNT(*) FROM taipei WHERE class = 'car' ERROR WITHIN 0.1`
	resp, _ = postQuery(t, ts.URL, fmt.Sprintf(`{"stream":"taipei","query":%q}`, bad))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown hinted plan: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestStatzPlannerSection: /statz aggregates planner accounting across
// open engines.
func TestStatzPlannerSection(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	postQuery(t, ts.URL, fmt.Sprintf(`{"stream":"taipei","query":%q}`, aggQuery))
	var st statzResponse
	getJSON(t, ts.URL+"/statz", &st)
	if st.Planner.Planned != 1 {
		t.Fatalf("planner.planned = %d, want 1", st.Planner.Planned)
	}
	agg := st.Planner.Picks["aggregate"]
	if len(agg) == 0 {
		t.Fatalf("planner picks = %+v", st.Planner.Picks)
	}
	if st.Planner.MeanEstimateError < 0 {
		t.Fatalf("mean estimate error = %v", st.Planner.MeanEstimateError)
	}
}

// TestPreparedStoreIsObservable follows one query shape through the three
// places an operator can see the prepared-state store: /explain marks the
// first enumeration's candidates "miss" and a repeat "hit", /statz's
// planner section counts both per family, and /metrics exports the same
// counters; an exact scan then shows up as dense count chunks.
func TestPreparedStoreIsObservable(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	marks := func() map[string]bool {
		var ex explainResponse
		getJSON(t, ts.URL+"/explain?stream=taipei&q="+url.QueryEscape(aggQuery), &ex)
		if ex.Plan == nil {
			t.Fatal("explain returned no plan section")
		}
		m := map[string]bool{}
		for _, c := range ex.Plan.Candidates {
			if c.Feasible {
				m[c.Prepared] = true
			}
		}
		return m
	}
	if m := marks(); len(m) != 1 || !m["miss"] {
		t.Fatalf("first /explain of a shape marks %v, want miss", m)
	}
	if m := marks(); len(m) != 1 || !m["hit"] {
		t.Fatalf("second /explain of the shape marks %v, want hit", m)
	}
	var st statzResponse
	getJSON(t, ts.URL+"/statz", &st)
	agg := st.Planner.Prepared["aggregate"]
	if agg.Misses == 0 || agg.Hits < agg.Misses {
		t.Fatalf("statz planner.prepared[aggregate] = %+v after a miss and a hit enumeration", agg)
	}
	_, body := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		fmt.Sprintf(`blazeit_planner_prepared_total{family="aggregate",outcome="miss"} %d`, agg.Misses),
		fmt.Sprintf(`blazeit_planner_prepared_total{family="aggregate",outcome="hit"} %d`, agg.Hits),
		"blazeit_index_dense_chunks 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	if resp, _ := postQuery(t, ts.URL, `{"stream":"taipei","query":"SELECT FCOUNT(*) FROM taipei WHERE class = 'car'"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("exact scan: HTTP %d", resp.StatusCode)
	}
	getJSON(t, ts.URL+"/statz", &st)
	if st.Indexz.DenseChunks == 0 {
		t.Error("statz indexz.dense_chunks is 0 after an exact whole-day scan")
	}
}
