package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

const scanQuery = `SELECT FCOUNT(*) FROM taipei WHERE class = 'bus'`

func getBody(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

var promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)

// checkPromText validates Prometheus text exposition 0.0.4 line by line:
// every sample parses, belongs to a family announced by preceding HELP and
// TYPE lines, and histogram samples only use the _bucket/_sum/_count
// suffixes of a histogram family.
func checkPromText(t *testing.T, body string) {
	t.Helper()
	types := map[string]string{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			if name, _, found := strings.Cut(rest, " "); !found || name == "" {
				t.Errorf("malformed HELP line %q", line)
			}
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			if kind != "counter" && kind != "gauge" && kind != "histogram" {
				t.Errorf("unknown TYPE in %q", line)
			}
			types[name] = kind
			continue
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("unparsable sample line %q", line)
			continue
		}
		base := m[1]
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(m[1], suf); ok && types[b] == "histogram" {
				base = b
				break
			}
		}
		if _, ok := types[base]; !ok {
			t.Errorf("sample %q has no preceding TYPE", line)
		}
		if _, err := strconv.ParseFloat(m[3], 64); err != nil {
			t.Errorf("sample %q has unparsable value: %v", line, err)
		}
	}
	if len(types) == 0 {
		t.Error("exposition announced no metric families")
	}
}

// metricValue extracts one exact sample line's value from an exposition
// body, -1 if the series is absent.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %s: bad value %q", series, rest)
			}
			return v
		}
	}
	return -1
}

func TestMetricsExposition(t *testing.T) {
	if testing.Short() {
		t.Skip("generates streams")
	}
	_, ts := newTestServer(t, Config{Workers: 2})
	body := fmt.Sprintf(`{"stream":"taipei","query":%q}`, aggQuery)
	if resp, _ := postQuery(t, ts.URL, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("query: HTTP %d", resp.StatusCode)
	}
	// Same canonical query again: a cache hit, visible in the hit counter.
	if resp, qr := postQuery(t, ts.URL, body); resp.StatusCode != http.StatusOK || !qr.Cached {
		t.Fatalf("repeat query: HTTP %d cached=%v", resp.StatusCode, qr.Cached)
	}

	resp, text := getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "0.0.4") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	checkPromText(t, text)

	for series, want := range map[string]float64{
		`blazeit_queries_total{stream="taipei"}`:                                  2,
		`blazeit_query_cache_hits_total{stream="taipei"}`:                         1,
		`blazeit_http_requests_total{endpoint="/query",method="POST",code="200"}`: 2,
		`blazeit_http_request_seconds_count{endpoint="/query"}`:                   2,
		`blazeit_http_request_seconds_bucket{endpoint="/query",le="+Inf"}`:        2,
		`blazeit_pool_workers`:                           2,
		`blazeit_engines_open`:                           1,
		`blazeit_result_cache_entries`:                   1,
		`blazeit_result_cache_events_total{event="hit"}`: 1,
		`blazeit_query_parse_memo_hits_total`:            1,
	} {
		if got := metricValue(t, text, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
	if got := metricValue(t, text, "blazeit_cache_encoded_bytes"); got <= 0 {
		t.Errorf("blazeit_cache_encoded_bytes = %v after a hit, want the stored reply's size", got)
	}
	for _, series := range []string{"blazeit_uptime_seconds", "blazeit_sim_charged_seconds_total", "blazeit_planner_planned_total"} {
		if !strings.Contains(text, series) {
			t.Errorf("exposition missing %s", series)
		}
	}
}

func spanNamed(s *obs.Span, name string) *obs.Span {
	for _, c := range s.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

func TestQueryTraceInline(t *testing.T) {
	if testing.Short() {
		t.Skip("generates streams")
	}
	_, ts := newTestServer(t, Config{Workers: 2})
	body := fmt.Sprintf(`{"stream":"taipei","query":%q}`, scanQuery)

	resp, err := http.Post(ts.URL+"/query?trace=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced query: HTTP %d", resp.StatusCode)
	}
	var traced queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&traced); err != nil {
		t.Fatal(err)
	}
	if traced.TraceID == "" || resp.Header.Get("X-Trace-Id") != traced.TraceID {
		t.Fatalf("trace id %q, X-Trace-Id %q", traced.TraceID, resp.Header.Get("X-Trace-Id"))
	}
	if traced.Trace == nil || traced.Trace.ID != traced.TraceID || traced.Trace.Root == nil {
		t.Fatalf("inline trace missing or mismatched: %+v", traced.Trace)
	}

	root := traced.Trace.Root
	if root.Attrs["stream"] != "taipei" {
		t.Errorf("root stream attr = %q", root.Attrs["stream"])
	}
	for _, name := range []string{"queue", "plan", "prep", "scan", "finalize"} {
		if spanNamed(root, name) == nil {
			t.Fatalf("span tree missing %q: %+v", name, root.Children)
		}
	}
	// Acceptance: the per-shard spans sum to the scan's total frames, and
	// every consumed shard merged at least one chunk-aligned batch.
	scan := spanNamed(root, "scan")
	var shardFrames, shards, shardChunks int
	for _, c := range scan.Children {
		if c.Name == "shard" {
			shards++
			shardFrames += c.Frames
			shardChunks += c.Chunks
		}
	}
	if shards == 0 || shardFrames != scan.Frames || scan.Frames <= 0 {
		t.Errorf("shard reconciliation: %d shards, %d shard frames, scan frames %d",
			shards, shardFrames, scan.Frames)
	}
	if shardChunks < shards {
		t.Errorf("chunk reconciliation: %d shards merged only %d chunk batches", shards, shardChunks)
	}
	// The engine-level chunk counter aggregates every execution on the
	// engine, so /statz must report at least this trace's batches.
	var statz statzResponse
	getJSON(t, ts.URL+"/statz", &statz)
	if statz.Parallel.Chunks < uint64(shardChunks) {
		t.Errorf("/statz parallel chunks = %d, want >= %d", statz.Parallel.Chunks, shardChunks)
	}
}

func TestQueryCacheHitTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("generates streams")
	}
	_, ts := newTestServer(t, Config{Workers: 2})
	body := fmt.Sprintf(`{"stream":"taipei","query":%q}`, aggQuery)
	if resp, first := postQuery(t, ts.URL, body); resp.StatusCode != http.StatusOK || first.TraceID == "" {
		t.Fatalf("first query: HTTP %d, trace id %q", resp.StatusCode, first.TraceID)
	}
	resp, err := http.Post(ts.URL+"/query?trace=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hit queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&hit); err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Fatal("repeat query missed the cache")
	}
	if hit.Trace == nil || hit.Trace.Root.Attrs["cached"] != "true" {
		t.Fatalf("cache hit trace = %+v, want cached=true attr", hit.Trace)
	}
	// An untraced request still reports its request's trace ID, without
	// the inline tree.
	if _, plain := postQuery(t, ts.URL, body); plain.TraceID == "" || plain.Trace != nil {
		t.Fatalf("untraced cache hit: trace id %q, inline trace %v", plain.TraceID, plain.Trace)
	}
}

func TestTracesEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("generates streams")
	}
	_, ts := newTestServer(t, Config{Workers: 2})
	body := fmt.Sprintf(`{"stream":"taipei","query":%q}`, scanQuery)
	_, qr := postQuery(t, ts.URL, body)
	if qr.TraceID == "" {
		t.Fatal("query returned no trace id")
	}

	// Every executed query lands in the ring, traced request or not.
	var list []obs.TraceSummary
	getJSON(t, ts.URL+"/traces", &list)
	if len(list) == 0 {
		t.Fatal("/traces is empty after an executed query")
	}
	if list[0].ID != qr.TraceID {
		t.Errorf("newest trace %q, want the query's %q", list[0].ID, qr.TraceID)
	}

	var full obs.Trace
	getJSON(t, ts.URL+"/traces/"+qr.TraceID, &full)
	if full.ID != qr.TraceID || full.Root == nil || len(full.Root.Children) == 0 {
		t.Fatalf("retrieved trace = %+v", full)
	}
	if full.Root.Attrs["plan"] == "" {
		t.Errorf("retained trace missing plan attr: %v", full.Root.Attrs)
	}

	resp, bodyText := getBody(t, ts.URL+"/traces/no-such-trace")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing trace: HTTP %d", resp.StatusCode)
	}
	var envelope errorResponse
	if err := json.Unmarshal([]byte(bodyText), &envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Error.Code != codeUnknownTrace || envelope.Error.Status != http.StatusNotFound {
		t.Errorf("error envelope = %+v", envelope.Error)
	}
}

// TestErrorEnvelope pins the unified error shape: every failure returns
// {"error": {status, code, message}} with the status echoed and a stable
// machine-readable code.
func TestErrorEnvelope(t *testing.T) {
	if testing.Short() {
		t.Skip("generates streams")
	}
	_, ts := newTestServer(t, Config{Workers: 2})
	cases := []struct {
		name, method, path, body string
		wantStatus               int
		wantCode                 string
	}{
		{"query method", http.MethodGet, "/query", "", http.StatusMethodNotAllowed, codeMethodNotAllowed},
		{"query bad json", http.MethodPost, "/query", "{", http.StatusBadRequest, codeBadRequest},
		{"unknown stream", http.MethodPost, "/query", `{"stream":"nope","query":"SELECT FCOUNT(*) FROM nope"}`, http.StatusNotFound, codeUnknownStream},
		{"invalid query", http.MethodPost, "/query", `{"stream":"taipei","query":"SELECT nonsense"}`, http.StatusBadRequest, codeInvalidQuery},
		{"ingest not live", http.MethodPost, "/ingest", `{"stream":"taipei","frames":10}`, http.StatusBadRequest, codeNotLive},
		{"traces method", http.MethodPost, "/traces", "", http.StatusMethodNotAllowed, codeMethodNotAllowed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("HTTP %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			var envelope errorResponse
			if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
				t.Fatalf("decoding error envelope: %v", err)
			}
			e := envelope.Error
			if e.Status != tc.wantStatus || e.Code != tc.wantCode || e.Message == "" {
				t.Errorf("envelope = %+v, want status %d code %q", e, tc.wantStatus, tc.wantCode)
			}
		})
	}
}

// TestStatzAgreesWithMetrics pins /statz as a derived view: the counters
// it reports are read back from the same registry /metrics renders, so
// the two can never disagree.
func TestStatzAgreesWithMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("generates streams")
	}
	_, ts := newTestServer(t, Config{Workers: 2})
	body := fmt.Sprintf(`{"stream":"taipei","query":%q}`, aggQuery)
	postQuery(t, ts.URL, body)
	postQuery(t, ts.URL, body)

	var statz statzResponse
	getJSON(t, ts.URL+"/statz", &statz)
	_, text := getBody(t, ts.URL+"/metrics")
	if got := metricValue(t, text, `blazeit_queries_total{stream="taipei"}`); got != float64(statz.Queries.Total) {
		t.Errorf("queries: /metrics %v, /statz %d", got, statz.Queries.Total)
	}
	if got := metricValue(t, text, `blazeit_query_cache_hits_total{stream="taipei"}`); got != float64(statz.Queries.CacheHits) {
		t.Errorf("cache hits: /metrics %v, /statz %d", got, statz.Queries.CacheHits)
	}
	if statz.Queries.Total != 2 || statz.Queries.CacheHits != 1 {
		t.Errorf("statz queries = %+v", statz.Queries)
	}
	if got := metricValue(t, text, "blazeit_cache_encoded_bytes"); got != float64(statz.Cache.EncodedBytes) || got <= 0 {
		t.Errorf("encoded bytes: /metrics %v, /statz %d", got, statz.Cache.EncodedBytes)
	}
	if got := metricValue(t, text, "blazeit_query_parse_memo_hits_total"); got != float64(statz.Cache.ParseMemoHits) || got != 1 {
		t.Errorf("parse memo hits: /metrics %v, /statz %d, want 1", got, statz.Cache.ParseMemoHits)
	}
}

// TestObsConcurrentHammer races scrapes of /metrics and the trace ring
// against concurrent ingest, query, and poll traffic on a live server.
// Run with -race; the test asserts little beyond clean responses — the
// race detector is the assertion.
func TestObsConcurrentHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("generates streams")
	}
	_, ts := newLiveServer(t)

	var sub subscribeResponse
	postJSON(t, ts.URL+"/subscribe",
		fmt.Sprintf(`{"stream":"taipei","query":%q}`, liveScanQuery), &sub)
	if sub.ID == "" {
		t.Fatal("subscribe returned no id")
	}

	var wg sync.WaitGroup
	run := func(n int, f func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := f(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	drain := func(resp *http.Response, err error) error {
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return err
	}
	run(6, func() error { // queries, traced inline
		return drain(http.Post(ts.URL+"/query?trace=1", "application/json",
			strings.NewReader(fmt.Sprintf(`{"stream":"taipei","query":%q}`, liveScanQuery))))
	})
	run(5, func() error { // ingest batches, bumping the epoch under the queries
		return drain(http.Post(ts.URL+"/ingest", "application/json",
			strings.NewReader(`{"stream":"taipei","frames":40}`)))
	})
	run(6, func() error { // standing-query polls (traced advances)
		return drain(http.Get(ts.URL + "/poll?id=" + sub.ID + "&trace=1"))
	})
	run(12, func() error { // metric scrapes
		return drain(http.Get(ts.URL + "/metrics"))
	})
	run(12, func() error { // trace ring reads
		return drain(http.Get(ts.URL + "/traces"))
	})
	wg.Wait()

	// The ring retained traces and the exposition still parses.
	var list []obs.TraceSummary
	getJSON(t, ts.URL+"/traces", &list)
	if len(list) == 0 {
		t.Error("no traces retained after hammer")
	}
	_, text := getBody(t, ts.URL+"/metrics")
	checkPromText(t, text)
}
