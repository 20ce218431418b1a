package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

const nightQuery = `SELECT FCOUNT(*) FROM night-street WHERE class = 'car' ERROR WITHIN 0.1 AT CONFIDENCE 95%`

// mixedTraffic drives one request of every kind through a live server over
// two streams — query, cached query, explain, subscribe, ingest, advancing
// and idle polls — and returns the server quiescent, so every scrape-time
// family has samples and every section of /statz has content.
func mixedTraffic(t *testing.T) *httptest.Server {
	t.Helper()
	_, ts := newLiveServer(t)
	for _, q := range []struct{ stream, query string }{
		{"taipei", aggQuery}, {"taipei", aggQuery}, {"night-street", nightQuery}, {"taipei", liveScanQuery},
	} {
		if resp, _ := postQuery(t, ts.URL, fmt.Sprintf(`{"stream":%q,"query":%q}`, q.stream, q.query)); resp.StatusCode != http.StatusOK {
			t.Fatalf("query %q: HTTP %d", q.query, resp.StatusCode)
		}
	}
	var ex explainResponse
	getJSON(t, ts.URL+"/explain?stream=taipei&q="+url.QueryEscape(scanQuery), &ex)
	var sub standingReply
	if resp := postJSON(t, ts.URL+"/subscribe", fmt.Sprintf(`{"stream":"taipei","query":%q}`, liveScanQuery), &sub); resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe: HTTP %d", resp.StatusCode)
	}
	for i := 0; i < 2; i++ {
		if resp := postJSON(t, ts.URL+"/ingest", `{"stream":"taipei","frames":700}`, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest: HTTP %d", resp.StatusCode)
		}
		var adv, idle standingReply
		getJSON(t, ts.URL+"/poll?id="+sub.ID, &adv)
		getJSON(t, ts.URL+"/poll?id="+sub.ID, &idle)
		if !adv.Updated || idle.Updated {
			t.Fatalf("poll after ingest updated=%v, idle poll updated=%v", adv.Updated, idle.Updated)
		}
	}
	return ts
}

// promSeries parses an exposition body into series (name plus label block,
// as printed) → value.
func promSeries(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparsable sample line %q", line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		out[m[1]+m[2]] = v
	}
	return out
}

// sumSeries totals every series of the family whose label block contains
// each of the given `k="v"` pairs.
func sumSeries(series map[string]float64, family string, pairs ...string) (sum float64, n int) {
next:
	for name, v := range series {
		base, labels, _ := strings.Cut(name, "{")
		if base != family {
			continue
		}
		for _, p := range pairs {
			if !strings.Contains(labels, p) {
				continue next
			}
		}
		sum += v
		n++
	}
	return sum, n
}

// flattenNumbers walks decoded JSON and records every number under its
// dotted key path.
func flattenNumbers(prefix string, v any, out map[string]float64) {
	switch x := v.(type) {
	case map[string]any:
		for k, c := range x {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			flattenNumbers(p, c, out)
		}
	case float64:
		out[prefix] = x
	}
}

// statzSeries maps /statz key paths to the /metrics series that must read
// the same. A pattern's groups fill the series' ${1}, ${2}; a series
// ending in "*" is summed over its family; an empty series marks a field
// no family exports (configuration, or inventory only /statz itemizes).
var statzSeries = []struct{ path, series string }{
	{`uptime_seconds`, ""}, // moves between the two requests
	{`queries\.total`, `blazeit_queries_total*`},
	{`queries\.cache_hits`, `blazeit_query_cache_hits_total*`},
	{`queries\.errors`, `blazeit_query_errors_total`},
	{`sim\.charged_seconds`, `blazeit_sim_charged_seconds_total`},
	{`sim\.charged_detector_calls`, `blazeit_sim_charged_detector_calls_total`},
	{`sim\.saved_seconds`, `blazeit_result_cache_saved_sim_seconds_total`},
	{`sim\.saved_detector_calls`, `blazeit_result_cache_saved_detector_calls_total`},
	{`cache\.entries`, `blazeit_result_cache_entries`},
	{`cache\.hits`, `blazeit_result_cache_events_total{event="hit"}`},
	{`cache\.misses`, `blazeit_result_cache_events_total{event="miss"}`},
	{`cache\.evictions`, `blazeit_result_cache_events_total{event="eviction"}`},
	{`cache\.saved_sim_seconds`, `blazeit_result_cache_saved_sim_seconds_total`},
	{`cache\.saved_detector_calls`, `blazeit_result_cache_saved_detector_calls_total`},
	{`cache\.parse_memo_hits`, `blazeit_query_parse_memo_hits_total`},
	{`cache\.encoded_bytes`, `blazeit_cache_encoded_bytes`},
	{`cache\.(capacity|saved_detector_seconds)`, ""},
	{`pool\.workers`, `blazeit_pool_workers`},
	{`pool\.running`, `blazeit_pool_running`},
	{`pool\.queue_len`, `blazeit_pool_queue_len`},
	{`pool\.queue_cap`, `blazeit_pool_queue_cap`},
	{`pool\.(executed|rejected|canceled|panicked)`, `blazeit_pool_tasks_total{event="${1}"}`},
	{`parallel\.pool_utilization`, `blazeit_pool_utilization`},
	{`parallel\.(default_parallelism|max_parallelism|plan_executions|fanouts|shards|chunks)`, ""},
	{`planner\.planned`, `blazeit_planner_planned_total`},
	{`planner\.forced`, `blazeit_planner_forced_total`},
	{`planner\.picks\.([^.]+)\.([^.]+)`, `blazeit_planner_picks_total{family="${1}",plan="${2}"}`},
	{`planner\.window_errors\.([^.]+)\.mean_error`, `blazeit_planner_window_estimate_error{family="${1}"}`},
	// Every finalized execution feeds its family's window; the serving tier
	// observes the cost-chosen ones it accounts, and this mix forces none.
	{`planner\.window_errors\.([^.]+)\.lifetime`, `blazeit_planner_estimate_error_count{family="${1}"}`},
	{`planner\.window_errors\.[^.]+\.samples`, ""},
	{`planner\.calibrations\.[^.]+`, ""},
	{`planner\.prepared\.([^.]+)\.hits`, `blazeit_planner_prepared_total{family="${1}",outcome="hit"}`},
	{`planner\.prepared\.([^.]+)\.misses`, `blazeit_planner_prepared_total{family="${1}",outcome="miss"}`},
	{`planner\.prepared\.([^.]+)\.disk_loads`, `blazeit_planner_prepared_total{family="${1}",outcome="disk_load"}`},
	{`planner\.mean_estimate_error`, ""}, // checked against the histogram below
	{`indexz\.chunks`, `blazeit_index_chunks`},
	{`indexz\.dense_chunks`, `blazeit_index_dense_chunks`},
	{`indexz\.chunks_skipped`, `blazeit_index_chunks_skipped_total`},
	{`indexz\.frames_skipped`, `blazeit_index_frames_skipped_total`},
	{`indexz\.conjunction_chunks_skipped`, `blazeit_conjunction_chunks_skipped_total`},
	{`indexz\.density_chunks_out_of_order`, `blazeit_density_chunks_out_of_order_total`},
	{`indexz\.builds_(queued|done|failed)`, `blazeit_index_builds_total{state="${1}"}`},
	{`indexz\.(models_trained|models_loaded|segments_built|segments_loaded|segments|bytes|build_sim_seconds|labels|label_hits|label_misses)`, ""},
	{`livez\.live_start`, ""},
	{`livez\.streams\.([^.]+)\.horizon`, `blazeit_stream_horizon{stream="${1}"}`},
	{`livez\.streams\.([^.]+)\.day_frames`, `blazeit_stream_day_frames{stream="${1}"}`},
	{`livez\.streams\.([^.]+)\.epoch`, `blazeit_stream_epoch{stream="${1}"}`},
	{`livez\.streams\.([^.]+)\.(live_snapshot_epoch|live_tail_frames|live_snapshot_lag_frames)`, `blazeit_${2}{stream="${1}"}`},
	{`livez\.ingests`, `blazeit_ingests_total`},
	{`livez\.frames_ingested`, `blazeit_ingest_frames_total*`},
	{`livez\.(subscribes|unsubscribes|polls|advances)`, `blazeit_${1}_total`},
	{`livez\.subscriptions_active`, `blazeit_subscriptions_active`},
	{`registry\.opens`, `blazeit_engine_opens_total`},
	{`registry\.opening`, ""},
	{`stream_queries\.([^.]+)`, `blazeit_queries_total{stream="${1}"}`},
}

// TestStatzIsMetrics pins that the server keeps one set of books: after a
// mix of every request kind over two streams, every number on /statz is
// either the value of its /metrics series or explicitly has none. The
// lifetime mean estimate error is the planner's over every execution the
// engines finalized, the histogram's the serving tier's over every result
// it accounted — equal only when standing queries are accounted too.
func TestStatzIsMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("generates streams")
	}
	ts := mixedTraffic(t)
	var page map[string]any
	getJSON(t, ts.URL+"/statz", &page)
	_, text := getBody(t, ts.URL+"/metrics")
	series := promSeries(t, text)
	fields := map[string]float64{}
	flattenNumbers("", page, fields)

	rules := make([]*regexp.Regexp, len(statzSeries))
	for i, rule := range statzSeries {
		rules[i] = regexp.MustCompile("^" + rule.path + "$")
	}
	compared := 0
	for path, want := range fields {
		var name string
		matched := false
		for i, re := range rules {
			if m := re.FindStringSubmatchIndex(path); m != nil {
				name, matched = string(re.ExpandString(nil, statzSeries[i].series, path, m)), true
				break
			}
		}
		switch {
		case !matched:
			t.Errorf("/statz field %s is in no statzSeries rule: map it to its series or mark it as having none", path)
		case name == "":
		case strings.HasSuffix(name, "*"):
			compared++
			if got, _ := sumSeries(series, strings.TrimSuffix(name, "*")); got != want {
				t.Errorf("/statz %s = %v, /metrics sum of %s = %v", path, want, name, got)
			}
		default:
			compared++
			if got, ok := series[name]; !ok || got != want {
				t.Errorf("/statz %s = %v, /metrics %s = %v (present: %v)", path, want, name, got, ok)
			}
		}
	}
	if compared < 60 {
		t.Errorf("only %d /statz fields were compared to a series; the traffic mix should fill every section", compared)
	}
	for _, sect := range []string{"planner.picks.aggregate.", "planner.window_errors.aggregate.", "planner.prepared.aggregate.",
		"livez.streams.taipei.", "livez.streams.night-street.", "indexz.chunks", "stream_queries.night-street"} {
		found := false
		for path := range fields {
			found = found || strings.HasPrefix(path, sect)
		}
		if !found {
			t.Errorf("/statz has no field under %s", sect)
		}
	}
	open := page["registry"].(map[string]any)["open"].([]any)
	if got := series["blazeit_engines_open"]; got != float64(len(open)) || len(open) != 2 {
		t.Errorf("registry.open lists %d streams, blazeit_engines_open = %v, want 2", len(open), got)
	}
	sum, _ := sumSeries(series, "blazeit_planner_estimate_error_sum")
	count, _ := sumSeries(series, "blazeit_planner_estimate_error_count")
	if mean := fields["planner.mean_estimate_error"]; count == 0 || math.Abs(sum/count-mean) > 1e-9*mean {
		t.Errorf("/statz planner.mean_estimate_error = %v, histogram sum/count = %v/%v", mean, sum, count)
	}
}

// describeType renders the JSON key paths a value of type t encodes to:
// map keys as *, slices as [].
func describeType(prefix string, t reflect.Type, out *[]string) {
	switch t.Kind() {
	case reflect.Pointer:
		describeType(prefix, t.Elem(), out)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			switch {
			case f.Anonymous && name == "":
				describeType(prefix, f.Type, out)
			case !f.IsExported() || name == "-":
			default:
				if name == "" {
					name = f.Name
				}
				describeType(strings.TrimPrefix(prefix+"."+name, "."), f.Type, out)
			}
		}
	case reflect.Map:
		describeType(prefix+".*", t.Elem(), out)
	case reflect.Slice:
		describeType(prefix+"[]", t.Elem(), out)
	default:
		*out = append(*out, prefix)
	}
}

// TestMetricsFamiliesFrozen holds the observable surface of both stats
// pages to testdata/metrics_families_pr15.txt, rendered at PR 15 (commit
// 84fdab8) before the scrape-time families became a table over one fold:
// every /metrics family's name, type, label names and help string, and
// every /statz key path. The file is frozen — a family or field is added
// by a deliberate change to it, never by re-recording.
func TestMetricsFamiliesFrozen(t *testing.T) {
	if testing.Short() {
		t.Skip("generates streams")
	}
	ts := mixedTraffic(t)
	_, text := getBody(t, ts.URL+"/metrics")
	labels := map[string]string{}
	for series := range promSeries(t, text) {
		base, block, _ := strings.Cut(series, "{")
		var names []string
		for _, pair := range regexp.MustCompile(`(\w+)="`).FindAllStringSubmatch(block, -1) {
			if pair[1] != "le" {
				names = append(names, pair[1])
			}
		}
		labels[base] = strings.Join(names, ",")
	}
	var got []string
	types := map[string]string{}
	helps := map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(rest, " ")
			helps[name] = help
		} else if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			types[name] = kind
		}
	}
	for name, kind := range types {
		l, ok := labels[name]
		if kind == "histogram" {
			l, ok = labels[name+"_count"]
		}
		if !ok {
			t.Errorf("family %s has no sample after the traffic mix, so its labels are unpinned", name)
		}
		got = append(got, fmt.Sprintf("family %s %s {%s} %s", name, kind, l, helps[name]))
	}
	sort.Strings(got)
	var paths []string
	describeType("", reflect.TypeOf(statzResponse{}), &paths)
	for _, p := range paths {
		got = append(got, "statz "+p)
	}
	rendered := strings.Join(got, "\n") + "\n"
	if out := os.Getenv("BLAZEIT_FREEZE_OUT"); out != "" {
		// Recording hook, used once at the parent commit; see the doc comment.
		if err := os.WriteFile(out, []byte(rendered), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile("testdata/metrics_families_pr15.txt")
	if err != nil {
		t.Fatal(err)
	}
	if rendered != string(want) {
		t.Errorf("stats surface differs from testdata/metrics_families_pr15.txt: %s\ngot:\n%s", firstDiff([]byte(rendered), want), rendered)
	}
}

// TestStandingQueriesAreAccounted: a subscribe and every poll that advances
// pass through the same accounting step as a /query miss — their result's
// Stats land on the sim and skip counters and its plan report on the
// estimate-error histogram, the subscribe is traced and slow-logged, and
// its text goes through the parse memo. Idle polls account nothing.
func TestStandingQueriesAreAccounted(t *testing.T) {
	if testing.Short() {
		t.Skip("generates streams")
	}
	cfg := liveTestConfig()
	cfg.SlowQuery = time.Nanosecond // every execution is slow
	_, ts := newTestServer(t, cfg)

	var wantSec, wantCalls, wantChunks, wantFrames, wantConj, wantOOO, wantSlow, wantObserved float64
	check := func(after string, reply *standingReply) {
		t.Helper()
		if reply != nil {
			wantSec += reply.Result.Stats.TotalSeconds
			wantCalls += float64(reply.Result.Stats.DetectorCalls)
			rep := reply.Result.PlanReport
			wantChunks += float64(rep.IndexChunksSkipped)
			wantFrames += float64(rep.IndexFramesSkipped)
			wantConj += float64(rep.ConjunctionChunksSkipped)
			wantOOO += float64(rep.DensityChunksOutOfOrder)
			wantSlow++
			if !rep.Forced && rep.EstimateSeconds > 0 {
				wantObserved++
			}
		}
		_, text := getBody(t, ts.URL+"/metrics")
		series := promSeries(t, text)
		observed, _ := sumSeries(series, "blazeit_planner_estimate_error_count")
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"blazeit_sim_charged_seconds_total", series["blazeit_sim_charged_seconds_total"], wantSec},
			{"blazeit_sim_charged_detector_calls_total", series["blazeit_sim_charged_detector_calls_total"], wantCalls},
			{"blazeit_index_chunks_skipped_total", series["blazeit_index_chunks_skipped_total"], wantChunks},
			{"blazeit_index_frames_skipped_total", series["blazeit_index_frames_skipped_total"], wantFrames},
			{"blazeit_conjunction_chunks_skipped_total", series["blazeit_conjunction_chunks_skipped_total"], wantConj},
			{"blazeit_density_chunks_out_of_order_total", series["blazeit_density_chunks_out_of_order_total"], wantOOO},
			{"blazeit_slow_queries_total", series["blazeit_slow_queries_total"], wantSlow},
			{"blazeit_planner_estimate_error_count", observed, wantObserved},
		} {
			if c.got != c.want {
				t.Errorf("after %s: %s = %v, want %v", after, c.name, c.got, c.want)
			}
		}
	}

	// The binary cascade's reject threshold skips quiet index chunks, so the
	// skip counters move.
	const standing = `SELECT timestamp FROM taipei WHERE class = 'bus' FNR WITHIN 0.2 FPR WITHIN 0.2`
	body := fmt.Sprintf(`{"stream":"taipei","query":%q}`, standing)
	var sub standingReply
	resp := postJSON(t, ts.URL+"/subscribe", body, &sub)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe: HTTP %d", resp.StatusCode)
	}
	if sub.Result.Stats.TotalSeconds <= 0 || sub.Result.Stats.DetectorCalls == 0 {
		t.Fatalf("subscribe charged nothing: %+v", sub.Result.Stats)
	}
	check("subscribe", &sub)

	// The subscribe's execution is on record under the request's trace ID.
	id := resp.Header.Get("X-Trace-Id")
	var summaries []struct {
		ID string `json:"id"`
	}
	getJSON(t, ts.URL+"/traces", &summaries)
	listed := false
	for _, s := range summaries {
		listed = listed || s.ID == id
	}
	if !listed {
		t.Errorf("/traces does not list the subscribe's trace %s: %+v", id, summaries)
	}
	if r, _ := getBody(t, ts.URL+"/traces/"+id); r.StatusCode != http.StatusOK {
		t.Errorf("GET /traces/%s: HTTP %d", id, r.StatusCode)
	}

	for cycle := 1; cycle <= 2; cycle++ {
		if resp := postJSON(t, ts.URL+"/ingest", `{"stream":"taipei","frames":700}`, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest: HTTP %d", resp.StatusCode)
		}
		var adv, idle standingReply
		getJSON(t, ts.URL+"/poll?id="+sub.ID, &adv)
		if !adv.Updated {
			t.Fatalf("poll %d did not advance: %+v", cycle, adv.subscribeResponse)
		}
		check(fmt.Sprintf("advancing poll %d", cycle), &adv)
		getJSON(t, ts.URL+"/poll?id="+sub.ID, &idle)
		if idle.Updated {
			t.Fatalf("idle poll %d advanced", cycle)
		}
		check(fmt.Sprintf("idle poll %d", cycle), nil)
	}
	if wantChunks == 0 {
		t.Error("the standing cascade skipped no index chunks; the skip-counter assertions checked nothing")
	}

	// The subscribed text went through the parse memo: a /query of it hits.
	var statz statzResponse
	getJSON(t, ts.URL+"/statz", &statz)
	before := statz.Cache.ParseMemoHits
	postQuery(t, ts.URL, body)
	getJSON(t, ts.URL+"/statz", &statz)
	if statz.Cache.ParseMemoHits != before+1 {
		t.Errorf("parse memo hits %d -> %d after querying the subscribed text, want +1", before, statz.Cache.ParseMemoHits)
	}
}

// TestStandingQueryDeadlineIs504: a /subscribe whose engine open outlasts
// the query timeout is a timeout like /query's, not a bad request.
func TestStandingQueryDeadlineIs504(t *testing.T) {
	if testing.Short() {
		t.Skip("generates streams")
	}
	cfg := liveTestConfig()
	cfg.QueryTimeout = 50 * time.Millisecond
	release := make(chan struct{})
	opening := make(chan struct{}, 1)
	cfg.Open = func(name string) (*core.Engine, error) {
		opening <- struct{}{}
		<-release
		return core.NewEngine(name, cfg.Engine)
	}
	_, ts := newTestServer(t, cfg)
	body := fmt.Sprintf(`{"stream":"taipei","query":%q}`, liveScanQuery)
	first := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/subscribe", "application/json", strings.NewReader(body))
		if err != nil {
			first <- 0
			return
		}
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	<-opening // the first subscribe owns the open; the second waits on it
	var env errorResponse
	resp, err := http.Post(ts.URL+"/subscribe", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusGatewayTimeout || env.Error.Code != codeTimeout {
		t.Errorf("subscribe past its deadline: HTTP %d code %q, want 504 %q", resp.StatusCode, env.Error.Code, codeTimeout)
	}
	close(release)
	if code := <-first; code != http.StatusOK {
		t.Errorf("the subscribe that ran the open: HTTP %d, want 200 (a started execution is not preempted)", code)
	}
}
