package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/plan"
)

// queryResponse is the POST /query reply as the server defined it before
// replies were assembled from an encoded head and a spliced tail: one
// struct, encoded by reflection. It is frozen here as the reference the
// wire-golden tests compare the reply writer against, and is what the
// package's tests decode replies into.
type queryResponse struct {
	Stream     string       `json:"stream"`
	Canonical  string       `json:"canonical"`
	Kind       string       `json:"kind"`
	Plan       string       `json:"plan"`
	Cached     bool         `json:"cached"`
	Value      *float64     `json:"value,omitempty"`
	StdErr     *float64     `json:"std_err,omitempty"`
	Frames     []int        `json:"frames,omitempty"`
	Rows       []rowJSON    `json:"rows,omitempty"`
	TrackIDs   []int        `json:"track_ids,omitempty"`
	Truncated  bool         `json:"truncated,omitempty"`
	Stats      statsJSON    `json:"stats"`
	PlanReport *plan.Report `json:"plan_report,omitempty"`
	WallMS     float64      `json:"wall_ms"`
	TraceID    string       `json:"trace_id,omitempty"`
	Trace      *obs.Trace   `json:"trace,omitempty"`
	Epoch      uint64       `json:"epoch"`
	Horizon    int          `json:"horizon,omitempty"`
}

// standingReply is the /subscribe and /poll reply in the same frozen form:
// the handle's fields, then the answer under "result".
type standingReply struct {
	subscribeResponse
	Result *queryResponse `json:"result"`
}

// referenceResponse fills the frozen struct the way the server's
// buildResponse did.
func referenceResponse(stream, canonical string, res *core.Result, cached bool, maxRows int) *queryResponse {
	resp := &queryResponse{
		Stream:     stream,
		Canonical:  canonical,
		Kind:       res.Kind,
		Plan:       res.Stats.Plan,
		Cached:     cached,
		Frames:     res.Frames,
		TrackIDs:   res.TrackIDs,
		Stats:      toStatsJSON(&res.Stats),
		PlanReport: res.PlanReport,
	}
	if res.Kind == "aggregate" || res.Kind == "distinct-count" || res.Kind == "binary-detection" {
		v := res.Value
		resp.Value = &v
		if res.StdErr != 0 {
			se := res.StdErr
			resp.StdErr = &se
		}
	}
	rows := res.Rows
	if len(rows) > maxRows {
		rows = rows[:maxRows]
		resp.Truncated = true
	}
	if len(rows) > 0 {
		resp.Rows = make([]rowJSON, len(rows))
		for i, r := range rows {
			resp.Rows[i] = rowJSON{
				Timestamp:  r.Timestamp,
				Class:      string(r.Class),
				TrackID:    r.TrackID,
				Box:        boxJSON{X: r.Mask.X, Y: r.Mask.Y, W: r.Mask.W, H: r.Mask.H},
				Confidence: r.Confidence,
			}
		}
	}
	return resp
}

// referenceBytes encodes v exactly as the server's writeJSON does.
func referenceBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// firstDiff describes where two byte strings part, for failure messages.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	clip := func(b []byte) string {
		lo, hi := max(i-40, 0), min(i+40, len(b))
		return string(b[lo:hi])
	}
	return fmt.Sprintf("lengths %d vs %d, first difference at byte %d:\n got …%s…\nwant …%s…",
		len(got), len(want), i, clip(got), clip(want))
}

// goldenQueries is one query per family over taipei, shaped like the
// benchmark's templates. The exhaustive window returns more rows than the
// cap so the truncated form is on the wire.
var goldenQueries = []struct{ family, text string }{
	{"aggregate", `SELECT FCOUNT(*) FROM taipei WHERE class='car' AND timestamp >= 16 AND timestamp < 9000 ERROR WITHIN 0.1 AT CONFIDENCE 95%`},
	{"scrubbing", `SELECT timestamp FROM taipei WHERE timestamp >= 16 AND timestamp < 9000 GROUP BY timestamp HAVING SUM(class='car') >= 2 LIMIT 10 GAP 50`},
	{"selection", `SELECT * FROM taipei WHERE class = 'car' AND redness(content) >= 17.5 AND timestamp >= 16 AND timestamp < 9000 GROUP BY trackid HAVING COUNT(*) > 15`},
	{"binary", `SELECT timestamp FROM taipei WHERE class = 'car' AND timestamp >= 16 AND timestamp < 9000 FNR WITHIN 0.02 FPR WITHIN 0.02`},
	{"distinct", `SELECT COUNT(DISTINCT trackid) FROM taipei WHERE class='car' AND timestamp >= 16 AND timestamp < 1516`},
	{"exhaustive", `SELECT * FROM taipei WHERE (class='car' OR class='bus') AND timestamp >= 16 AND timestamp < 4016`},
	{"limit", `SELECT * FROM taipei WHERE class = 'bus' AND (class = 'bus' OR class = 'car') AND timestamp >= 16 AND timestamp < 6016 LIMIT 10 GAP 50`},
}

// goldenPost sends one /query and checks its body, byte for byte, against
// the reflection encoding of the frozen queryResponse filled from the
// cache entry the request read or wrote, with the reply's own wall_ms,
// trace_id, and snapshot. It returns the decoded reply.
func goldenPost(t *testing.T, s *Server, url, query string, maxRows int, noCache, trace bool) queryResponse {
	t.Helper()
	body := fmt.Sprintf(`{"stream":"taipei","query":%q,"max_rows":%d,"no_cache":%v}`, query, maxRows, noCache)
	target := url + "/query"
	if trace {
		target += "?trace=1"
	}
	resp, err := http.Post(target, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("query: HTTP %d (%v): %s", resp.StatusCode, err, got)
	}
	if cl := resp.ContentLength; cl != int64(len(got)) {
		t.Errorf("Content-Length %d for a %d-byte body", cl, len(got))
	}
	var dec queryResponse
	if err := json.Unmarshal(got, &dec); err != nil {
		t.Fatalf("decoding reply: %v", err)
	}

	entry := s.cache.lookup(CacheKey("taipei", dec.Epoch, dec.Canonical))
	if entry == nil {
		t.Fatalf("no cache entry behind the reply to %s", query)
	}
	res := entry.res
	if dec.Cached {
		res = cachedView(res)
	}
	want := referenceResponse("taipei", dec.Canonical, res, dec.Cached, s.maxRows(maxRows))
	want.WallMS, want.TraceID, want.Epoch, want.Horizon = dec.WallMS, dec.TraceID, dec.Epoch, dec.Horizon
	if trace {
		if want.Trace = s.traces.Get(dec.TraceID); want.Trace == nil {
			t.Fatalf("trace %q not in the ring", dec.TraceID)
		}
	}
	if wantBytes := referenceBytes(t, want); !bytes.Equal(got, wantBytes) {
		t.Errorf("reply to %s (max_rows=%d no_cache=%v trace=%v cached=%v) differs from the reference encoding: %s",
			query, maxRows, noCache, trace, dec.Cached, firstDiff(got, wantBytes))
	}
	return dec
}

// TestWireGolden pins the reply writer to the parent's wire format: for
// every family the miss, the first hit (which encodes and stores the head)
// and a later hit (which serves the stored bytes) are byte-equal to the
// reflection encoding of the frozen queryResponse, and so are replies under
// a max_rows override, ?trace=1, and no_cache.
func TestWireGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("generates streams")
	}
	s, ts := newTestServer(t, Config{Workers: 2})
	for _, q := range goldenQueries {
		miss := goldenPost(t, s, ts.URL, q.text, 0, false, false)
		if miss.Cached {
			t.Fatalf("%s: first request reported cached", q.family)
		}
		for i := 0; i < 2; i++ {
			if hit := goldenPost(t, s, ts.URL, q.text, 0, false, false); !hit.Cached {
				t.Fatalf("%s: repeat %d missed the cache", q.family, i)
			}
		}
		entry := s.cache.lookup(CacheKey("taipei", 0, miss.Canonical))
		if entry.head.Load() == nil {
			t.Errorf("%s: hits left no stored bytes on the entry", q.family)
		}
		// A lower row cap re-encodes and leaves the stored bytes alone.
		stored := *entry.head.Load()
		if capped := goldenPost(t, s, ts.URL, q.text, 3, false, false); !capped.Cached || len(capped.Rows) > 3 {
			t.Errorf("%s: max_rows=3 reply cached=%v rows=%d", q.family, capped.Cached, len(capped.Rows))
		}
		if now := *entry.head.Load(); &now[0] != &stored[0] {
			t.Errorf("%s: a max_rows override replaced the stored bytes", q.family)
		}
		if traced := goldenPost(t, s, ts.URL, q.text, 0, false, true); !traced.Cached || traced.Trace == nil {
			t.Errorf("%s: traced hit cached=%v trace=%v", q.family, traced.Cached, traced.Trace)
		}
		if fresh := goldenPost(t, s, ts.URL, q.text, 0, true, true); fresh.Cached || fresh.Trace == nil {
			t.Errorf("%s: traced no_cache reply cached=%v trace=%v", q.family, fresh.Cached, fresh.Trace)
		}
		// no_cache re-Put the key: the entry is new and holds no bytes yet.
		if s.cache.lookup(CacheKey("taipei", 0, miss.Canonical)).head.Load() != nil {
			t.Errorf("%s: bytes survived a Put over their entry", q.family)
		}
		goldenPost(t, s, ts.URL, q.text, 0, false, false)
	}
	if n, st := s.cache.EncodedBytes(), s.cache.Stats(); n == 0 || st.ParseMemoHits == 0 {
		t.Errorf("stats after hits: encoded_bytes=%d parse_memo_hits=%d", n, st.ParseMemoHits)
	}
}

// TestWireGoldenLive repeats the comparison on a live stream, where the
// tail carries a real epoch and horizon, before and after an ingest moves
// both — and for the /subscribe and /poll replies that embed the same
// object as "result".
func TestWireGoldenLive(t *testing.T) {
	if testing.Short() {
		t.Skip("generates streams")
	}
	s, ts := newLiveServer(t)
	q := goldenQueries[5].text // exhaustive: rows, truncation, the largest reply

	before := goldenPost(t, s, ts.URL, q, 0, false, false)
	if before.Cached || before.Horizon == 0 {
		t.Fatalf("first live query: cached=%v horizon=%d", before.Cached, before.Horizon)
	}
	if hit := goldenPost(t, s, ts.URL, q, 0, false, false); !hit.Cached || hit.Epoch != before.Epoch || hit.Horizon != before.Horizon {
		t.Fatalf("live hit: cached=%v snapshot (%d,%d) vs (%d,%d)", hit.Cached, hit.Epoch, hit.Horizon, before.Epoch, before.Horizon)
	}

	standing := func(method, url, body string) {
		t.Helper()
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: HTTP %d (%v): %s", method, url, resp.StatusCode, err, got)
		}
		var dec standingReply
		if err := json.Unmarshal(got, &dec); err != nil {
			t.Fatal(err)
		}
		s.liveSt.mu.Lock()
		sub := s.liveSt.subs[dec.ID]
		s.liveSt.mu.Unlock()
		want := dec
		want.Result = referenceResponse("taipei", sub.canonical, sub.last, dec.Result.Cached, s.maxRows(0))
		want.Result.WallMS, want.Result.TraceID = dec.Result.WallMS, dec.Result.TraceID
		if dec.Result.Trace != nil {
			want.Result.Trace = s.traces.Get(dec.Result.TraceID)
		}
		if wantBytes := referenceBytes(t, &want); !bytes.Equal(got, wantBytes) {
			t.Errorf("%s %s differs from the reference encoding: %s", method, url, firstDiff(got, wantBytes))
		}
	}
	standing(http.MethodPost, ts.URL+"/subscribe", fmt.Sprintf(`{"stream":"taipei","query":%q}`, q))
	standing(http.MethodGet, ts.URL+"/poll?id=sub-1", "")

	var ing ingestResponse
	if resp := postJSON(t, ts.URL+"/ingest", `{"stream":"taipei","frames":700}`, &ing); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: HTTP %d", resp.StatusCode)
	}
	standing(http.MethodGet, ts.URL+"/poll?id=sub-1&trace=1", "") // advances: trace_id and trace inside "result"

	after := goldenPost(t, s, ts.URL, q, 0, false, false)
	if after.Cached || after.Epoch == before.Epoch || after.Horizon != ing.Horizon {
		t.Fatalf("query after ingest: cached=%v snapshot (%d,%d), ingest made (%d,%d)",
			after.Cached, after.Epoch, after.Horizon, ing.Epoch, ing.Horizon)
	}
	if hit := goldenPost(t, s, ts.URL, q, 0, false, false); !hit.Cached || hit.Epoch != after.Epoch {
		t.Fatalf("hit after ingest: cached=%v epoch %d vs %d", hit.Cached, hit.Epoch, after.Epoch)
	}
}

// TestReplyTailMatchesJSON checks the hand-written tail against
// encoding/json over the same fields, across the range a wall time, an
// epoch, and a horizon can take.
func TestReplyTailMatchesJSON(t *testing.T) {
	type tailFields struct {
		WallMS  float64 `json:"wall_ms"`
		TraceID string  `json:"trace_id,omitempty"`
		Epoch   uint64  `json:"epoch"`
		Horizon int     `json:"horizon,omitempty"`
	}
	walls := []time.Duration{0, 999 * time.Nanosecond, time.Microsecond, 21 * time.Microsecond,
		999 * time.Microsecond, time.Millisecond, 1234567 * time.Microsecond, time.Hour, math.MaxInt64}
	for _, wall := range walls {
		for _, id := range []string{"", "00ff19a4c3d2e1b0"} {
			for _, snap := range []struct {
				epoch   uint64
				horizon int
			}{{0, 0}, {7, 4752}, {math.MaxUint64, math.MaxInt64}} {
				got, err := appendReplyTail([]byte("{"), wall, id, nil, snap.epoch, snap.horizon)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got[:1], got[2:]...) // the tail opens with the comma after the head
				want := referenceBytes(t, tailFields{float64(wall.Microseconds()) / 1000, id, snap.epoch, snap.horizon})
				if want = want[:len(want)-1]; !bytes.Equal(got, want) {
					t.Errorf("wall %v: tail %s, encoding/json %s", wall, got, want)
				}
			}
		}
	}
}
