package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// TestSnapshotIsolationHammer drives concurrent /ingest, /query, /poll,
// and (through polls that find new frames) /advance traffic at one live
// stream and asserts every response is internally consistent with a
// single snapshot: across the whole run, each snapshot epoch maps to
// exactly one horizon — a torn read (a query labeled with an epoch from
// one ingest generation and a horizon from another) would surface as two
// horizons for one epoch. Run under -race this is also the data-race
// proof for the lock-free read paths.
func TestSnapshotIsolationHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("generates streams")
	}
	_, ts := newLiveServer(t)

	var sub subscribeResponse
	if resp := postJSON(t, ts.URL+"/subscribe",
		fmt.Sprintf(`{"stream":"taipei","query":%q}`, liveScanQuery), &sub); resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe: HTTP %d", resp.StatusCode)
	}

	// epoch → horizon, shared across all observers. LoadOrStore makes the
	// consistency check atomic: the first observer of an epoch fixes its
	// horizon, and every later observation must agree.
	var epochHorizon sync.Map
	checkPair := func(src string, epoch uint64, horizon int) error {
		if prev, loaded := epochHorizon.LoadOrStore(epoch, horizon); loaded && prev.(int) != horizon {
			return fmt.Errorf("%s: epoch %d seen with horizons %d and %d", src, epoch, prev, horizon)
		}
		return nil
	}

	const ingesters, queriers, pollers, rounds = 2, 3, 2, 8
	var wg sync.WaitGroup
	errc := make(chan error, ingesters+queriers+pollers)

	for i := 0; i < ingesters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastHorizon := 0
			for r := 0; r < rounds; r++ {
				resp, err := http.Post(ts.URL+"/ingest", "application/json",
					strings.NewReader(`{"stream":"taipei","frames":300}`))
				if err != nil {
					errc <- err
					return
				}
				var ing ingestResponse
				err = json.NewDecoder(resp.Body).Decode(&ing)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("ingest: HTTP %d (%v)", resp.StatusCode, err)
					return
				}
				if ing.Horizon < lastHorizon {
					errc <- fmt.Errorf("ingest horizon went backwards: %d -> %d", lastHorizon, ing.Horizon)
					return
				}
				lastHorizon = ing.Horizon
				if err := checkPair("ingest", ing.Epoch, ing.Horizon); err != nil {
					errc <- err
					return
				}
			}
		}()
	}

	for i := 0; i < queriers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// no_cache forces real executions so queries genuinely overlap
			// in-flight ingests rather than replaying cached answers.
			body := fmt.Sprintf(`{"stream":"taipei","query":%q,"no_cache":true}`, liveScanQuery)
			for r := 0; r < rounds; r++ {
				resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
				if err != nil {
					errc <- err
					return
				}
				if resp.StatusCode == http.StatusTooManyRequests {
					resp.Body.Close()
					continue
				}
				var qr queryResponse
				err = json.NewDecoder(resp.Body).Decode(&qr)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("query: HTTP %d (%v)", resp.StatusCode, err)
					return
				}
				if qr.Horizon == 0 {
					errc <- fmt.Errorf("query response missing snapshot horizon")
					return
				}
				if err := checkPair("query", qr.Epoch, qr.Horizon); err != nil {
					errc <- err
					return
				}
			}
		}()
	}

	for i := 0; i < pollers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastHorizon, lastSeq := 0, uint64(0)
			for r := 0; r < rounds*2; r++ {
				resp, err := http.Get(ts.URL + "/poll?id=" + sub.ID)
				if err != nil {
					errc <- err
					return
				}
				var pr subscribeResponse
				err = json.NewDecoder(resp.Body).Decode(&pr)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("poll: HTTP %d (%v)", resp.StatusCode, err)
					return
				}
				if pr.Horizon < lastHorizon || pr.Seq < lastSeq {
					errc <- fmt.Errorf("poll went backwards: horizon %d->%d seq %d->%d",
						lastHorizon, pr.Horizon, lastSeq, pr.Seq)
					return
				}
				lastHorizon, lastSeq = pr.Horizon, pr.Seq
			}
		}()
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// The map must have recorded multiple epochs — a hammer where ingest
	// never advanced the snapshot would vacuously pass.
	epochs := 0
	epochHorizon.Range(func(_, _ any) bool { epochs++; return true })
	if epochs < 2 {
		t.Fatalf("observed only %d snapshot epochs; ingest never raced the readers", epochs)
	}
}

// TestCacheHitHammer races the encode-once hit path against the two things
// that replace what it reads: readers refresh two panels (so they share
// each text's memoized Info and each entry's stored bytes) while one
// client re-executes the same panels with no_cache (a Put over the
// resident key) and another ingests (a new epoch, so a new key). Every
// reply's head must belong to the snapshot its tail names: per panel and
// epoch there is one horizon, one answer, and one sequence of hit bytes up
// to the plan report (which describes whichever execution last filled the
// entry, and calibration moves between executions).
// Under -race it is also the proof that concurrent executions only read
// the Info they share.
func TestCacheHitHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("generates streams")
	}
	_, ts := newLiveServer(t)
	panels := []string{liveScanQuery, goldenQueries[5].text}

	var seen sync.Map // "panel|epoch|what" → first observation
	agree := func(what string, panel int, epoch uint64, v any) error {
		key := fmt.Sprintf("%d|%d|%s", panel, epoch, what)
		if prev, loaded := seen.LoadOrStore(key, v); loaded && prev != v {
			return fmt.Errorf("panel %d epoch %d: two values of %s: %s", panel, epoch, what,
				firstDiff([]byte(fmt.Sprint(prev)), []byte(fmt.Sprint(v))))
		}
		return nil
	}
	query := func(panel int, noCache bool) error {
		body := fmt.Sprintf(`{"stream":"taipei","query":%q,"no_cache":%v}`, panels[panel], noCache)
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			return err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			return nil
		}
		if err != nil || resp.StatusCode != http.StatusOK {
			return fmt.Errorf("query: HTTP %d (%v)", resp.StatusCode, err)
		}
		var qr queryResponse
		if err := json.Unmarshal(raw, &qr); err != nil {
			return fmt.Errorf("decoding %d-byte reply: %v", len(raw), err)
		}
		if noCache && qr.Cached {
			return fmt.Errorf("no_cache reply reported cached")
		}
		if err := agree("horizon", panel, qr.Epoch, qr.Horizon); err != nil {
			return err
		}
		answer := fmt.Sprintf("value %v, %d rows, truncated %v", qr.Value != nil && *qr.Value != 0, len(qr.Rows), qr.Truncated)
		if qr.Value != nil {
			answer = fmt.Sprintf("value bits %x", math.Float64bits(*qr.Value))
		}
		if err := agree("answer", panel, qr.Epoch, answer); err != nil {
			return err
		}
		if qr.Cached {
			if qr.Stats.TotalSeconds != 0 || qr.Stats.DetectorCalls != 0 {
				return fmt.Errorf("cached reply charged cost: %+v", qr.Stats)
			}
			upToReport := raw[:bytes.LastIndex(raw, []byte(`,"plan_report":`))]
			return agree("hit bytes", panel, qr.Epoch, string(upToReport))
		}
		return nil
	}

	const readers, rounds = 4, 12
	var wg sync.WaitGroup
	errc := make(chan error, readers+2)
	run := func(n int, step func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := step(i); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		run(rounds*4, func(i int) error { return query(i%len(panels), false) })
	}
	run(rounds, func(i int) error { return query(i%len(panels), true) })
	run(rounds, func(int) error {
		resp, err := http.Post(ts.URL+"/ingest", "application/json",
			strings.NewReader(`{"stream":"taipei","frames":200}`))
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("ingest: HTTP %d", resp.StatusCode)
		}
		return nil
	})
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	hits, epochs := 0, map[string]bool{}
	seen.Range(func(k, _ any) bool {
		parts := strings.Split(k.(string), "|")
		epochs[parts[1]] = true
		if parts[2] == "hit bytes" {
			hits++
		}
		return true
	})
	if hits == 0 || len(epochs) < 2 {
		t.Fatalf("observed %d hit generations over %d epochs; the hammer never raced hits against ingest", hits, len(epochs))
	}
}

// TestBodyLimit: every body-reading endpoint refuses an oversized body with
// the error envelope and 413 instead of buffering it.
func TestBodyLimit(t *testing.T) {
	_, ts := newLiveServer(t)
	huge := `{"stream":"taipei","query":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	for _, path := range []string{"/query", "/subscribe", "/ingest"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		var envelope errorResponse
		err = json.NewDecoder(resp.Body).Decode(&envelope)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: decoding error envelope: %v", path, err)
		}
		if e := envelope.Error; resp.StatusCode != http.StatusRequestEntityTooLarge ||
			e.Status != http.StatusRequestEntityTooLarge || e.Code != codeBodyTooLarge {
			t.Errorf("%s: HTTP %d, envelope %+v; want 413 %s", path, resp.StatusCode, e, codeBodyTooLarge)
		}
	}
}
