package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

func costedResult(value, detSeconds float64, calls int) *core.Result {
	return &core.Result{
		Kind:  "aggregate",
		Value: value,
		Stats: core.Stats{
			Plan:            "specialized-rewrite",
			DetectorCalls:   calls,
			DetectorSeconds: detSeconds,
			TrainSeconds:    2,
		},
	}
}

func TestCacheHitReportsZeroCost(t *testing.T) {
	c := NewResultCache(4)
	key := CacheKey("taipei", 0, "SELECT FCOUNT(*) FROM taipei")
	if got := c.Get(key); got != nil {
		t.Fatal("hit on empty cache")
	}
	c.Put(key, costedResult(1.5, 10, 30))

	hit := c.Get(key)
	if hit == nil {
		t.Fatal("miss after Put")
	}
	if hit.Value != 1.5 || hit.Kind != "aggregate" {
		t.Fatalf("answer corrupted: %+v", hit)
	}
	if hit.Stats.Plan != "specialized-rewrite" {
		t.Fatalf("plan = %q", hit.Stats.Plan)
	}
	if hit.Stats.TotalSeconds() != 0 || hit.Stats.DetectorCalls != 0 {
		t.Fatalf("cache hit charged cost: %+v", hit.Stats)
	}

	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Saved cost excludes the entry's one-time TrainSeconds (2s): the
	// engine would not re-pay training on a repeat anyway.
	if st.SavedSimSeconds != 10 || st.SavedDetectorSeconds != 10 || st.SavedDetectorCalls != 30 {
		t.Fatalf("saved accounting = %+v", st)
	}
	// A second hit credits the entry's cost again.
	c.Get(key)
	if st := c.Stats(); st.SavedSimSeconds != 20 {
		t.Fatalf("saved after 2 hits = %v, want 20", st.SavedSimSeconds)
	}
}

func TestCacheHitDoesNotMutateStoredEntry(t *testing.T) {
	c := NewResultCache(4)
	c.Put("k", costedResult(1, 5, 5))
	_ = c.Get("k")
	hit := c.Get("k")
	if hit.Stats.TotalSeconds() != 0 {
		t.Fatalf("second hit charged cost: %+v", hit.Stats)
	}
	if st := c.Stats(); st.SavedSimSeconds != 10 { // 2 hits × 5s non-training cost
		t.Fatalf("saved = %v, want 10", st.SavedSimSeconds)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewResultCache(2)
	c.Put("a", costedResult(1, 1, 1))
	c.Put("b", costedResult(2, 1, 1))
	c.Get("a")                        // a is now most recent
	c.Put("c", costedResult(3, 1, 1)) // evicts b
	if c.Get("b") != nil {
		t.Fatal("b should have been evicted")
	}
	if c.Get("a") == nil || c.Get("c") == nil {
		t.Fatal("a and c should survive")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewResultCache(0)
	c.Put("k", costedResult(1, 1, 1))
	if c.Get("k") != nil {
		t.Fatal("disabled cache returned a hit")
	}
}

// TestCacheKeyBytes pins the key to the bytes fmt.Sprintf built before the
// key moved to concatenation.
func TestCacheKeyBytes(t *testing.T) {
	for _, epoch := range []uint64{0, 9, 10, 99, 100, 1 << 32, math.MaxUint64} {
		for _, canonical := range []string{"", "SELECT FCOUNT(*) FROM taipei", "a\x00b"} {
			want := fmt.Sprintf("%s\x00%d\x00%s", "taipei", epoch, canonical)
			if got := CacheKey("taipei", epoch, canonical); got != want {
				t.Errorf("CacheKey(taipei, %d, %q) = %q, want %q", epoch, canonical, got, want)
			}
		}
	}
}

func TestParseMemo(t *testing.T) {
	const capacity = 8
	c := NewResultCache(capacity)

	// Two spellings are two memo entries and one canonical text, so one
	// cache entry.
	info1, canon1, err := c.Analyze(`SELECT FCOUNT(*) FROM taipei WHERE class = 'car'`)
	if err != nil {
		t.Fatal(err)
	}
	_, canon2, err := c.Analyze(`select  fcount(*)  from taipei where class='car'`)
	if err != nil {
		t.Fatal(err)
	}
	if canon1 != canon2 {
		t.Fatalf("spellings canonicalize apart: %q vs %q", canon1, canon2)
	}
	c.Put(CacheKey("taipei", 0, canon1), costedResult(1, 1, 1))
	if c.Get(CacheKey("taipei", 0, canon2)) == nil {
		t.Fatal("second spelling missed the first's entry")
	}
	if st := c.Stats(); st.Entries != 1 || st.ParseMemoHits != 0 {
		t.Fatalf("stats = %+v, want one entry and no memo hits yet", st)
	}

	// A repeated text gets the very Info the first analysis built.
	again, canon, err := c.Analyze(`SELECT FCOUNT(*) FROM taipei WHERE class = 'car'`)
	if err != nil || again != info1 || canon != canon1 {
		t.Fatalf("repeat: info %p (first %p), canonical %q, err %v", again, info1, canon, err)
	}
	if st := c.Stats(); st.ParseMemoHits != 1 {
		t.Fatalf("memo hits = %d, want 1", st.ParseMemoHits)
	}

	// Invalid and oversized texts are never kept.
	before := c.texts.ll.Len()
	if _, _, err := c.Analyze(`SELECT nonsense`); err == nil {
		t.Fatal("invalid text analyzed")
	}
	long := `SELECT FCOUNT(*) FROM taipei WHERE class = 'car'` + strings.Repeat(" ", maxMemoText)
	if _, canon, err := c.Analyze(long); err != nil || canon != canon1 {
		t.Fatalf("oversized text: canonical %q, err %v", canon, err)
	}
	if got := c.texts.ll.Len(); got != before {
		t.Fatalf("memo grew from %d to %d texts on an invalid and an oversized text", before, got)
	}

	// The memo is bounded like the cache.
	for i := 0; i < 10*capacity; i++ {
		if _, _, err := c.Analyze(fmt.Sprintf(`SELECT FCOUNT(*) FROM taipei WHERE timestamp < %d`, i)); err != nil {
			t.Fatal(err)
		}
		if n := c.texts.ll.Len(); n > capacity {
			t.Fatalf("memo holds %d texts, bound %d", n, capacity)
		}
	}
	if len(c.texts.items) != capacity {
		t.Fatalf("memo index holds %d texts, want %d", len(c.texts.items), capacity)
	}

	// A disabled cache memoizes nothing.
	off := NewResultCache(0)
	if _, _, err := off.Analyze(`SELECT FCOUNT(*) FROM taipei`); err != nil {
		t.Fatal(err)
	}
	if off.texts.ll.Len() != 0 {
		t.Fatal("disabled cache memoized a text")
	}
}

// headValue decodes the answer out of an encoded reply head.
func headValue(t *testing.T, head []byte) float64 {
	t.Helper()
	var dec struct {
		Value float64 `json:"value"`
	}
	if err := json.Unmarshal(append(head[:len(head):len(head)], '}'), &dec); err != nil {
		t.Errorf("stored head is not an open JSON object: %v: %s", err, head)
	}
	return dec.Value
}

// TestPutDropsEncodedBytes: a Put over a resident key must not leave the
// previous result's encoded reply behind.
func TestPutDropsEncodedBytes(t *testing.T) {
	c := NewResultCache(4)
	c.Put("k", costedResult(1, 1, 1))
	first, err := c.lookup("k").hitHead("taipei", "q", defaultMaxRows)
	if err != nil || headValue(t, first) != 1 {
		t.Fatalf("first head: %s (%v)", first, err)
	}
	if n := c.EncodedBytes(); n != int64(len(first)) {
		t.Fatalf("encoded bytes = %d, want %d", n, len(first))
	}
	c.Put("k", costedResult(2, 1, 1))
	if n, st := c.EncodedBytes(), c.Stats(); n != 0 || st.Entries != 1 {
		t.Fatalf("after re-Put: %d bytes in %+v, want one entry holding no bytes", n, st)
	}
	second, err := c.lookup("k").hitHead("taipei", "q", defaultMaxRows)
	if err != nil || headValue(t, second) != 2 {
		t.Fatalf("head after re-Put: %s (%v), want value 2", second, err)
	}
	// Eviction drops the bytes with the entry.
	for _, k := range []string{"a", "b", "c", "d"} {
		c.Put(k, costedResult(3, 1, 1))
	}
	if n := c.EncodedBytes(); n != 0 {
		t.Fatalf("encoded bytes = %d after the entry was evicted", n)
	}
}

// TestEncodedBytesMatchEntryUnderPut races hits against Puts of distinct
// results over one key: whatever entry a hit gets, the bytes it is handed
// must encode that entry's result, never a neighbour generation's.
func TestEncodedBytesMatchEntryUnderPut(t *testing.T) {
	c := NewResultCache(2)
	c.Put("k", costedResult(0, 1, 1))
	const putters, hitters, rounds = 2, 4, 500
	var wg sync.WaitGroup
	for p := 0; p < putters; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				c.Put("k", costedResult(float64(p*rounds+i), 1, 1))
				c.Put("other", costedResult(-1, 1, 1)) // keeps eviction in play
			}
		}(p)
	}
	for h := 0; h < hitters; h++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				e := c.lookup("k")
				if e == nil {
					t.Error("resident key missed")
					return
				}
				head, err := e.hitHead("taipei", "q", defaultMaxRows)
				if err != nil {
					t.Error(err)
					return
				}
				if got := headValue(t, head); got != e.res.Value {
					t.Errorf("entry holding value %v handed out bytes encoding %v", e.res.Value, got)
					return
				}
				c.Stats()
			}
		}()
	}
	wg.Wait()
}
