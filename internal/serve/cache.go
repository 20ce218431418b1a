package serve

import (
	"container/list"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/frameql"
)

// CacheKey builds the result-cache key for a stream, its ingest epoch,
// and a canonicalized query (frameql.Analyze's Stmt.String()).
// Canonicalization means formatting variants of the same query —
// whitespace, case of keywords, predicate spelling the parser normalizes
// — share one entry. The epoch (core.Engine.StreamEpoch, bumped by every
// live ingest that makes frames visible) is part of the key so an answer
// computed over a shorter stream can never be served after the stream has
// grown: ingest invalidates by re-keying, and the stale generation ages
// out of the LRU. Before the epoch entered the key, nothing evicted
// results when IngestIndex appended frames — the continuous tier's
// stale-read hazard.
func CacheKey(stream string, epoch uint64, canonical string) string {
	var digits [20]byte
	return stream + "\x00" + string(strconv.AppendUint(digits[:0], epoch, 10)) + "\x00" + canonical
}

// CacheStats is a point-in-time snapshot of cache effectiveness. Saved
// figures credit, once per hit, the non-training simulated cost recorded
// when the entry was first computed (detector, specialized-network, and
// filter work). One-time training/threshold cost is excluded: the
// engine's own model caches already avoid re-paying it on repeats, so
// counting it would overstate what the result cache saves. This remains
// an estimate — an actual re-execution can be cheaper still when the
// engine's inference cache zeroes the specialized-network term.
type CacheStats struct {
	Entries              int     `json:"entries"`
	Capacity             int     `json:"capacity"`
	Hits                 uint64  `json:"hits"`
	Misses               uint64  `json:"misses"`
	Evictions            uint64  `json:"evictions"`
	SavedSimSeconds      float64 `json:"saved_sim_seconds"`
	SavedDetectorSeconds float64 `json:"saved_detector_seconds"`
	SavedDetectorCalls   uint64  `json:"saved_detector_calls"`
	// ParseMemoHits counts query texts whose analysis was served from the
	// parse memo.
	ParseMemoHits uint64 `json:"parse_memo_hits"`
}

// lru is a string-keyed map bounded to cap values, evicting the least
// recently used. It does no locking; its owner does.
type lru[V any] struct {
	cap   int
	ll    *list.List // of lruItem[V]; front = most recently used
	items map[string]*list.Element
}

type lruItem[V any] struct {
	key string
	val V
}

func newLRU[V any](cap int) *lru[V] {
	return &lru[V]{cap: cap, ll: list.New(), items: make(map[string]*list.Element)}
}

// get returns the key's value and marks it most recently used.
func (l *lru[V]) get(key string) (v V, ok bool) {
	el, ok := l.items[key]
	if !ok {
		return v, false
	}
	l.ll.MoveToFront(el)
	return el.Value.(lruItem[V]).val, true
}

// put stores v under key, replacing any value already there, and returns
// how many values it evicted to stay within cap.
func (l *lru[V]) put(key string, v V) (evicted int) {
	if el, ok := l.items[key]; ok {
		l.ll.MoveToFront(el)
		el.Value = lruItem[V]{key, v}
		return 0
	}
	l.items[key] = l.ll.PushFront(lruItem[V]{key, v})
	for l.len() > l.cap {
		oldest := l.ll.Back()
		l.ll.Remove(oldest)
		delete(l.items, oldest.Value.(lruItem[V]).key)
		evicted++
	}
	return evicted
}

func (l *lru[V]) len() int { return l.ll.Len() }

// each calls fn on every value, most recently used first.
func (l *lru[V]) each(fn func(V)) {
	for el := l.ll.Front(); el != nil; el = el.Next() {
		fn(el.Value.(lruItem[V]).val)
	}
}

// ResultCache is an LRU cache of query results keyed by
// (stream, epoch, canonical query). Hits return a view of the stored
// result whose cost meter is zeroed — a cached answer charges no simulated
// detector, network, or training time — with the entry's original cost
// credited to the saved-work accounting. Beside the results it memoizes
// the analysis of the query texts that produce them (Analyze), so a
// repeated text is neither re-parsed nor, once hit, re-encoded.
type ResultCache struct {
	mu      sync.Mutex
	entries *lru[*cacheEntry]
	texts   *lru[parsedQuery]
	stats   CacheStats
}

// cacheEntry is one stored result. It is immutable apart from head, so
// bytes encoded from an entry always describe that entry's res: a Put over
// the same key installs a new entry rather than editing this one.
type cacheEntry struct {
	res *core.Result
	// head is the encoded invariant part of the entry's hit reply at the
	// server's row cap (see appendReplyHead), built by the first hit and
	// shared read-only by every later one; nil until then, so an entry
	// evicted unhit never holds bytes.
	head atomic.Pointer[[]byte]
}

// hitHead returns the head of the entry's hit reply at the server's row
// cap, encoding and keeping it on the first call; callers with another cap
// encode for themselves. Concurrent first hits may each encode: the bytes
// are identical and the last store wins.
func (e *cacheEntry) hitHead(stream, canonical string, serverRows int) ([]byte, error) {
	if p := e.head.Load(); p != nil {
		return *p, nil
	}
	b, err := appendReplyHead(nil, stream, canonical, cachedView(e.res), true, serverRows)
	if err != nil {
		return nil, err
	}
	e.head.Store(&b)
	return b, nil
}

// parsedQuery is what the parse memo keeps per query text.
type parsedQuery struct {
	info      *frameql.Info
	canonical string
}

// maxMemoText bounds the query texts the parse memo keeps: with the entry
// bound it caps the memo's keys at capacity × 4 KiB. Longer texts are
// analyzed on every request.
const maxMemoText = 4 << 10

// NewResultCache returns a cache holding up to capacity entries (and as
// many memoized query texts). A non-positive capacity disables caching:
// every Get misses and every Analyze parses.
func NewResultCache(capacity int) *ResultCache {
	return &ResultCache{
		entries: newLRU[*cacheEntry](capacity),
		texts:   newLRU[parsedQuery](capacity),
	}
}

// Analyze is frameql.Analyze plus the statement's canonical text,
// memoized per query text so a repeated text skips lexing, parsing,
// analysis, and canonicalization. The returned Info is shared between
// requests and must not be modified (internal/core only reads it). Texts
// that fail to analyze are not memoized.
func (c *ResultCache) Analyze(text string) (*frameql.Info, string, error) {
	memoize := c.texts.cap > 0 && len(text) <= maxMemoText
	if memoize {
		c.mu.Lock()
		p, ok := c.texts.get(text)
		if ok {
			c.stats.ParseMemoHits++
		}
		c.mu.Unlock()
		if ok {
			return p.info, p.canonical, nil
		}
	}
	info, err := frameql.Analyze(text)
	if err != nil {
		return nil, "", err
	}
	canonical := info.Stmt.String()
	if memoize {
		c.mu.Lock()
		c.texts.put(text, parsedQuery{info, canonical})
		c.mu.Unlock()
	}
	return info, canonical, nil
}

// Get returns the cached result for the key, or nil. The returned result
// is a copy with a zeroed cost meter; its slices are shared with the
// stored entry and must not be modified.
func (c *ResultCache) Get(key string) *core.Result {
	if e := c.lookup(key); e != nil {
		return cachedView(e.res)
	}
	return nil
}

// lookup is Get returning the entry itself, for the reply writer: it
// counts the hit or miss and credits the entry's cost as saved.
func (c *ResultCache) lookup(key string) *cacheEntry {
	if c == nil || c.entries.cap <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries.get(key)
	if !ok {
		c.stats.Misses++
		return nil
	}
	c.stats.Hits++
	c.stats.SavedSimSeconds += e.res.Stats.TotalSecondsNoTrain()
	c.stats.SavedDetectorSeconds += e.res.Stats.DetectorSeconds
	c.stats.SavedDetectorCalls += uint64(e.res.Stats.DetectorCalls)
	return e
}

// cachedView copies a stored result, replacing its cost meter with a
// zero-cost one that names the original plan.
func cachedView(stored *core.Result) *core.Result {
	cp := *stored
	cp.Stats = core.Stats{Plan: stored.Stats.Plan}
	cp.Stats.Notes = append(cp.Stats.Notes, "served from result cache: zero simulated cost")
	return &cp
}

// Put stores the result of a cache miss, evicting the least recently used
// entry when over capacity. Results with errors never reach Put. A Put
// over a resident key (a concurrent identical miss beat us here) replaces
// the whole entry, dropping any bytes encoded from the previous result.
func (c *ResultCache) Put(key string, res *core.Result) {
	if c == nil || c.entries.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Evictions += uint64(c.entries.put(key, &cacheEntry{res: res}))
}

// Stats returns a snapshot of cache counters.
func (c *ResultCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.entries.len()
	s.Capacity = c.entries.cap
	return s
}

// EncodedBytes is the size of the hit replies resident entries keep
// encoded. Unlike Stats it visits every entry, holding off lookups while it
// does; it is for the stats pages, not for request paths.
func (c *ResultCache) EncodedBytes() (n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries.each(func(e *cacheEntry) {
		if p := e.head.Load(); p != nil {
			n += int64(len(*p))
		}
	})
	return n
}
