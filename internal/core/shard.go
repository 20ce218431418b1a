package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/index"
)

// This file is the engine's parallel execution layer: every plan family
// partitions its frame scan into contiguous shards executed by a bounded
// worker pool, with outputs merged — and costs charged — strictly in shard
// order.
//
// The determinism contract: a plan's Result is bit-identical for every
// parallelism level, including 1. Three rules enforce it:
//
//  1. The shard layout is a function of the scan alone (shardSpan-sized
//     contiguous ranges), never of the parallelism level. Parallelism only
//     decides how many workers consume the shard queue. The one exception
//     is a sampling round, split among the workers: its products are
//     per-draw measurements, which no layout can change.
//  2. Shard production is pure: detector and specialized-network outputs
//     are counter-based (internal/hrand), so a shard's product does not
//     depend on when or where it runs. Any per-shard randomness comes from
//     an hrand.Stream keyed by (seed, shard index), never from shared
//     sequential RNG state.
//  3. Consumption is sequential in shard order on the caller's goroutine:
//     trackers advance, rows append, LIMIT/GAP apply, and the cost meter
//     accumulates exactly as a serial scan would, so even float64 cost
//     sums are reproduced bit-for-bit.
//
// Plans with early exit (LIMIT) stop consuming mid-shard; workers past the
// stop point have done speculative work that is simply discarded — wasted
// wall-clock at worst, never a semantic difference.

// shardSpan is the steady-state number of visited frames per shard. Fixed
// (rather than derived from worker count) so the layout — and therefore
// any per-shard PRNG stream — is independent of the parallelism level.
const shardSpan = 4096

// rampSpan is the first shard's span for plans that may exit early
// (LIMIT): spans double from here up to shardSpan, so a query whose limit
// is satisfied in the first frames pays a 256-frame shard of speculative
// work instead of a 4096-frame one, while long scans still amortize into
// full-size shards.
const rampSpan = 256

// shard is one contiguous range of visited-frame indices [lo, hi).
type shard struct {
	index  int
	lo, hi int
}

// shardRangesSpan splits n visited frames into contiguous shards whose
// spans double from first up to shardSpan.
func shardRangesSpan(n, first int) []shard {
	if n <= 0 {
		return nil
	}
	shards := make([]shard, 0, (n+shardSpan-1)/shardSpan)
	span := first
	for lo := 0; lo < n; {
		hi := lo + span
		if hi > n {
			hi = n
		}
		shards = append(shards, shard{index: len(shards), lo: lo, hi: hi})
		lo = hi
		if span < shardSpan {
			span *= 2
		}
	}
	return shards
}

// resumeShards lays out a scan over visited frames [pos, hi): contiguous
// shardSpan-sized spans — or, for early-exit (LIMIT) scans, spans
// doubling from rampSpan up to shardSpan, the ramp restarting at the
// resume point. The layout depends only on the range,
// never on the parallelism level. Scan-plan
// outputs never depend on shard grouping: produce is pure per frame and
// consumption is per frame in frame order, so a resumed scan may use a
// fresh layout over the remaining range without disturbing bit-identity;
// the layout only shapes speculative work.
func resumeShards(pos, hi int, ramp bool) []shard {
	span := shardSpan
	if ramp {
		span = rampSpan
	}
	shards := shardRangesSpan(hi-pos, span)
	for i := range shards {
		shards[i].lo += pos
		shards[i].hi += pos
	}
	return shards
}

// batchFrames is the number of visited frames per consume batch: the
// index tier's chunk size, so a dense scan's batches line up with the
// columnar chunks plan predicates are evaluated against. Shards are a
// multiple of it in steady state (shardSpan = 4·batchFrames); ramp shards
// smaller than a chunk form single short batches.
const batchFrames = index.ChunkFrames

// chunkEnd returns the end of the consume batch starting at visited frame
// b: the next batchFrames-aligned boundary, capped at hi (the shard end).
func chunkEnd(b, hi int) int {
	return min((b/batchFrames+1)*batchFrames, hi)
}

// ResolveParallelism applies the engine's parallelism default:
// non-positive means GOMAXPROCS. Exported so front ends (the serve layer)
// report the same effective worker count plans actually run with.
func ResolveParallelism(p int) int {
	if p <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// runSharded executes produce over the given shard layout on `workers`
// goroutines and feeds each product to
// consume in shard order on the calling goroutine. consume returns false
// to stop early (LIMIT satisfied); remaining shards are then abandoned.
// produce must be pure and safe to call concurrently for distinct shards;
// consume is never called concurrently.
//
// The number of produced-but-unconsumed shards is bounded by a window of
// 2×workers, so memory stays proportional to parallelism, not scan
// length. With workers <= 1 the scan degenerates to a plain sequential
// loop over the same shards — the same code path the determinism contract
// is anchored to.
func runSharded[T any](workers int, shards []shard, counters *execCounters, produce func(s shard) T, consume func(s shard, v T) bool) {
	// Count shards as production starts (not the planned layout): an
	// early-exit scan abandons most of its layout, and /statz reports
	// shards actually produced.
	countShard := func() {
		if counters != nil {
			counters.shards.Add(1)
		}
	}
	if workers > len(shards) {
		workers = len(shards)
	}
	if workers <= 1 || len(shards) <= 1 {
		for _, s := range shards {
			countShard()
			if !consume(s, produce(s)) {
				return
			}
		}
		return
	}
	if counters != nil {
		counters.fanouts.Add(1)
	}

	window := 2 * workers
	if window > len(shards) {
		window = len(shards)
	}
	// shardOut carries either a product or a recovered producer panic;
	// panics re-raise on the caller's goroutine so upstream containment
	// (the serve pool's per-task recover) still applies.
	type shardOut struct {
		v        T
		panicked any
	}
	results := make([]chan shardOut, len(shards))
	for i := range results {
		results[i] = make(chan shardOut, 1)
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		stop     = make(chan struct{})
		stopOnce sync.Once
	)
	halt := func() { stopOnce.Do(func() { close(stop) }) }
	sem := make(chan struct{}, window)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// The window token gates how far production may run ahead
				// of consumption.
				select {
				case sem <- struct{}{}:
				case <-stop:
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(shards) {
					<-sem
					return
				}
				countShard()
				out := shardOut{}
				func() {
					defer func() {
						if r := recover(); r != nil {
							out.panicked = r
						}
					}()
					out.v = produce(shards[i])
				}()
				results[i] <- out
			}
		}()
	}
	// Runs on every exit — normal completion, early stop, a consume
	// panic unwinding through here, or a re-raised produce panic — so
	// workers are never leaked blocking on the window semaphore.
	defer func() {
		halt()
		wg.Wait()
	}()
	for i := range shards {
		o := <-results[i]
		<-sem
		if o.panicked != nil {
			panic(o.panicked)
		}
		if !consume(shards[i], o.v) {
			return
		}
	}
}

// execCounters tracks the engine's parallel-execution activity for
// observability; Engine.Accounting snapshots it.
type execCounters struct {
	queries atomic.Uint64
	fanouts atomic.Uint64
	shards  atomic.Uint64
	chunks  atomic.Uint64
}
