// Continuous-query benchmarks: what the resumable-cursor tier buys on a
// live stream. A standing query advancing after each ingest batch is
// compared against re-executing the same query from frame 0 after each
// batch (the pre-cursor behavior), sustained ingest throughput
// (frames/sec through AppendLive, index extension included) is measured,
// and the concurrent phase races fixed-work queries against sustained
// ingest to verify snapshot isolation keeps reader latency at idle
// levels (the concurrent_query_p50_ratio summary).
//
// Scale comes from BLAZEIT_PARBENCH_SCALE (default 0.05 so CI stays
// fast). When BLAZEIT_LIVEBENCH_JSON names a file, a machine-readable
// summary (incremental-advance latency vs full re-execution speedup,
// frames/sec sustained ingest) is written there after the run — CI
// uploads it as the BENCH_live artifact.
package blazeit

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"testing"
	"time"
)

// liveBenchQuery is a scan-family standing query: the shape that
// benefits most from cursors (suffix-only advance).
const liveBenchQuery = `SELECT timestamp FROM taipei WHERE class = 'car' FNR WITHIN 0.02 FPR WITHIN 0.02`

// liveBenchRecord is one phase's measurement.
type liveBenchRecord struct {
	Phase        string  `json:"phase"`
	Scale        float64 `json:"scale"`
	NsPerOp      float64 `json:"ns_per_op"`
	FramesPerSec float64 `json:"frames_per_sec,omitempty"`
	Batches      int     `json:"batches,omitempty"`
}

var liveBench struct {
	mu      sync.Mutex
	records map[string]liveBenchRecord
}

func recordLiveBench(r liveBenchRecord) {
	liveBench.mu.Lock()
	defer liveBench.mu.Unlock()
	if liveBench.records == nil {
		liveBench.records = make(map[string]liveBenchRecord)
	}
	liveBench.records[r.Phase] = r
}

// writeLiveBenchJSON dumps collected records to the file named by
// BLAZEIT_LIVEBENCH_JSON (called from TestMain after the run), with the
// advance-vs-requery speedup summarized for trend dashboards.
func writeLiveBenchJSON() {
	path := os.Getenv("BLAZEIT_LIVEBENCH_JSON")
	liveBench.mu.Lock()
	records := make([]liveBenchRecord, 0, len(liveBench.records))
	for _, r := range liveBench.records {
		records = append(records, r)
	}
	liveBench.mu.Unlock()
	if path == "" || len(records) == 0 {
		return
	}
	sort.Slice(records, func(i, j int) bool { return records[i].Phase < records[j].Phase })
	out := struct {
		Scale                  float64           `json:"scale"`
		Records                []liveBenchRecord `json:"records"`
		AdvanceSpeedupVsRescan float64           `json:"advance_speedup_vs_rescan,omitempty"`
		// ConcurrentQueryP50Ratio is p50 query latency under sustained
		// ingest over p50 at idle — the snapshot-isolation headline
		// number (1.0 means ingest never blocks readers; benchgate caps
		// it).
		ConcurrentQueryP50Ratio float64 `json:"concurrent_query_p50_ratio,omitempty"`
	}{Scale: parBenchScale(), Records: records}
	var advance, rescan, idleP50, busyP50 float64
	for _, r := range records {
		switch r.Phase {
		case "advance":
			advance = r.NsPerOp
		case "rescan":
			rescan = r.NsPerOp
		case "query_idle":
			idleP50 = r.NsPerOp
		case "query_under_ingest":
			busyP50 = r.NsPerOp
		}
	}
	if advance > 0 && rescan > 0 {
		out.AdvanceSpeedupVsRescan = rescan / advance
	}
	if idleP50 > 0 && busyP50 > 0 {
		out.ConcurrentQueryP50Ratio = busyP50 / idleP50
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "live bench json: %v\n", err)
		return
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "live bench json: %v\n", err)
	}
}

// liveBenchBatches is how many ingest batches one benchmark iteration
// plays through (the day arrives in this many pieces after the start).
const liveBenchBatches = 4

// newLiveBenchSystem opens a live system with 40% of the day visible and
// the standing query's one-time preparation (training, thresholds, held-out
// presence) paid.
func newLiveBenchSystem(b *testing.B, scale float64) *System {
	b.Helper()
	sys, err := Open("taipei", Options{Scale: scale, Seed: 1, LiveStart: 0.4})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.Query(liveBenchQuery); err != nil {
		b.Fatal(err)
	}
	// The drift detector compares the live window against the class's
	// held-out presence — one more one-time scan of the held-out day, which
	// a binary plan never needs itself; an aggregate plan computes it.
	if _, err := sys.ExplainPlan(`SELECT FCOUNT(*) FROM taipei WHERE class='car'`); err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkLive measures the continuous tier in three phases:
//
//   - ingest: sustained AppendLive throughput (frame visibility plus
//     incremental index extension), reported in frames/sec;
//   - advance: a standing query advanced after each ingest batch
//     (suffix-only work for this scan-family plan);
//   - rescan: the same query re-executed from frame 0 after each batch —
//     what every standing question cost before resumable cursors.
func BenchmarkLive(b *testing.B) {
	scale := parBenchScale()

	b.Run("ingest", func(b *testing.B) {
		b.ReportAllocs()
		var frames int
		start := time.Now()
		for i := 0; i < b.N; i++ {
			sys := newLiveBenchSystem(b, scale)
			ls := sys.LiveStats()
			batch := (ls.DayFrames-ls.HorizonFrames)/liveBenchBatches + 1
			frames = 0
			for sys.LiveStats().HorizonFrames < ls.DayFrames {
				added, err := sys.Append(batch)
				if err != nil {
					b.Fatal(err)
				}
				frames += added
			}
		}
		elapsed := time.Since(start)
		nsPerOp := float64(elapsed.Nanoseconds()) / float64(b.N)
		fps := float64(frames) / (nsPerOp / 1e9)
		b.ReportMetric(fps, "frames/s")
		recordLiveBench(liveBenchRecord{Phase: "ingest", Scale: scale, NsPerOp: nsPerOp, FramesPerSec: fps, Batches: liveBenchBatches})
	})

	// advance and rescan time only the per-batch answer refresh — system
	// construction, training warm-up, and Append run off the clock, since
	// both strategies pay them identically and the point is the marginal
	// cost of keeping a standing answer current.
	b.Run("advance", func(b *testing.B) {
		b.ReportAllocs()
		var answered time.Duration
		for i := 0; i < b.N; i++ {
			sys := newLiveBenchSystem(b, scale)
			sq, err := sys.Subscribe(liveBenchQuery)
			if err != nil {
				b.Fatal(err)
			}
			ls := sys.LiveStats()
			batch := (ls.DayFrames-ls.HorizonFrames)/liveBenchBatches + 1
			for sys.LiveStats().HorizonFrames < ls.DayFrames {
				if _, err := sys.Append(batch); err != nil {
					b.Fatal(err)
				}
				start := time.Now()
				if _, err := sq.Advance(); err != nil {
					b.Fatal(err)
				}
				answered += time.Since(start)
			}
		}
		nsPerOp := float64(answered.Nanoseconds()) / float64(b.N)
		b.ReportMetric(nsPerOp, "answer-ns/op")
		recordLiveBench(liveBenchRecord{
			Phase: "advance", Scale: scale,
			NsPerOp: nsPerOp,
			Batches: liveBenchBatches,
		})
	})

	b.Run("rescan", func(b *testing.B) {
		b.ReportAllocs()
		var answered time.Duration
		for i := 0; i < b.N; i++ {
			sys := newLiveBenchSystem(b, scale)
			ls := sys.LiveStats()
			batch := (ls.DayFrames-ls.HorizonFrames)/liveBenchBatches + 1
			for sys.LiveStats().HorizonFrames < ls.DayFrames {
				if _, err := sys.Append(batch); err != nil {
					b.Fatal(err)
				}
				start := time.Now()
				if _, err := sys.Query(liveBenchQuery); err != nil {
					b.Fatal(err)
				}
				answered += time.Since(start)
			}
		}
		nsPerOp := float64(answered.Nanoseconds()) / float64(b.N)
		b.ReportMetric(nsPerOp, "answer-ns/op")
		recordLiveBench(liveBenchRecord{
			Phase: "rescan", Scale: scale,
			NsPerOp: nsPerOp,
			Batches: liveBenchBatches,
		})
	})

	// concurrent measures the HTAP split: p50 latency of a fixed-work
	// query at idle, then the same query racing sustained ingest. Queries
	// pin epoch snapshots and never lock, so the two p50s should be
	// indistinguishable while ingest throughput stays flat — the
	// concurrent_query_p50_ratio summary (gated by benchgate) is the
	// regression signal if readers ever start blocking on the write path.
	b.Run("concurrent", func(b *testing.B) {
		b.ReportAllocs()
		var idle, busy []time.Duration
		var frames int
		var ingestNs int64
		for i := 0; i < b.N; i++ {
			sys := newLiveBenchSystem(b, scale)
			// The scan is pinned to the initially visible prefix so one
			// execution's work stays constant while the horizon grows —
			// latency differences then measure reader/ingest
			// interference, not a growing dataset.
			q := fmt.Sprintf(`SELECT FCOUNT(*) FROM taipei WHERE class='car' AND timestamp < %d`,
				sys.LiveStats().HorizonFrames)
			// Warm the bounded query's one-time preparation so measured
			// latencies are pure execution.
			if _, err := sys.Query(q); err != nil {
				b.Fatal(err)
			}
			const idleQueries = 8
			for j := 0; j < idleQueries; j++ {
				start := time.Now()
				if _, err := sys.Query(q); err != nil {
					b.Fatal(err)
				}
				idle = append(idle, time.Since(start))
			}
			// Sustained ingest: the rest of the day in small batches on
			// one writer goroutine, while this goroutine keeps querying
			// against pinned snapshots.
			ls := sys.LiveStats()
			batch := (ls.DayFrames-ls.HorizonFrames)/liveBenchConcurrentBatches + 1
			done := make(chan error, 1)
			go func() {
				start := time.Now()
				for sys.LiveStats().HorizonFrames < ls.DayFrames {
					added, err := sys.Append(batch)
					if err != nil {
						done <- err
						return
					}
					frames += added
				}
				ingestNs += time.Since(start).Nanoseconds()
				done <- nil
			}()
			running := true
			for running {
				start := time.Now()
				if _, err := sys.Query(q); err != nil {
					b.Fatal(err)
				}
				busy = append(busy, time.Since(start))
				select {
				case err := <-done:
					if err != nil {
						b.Fatal(err)
					}
					running = false
				default:
				}
			}
		}
		idleP50 := p50ns(idle)
		busyP50 := p50ns(busy)
		fps := float64(frames) / (float64(ingestNs) / 1e9)
		b.ReportMetric(busyP50/idleP50, "p50-ratio")
		b.ReportMetric(fps, "frames/s")
		recordLiveBench(liveBenchRecord{Phase: "query_idle", Scale: scale, NsPerOp: idleP50, Batches: liveBenchConcurrentBatches})
		recordLiveBench(liveBenchRecord{Phase: "query_under_ingest", Scale: scale, NsPerOp: busyP50, Batches: liveBenchConcurrentBatches})
		recordLiveBench(liveBenchRecord{
			Phase: "ingest_concurrent", Scale: scale,
			NsPerOp:      float64(ingestNs) / float64(b.N),
			FramesPerSec: fps,
			Batches:      liveBenchConcurrentBatches,
		})
	})
}

// liveBenchConcurrentBatches is how many ingest batches the concurrent
// phase splits the day's remainder into — small enough batches that
// ingest stays active across many measured queries.
const liveBenchConcurrentBatches = 32

// p50ns returns the median duration in nanoseconds.
func p50ns(durs []time.Duration) float64 {
	if len(durs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), durs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[len(s)/2].Nanoseconds())
}
