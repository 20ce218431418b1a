// Materialized-index benchmarks: how fast the index tier builds, and
// what it buys — first-query latency on a cold engine (which must train
// and run whole-day inference) versus a restarted engine warm-starting
// from a persisted index directory (which loads columns and serves), plus
// the zone-map chunk skips executed plans report.
//
// Scale comes from BLAZEIT_PARBENCH_SCALE (default 0.05 so CI stays
// fast). When BLAZEIT_INDEXBENCH_JSON names a file, a machine-readable
// summary (build throughput, cold vs warm ns/op, chunks skipped) is
// written there after the run — CI uploads it as the BENCH_index
// artifact alongside BENCH_parallel and BENCH_plan.
package blazeit

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// indexBenchQueries exercises every index consumer: aggregation (query
// rewriting / control variates + the ground-truth label store), scrubbing
// (importance ranking from columns), and the binary cascade (zone-map
// chunk skips).
var indexBenchQueries = []string{
	`SELECT FCOUNT(*) FROM taipei WHERE class='car' ERROR WITHIN 0.1 AT CONFIDENCE 95%`,
	`SELECT timestamp FROM taipei GROUP BY timestamp HAVING SUM(class='car') >= 3 LIMIT 20`,
	`SELECT timestamp FROM taipei WHERE class = 'car' FNR WITHIN 0.02 FPR WITHIN 0.02`,
}

// indexBenchRecord is one phase's measurement.
type indexBenchRecord struct {
	Phase         string  `json:"phase"`
	Scale         float64 `json:"scale"`
	NsPerOp       float64 `json:"ns_per_op"`
	FramesPerSec  float64 `json:"frames_per_sec,omitempty"`
	SimSeconds    float64 `json:"sim_seconds,omitempty"`
	ChunksSkipped int     `json:"chunks_skipped,omitempty"`
	FramesSkipped int     `json:"frames_skipped,omitempty"`
	// SegmentBytes and SegmentFileBytes are the built segments' in-memory
	// footprint (IndexStats) and their files' total size.
	SegmentBytes     int64 `json:"segment_bytes,omitempty"`
	SegmentFileBytes int64 `json:"segment_file_bytes,omitempty"`
}

var indexBench struct {
	mu      sync.Mutex
	records map[string]indexBenchRecord
}

func recordIndexBench(r indexBenchRecord) {
	indexBench.mu.Lock()
	defer indexBench.mu.Unlock()
	if indexBench.records == nil {
		indexBench.records = make(map[string]indexBenchRecord)
	}
	indexBench.records[r.Phase] = r
}

// writeIndexBenchJSON dumps collected records to the file named by
// BLAZEIT_INDEXBENCH_JSON (called from TestMain after the run), with the
// warm-vs-cold speedup summarized for trend dashboards.
func writeIndexBenchJSON() {
	path := os.Getenv("BLAZEIT_INDEXBENCH_JSON")
	indexBench.mu.Lock()
	records := make([]indexBenchRecord, 0, len(indexBench.records))
	for _, r := range indexBench.records {
		records = append(records, r)
	}
	indexBench.mu.Unlock()
	if path == "" || len(records) == 0 {
		return
	}
	sort.Slice(records, func(i, j int) bool { return records[i].Phase < records[j].Phase })
	out := struct {
		Scale             float64            `json:"scale"`
		Records           []indexBenchRecord `json:"records"`
		WarmSpeedupVsCold float64            `json:"warm_speedup_vs_cold,omitempty"`
	}{Scale: parBenchScale(), Records: records}
	var cold, warm float64
	for _, r := range records {
		switch r.Phase {
		case "cold-query":
			cold = r.NsPerOp
		case "warm-query":
			warm = r.NsPerOp
		}
	}
	if cold > 0 && warm > 0 {
		out.WarmSpeedupVsCold = cold / warm
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "index bench json: %v\n", err)
		return
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "index bench json: %v\n", err)
	}
}

// BenchmarkIndex measures the index tier in three phases: build (train +
// label both days, persist), cold-query (fresh engine, no index), and
// warm-query (fresh engine restarted onto the prebuilt directory).
func BenchmarkIndex(b *testing.B) {
	scale := parBenchScale()

	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		var frames int
		var segBytes, fileBytes int64
		start := time.Now()
		for i := 0; i < b.N; i++ {
			dir := filepath.Join(b.TempDir(), "idx")
			sys, err := Open("taipei", Options{Scale: scale, Seed: 1, IndexDir: dir})
			if err != nil {
				b.Fatal(err)
			}
			if err := sys.BuildIndex("car"); err != nil {
				b.Fatal(err)
			}
			frames, segBytes = 0, 0
			for _, seg := range sys.IndexStats().Segments {
				frames += seg.Frames
				segBytes += seg.Bytes
			}
			b.StopTimer()
			if fileBytes, err = segmentFileBytes(dir); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		elapsed := time.Since(start)
		nsPerOp := float64(elapsed.Nanoseconds()) / float64(b.N)
		fps := float64(frames) / (nsPerOp / 1e9)
		b.ReportMetric(fps, "frames/s")
		b.ReportMetric(float64(segBytes), "segment-bytes")
		recordIndexBench(indexBenchRecord{Phase: "build", Scale: scale, NsPerOp: nsPerOp, FramesPerSec: fps,
			SegmentBytes: segBytes, SegmentFileBytes: fileBytes})
	})

	// One persisted index shared by every warm iteration.
	warmDir := filepath.Join(b.TempDir(), "warm-idx")
	prebuild, err := Open("taipei", Options{Scale: scale, Seed: 1, IndexDir: warmDir})
	if err != nil {
		b.Fatal(err)
	}
	if err := prebuild.BuildIndex("car"); err != nil {
		b.Fatal(err)
	}
	// Populate the ground-truth label store for the sampling query too.
	for _, q := range indexBenchQueries {
		if _, err := prebuild.Query(q); err != nil {
			b.Fatal(err)
		}
	}
	if err := prebuild.FlushIndex(); err != nil {
		b.Fatal(err)
	}

	runQueries := func(b *testing.B, opts Options) (sim float64, chunks, framesSkipped int) {
		sys, err := Open("taipei", opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range indexBenchQueries {
			res, err := sys.Query(q)
			if err != nil {
				b.Fatal(err)
			}
			sim += res.Stats.TotalSeconds()
			chunks += res.Stats.IndexChunksSkipped
			framesSkipped += res.Stats.IndexFramesSkipped
		}
		return sim, chunks, framesSkipped
	}

	bench := func(phase string, opts Options) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			var sim float64
			var chunks, framesSkipped int
			start := time.Now()
			for i := 0; i < b.N; i++ {
				sim, chunks, framesSkipped = runQueries(b, opts)
			}
			elapsed := time.Since(start)
			b.ReportMetric(sim, "sim-seconds")
			b.ReportMetric(float64(chunks), "chunks-skipped")
			recordIndexBench(indexBenchRecord{
				Phase:         phase,
				Scale:         scale,
				NsPerOp:       float64(elapsed.Nanoseconds()) / float64(b.N),
				SimSeconds:    sim,
				ChunksSkipped: chunks,
				FramesSkipped: framesSkipped,
			})
		}
	}
	b.Run("cold-query", bench("cold-query", Options{Scale: scale, Seed: 1}))
	b.Run("warm-query", bench("warm-query", Options{Scale: scale, Seed: 1, IndexDir: warmDir}))
}

// segmentFileBytes totals the sizes of the segment files under an index
// directory.
func segmentFileBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasPrefix(d.Name(), "seg-") {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
