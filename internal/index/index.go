// Package index is BlazeIt's materialized frame-index tier: a
// file-backed columnar store of per-frame specialized-network outputs and
// ground-truth-sampled detector labels, keyed by (stream, configuration
// fingerprint, day, class set).
//
// The paper's "BlazeIt (indexed)" accounting presupposes exactly this
// materialization (§10.3: "if we suppose that the videos are pre-indexed
// with the output of the specialized NNs"): the specialized network labels
// a whole day once, and every subsequent query — aggregation rewriting,
// control variates, scrubbing importance order, the binary cascade, the
// selection label filter — reads the labels instead of re-running
// inference. Before this tier existed the engine held that materialization
// in per-process memory, so every restart re-paid the full inference pass;
// a Segment persists it to disk, and a restarted engine warm-starts with
// zero inference cost.
//
// A Segment is laid out in fixed-size chunks of ChunkFrames frames, each
// carrying a zone-map summary: per head, the min/max predicted count, the
// maximum probability mass above every count threshold, the exact maximum
// presence-tail value, and a predicted-presence bitmap. Plan executions
// consult the zone maps to skip chunks where their predicate provably
// cannot match — the data-skipping idea of provenance-based skipping
// applied to network outputs. Skips are answer-neutral by construction
// (they elide only work whose outcome the zone map bounds) and are
// accounted in dedicated skip counters, never by mutating the simulated
// cost meter, so results stay bit-identical with and without the index.
//
// Beside the network columns, a segment keeps every frame's content
// signals — one float64 per frame-level content UDF (feature.FrameUDFs),
// computed by the same inference pass from the raw descriptor it already
// synthesized. Selection's content filters read these columns instead of
// synthesizing descriptors again (Provenance-based Data Skipping's point:
// keep only what the predicate reads).
//
// Alongside the network columns, the tier keeps a sparse store of
// ground-truth-sampled labels: reference-detector counts observed by
// sampling plans (adaptive sampling, control variates) and planner
// statistics scans. Labels are exact detector outputs, so serving a
// repeated sample from the store returns the identical value without
// re-simulating the detector; the store persists incrementally
// (append-only) and survives restarts.
//
// On-disk layout, under the configured index directory:
//
//	<dir>/<stream>/<fingerprint>/
//	    model-<classes>.blz      trained specialized network (gob blob)
//	    seg-<classes>-day<d>.blz columnar segment, chunked, crc per record
//	    labels-day<d>.blz        ground-truth label batches, append-only
//	    summaries.blz            planner held-out statistics snapshot
//
// The fingerprint covers everything model and label outputs depend on
// (stream configuration, scale, seeds, training options), so a
// configuration change invalidates by addressing a different directory
// rather than by rewriting files. Segment files are append-only at chunk
// granularity: a live stream's newly arrived frames are ingested by
// appending chunk records (rewriting at most the trailing partial chunk),
// never by invalidating existing ones.
package index

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/vidsim"
)

// ChunkFrames is the number of frames per index chunk — the zone-map
// granularity. Fixed (never derived from scan or worker geometry) so chunk
// boundaries, and therefore skip decisions, are stable across parallelism
// levels and index generations.
const ChunkFrames = 1024

// Key identifies one segment: a class set of one stream's one day under
// one engine configuration.
type Key struct {
	// Stream is the stream name.
	Stream string
	// Fingerprint hashes every configuration input the segment's contents
	// depend on (stream config, scale, seeds, training options).
	Fingerprint uint64
	// Day is the day index (0 train, 1 held-out, 2 test).
	Day int
	// Classes is the canonical class-set key (sorted, comma-joined).
	Classes string
}

// String renders the key for logs and stats.
func (k Key) String() string {
	return fmt.Sprintf("%s/%x/day%d/%s", k.Stream, k.Fingerprint, k.Day, k.Classes)
}

// ClassKey canonicalizes a class set: sorted and comma-joined, the same
// canonicalization the engine's model cache uses.
func ClassKey(classes []vidsim.Class) string {
	ss := make([]string, len(classes))
	for i, c := range classes {
		ss[i] = string(c)
	}
	sort.Strings(ss)
	return strings.Join(ss, ",")
}

// chunkCount returns the number of chunks covering n frames.
func chunkCount(n int) int {
	return (n + ChunkFrames - 1) / ChunkFrames
}
