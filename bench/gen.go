package main

import (
	"fmt"
	"math/rand"
)

// families are the seven query families every workload exercises, in the
// order metrics are printed. "limit" is a LIMIT-bearing exhaustive query
// (the shape the density-ordered plan exists for); the other six are the
// planner's own families.
var families = []string{"aggregate", "scrubbing", "selection", "binary", "distinct", "exhaustive", "limit"}

// Parameter pools. Every family draws its class from a 2:1 pool (major,
// major, minor) and one tolerance-like parameter from a 3-value pool, so a
// family has nine prep shapes that recur while the texts never do. The 2:1
// class split is deliberate: with an even split a family whose two classes
// cost differently has a bimodal latency distribution whose median flips
// between the modes from run to run.
var (
	errPool  = []string{"0.05", "0.1", "0.2"}
	fnrPool  = []string{"0.01", "0.02", "0.05"}
	redPool  = []string{"10", "17.5", "25"}
	limPool  = [][2]int{{8, 60}, {10, 50}, {12, 40}} // LIMIT, GAP: about 480 frames of matches each
	spanPool = []int{1000, 1500, 2000}               // frames a distinct count scans
	// An exhaustive window always matches more rows than the server's
	// 1000-row cap, so every exhaustive reply has the same size whatever the
	// seed: reply size, not the scan, is what a dashboard hit pays for. The
	// spans are close together because a miss's latency is the scan's: with
	// 3000/4000/5000 the samples sat on three levels 0.6 ms apart and the
	// median flipped between two of them from run to run.
	rowsPool = []int{3600, 4000, 4400}
)

// limitSpan is the window of a LIMIT query. At default parallelism the
// sharded executor scans a LIMIT query's whole window before it settles, and
// over three quarters of a day that takes anywhere from 7 to 33 ms for the
// same text; over 6000 frames it is a steady 3 ms (against 1.4 ms at
// parallelism 1), which a median of sixty samples can resolve.
const limitSpan = 6000

// Window jitter: request k of a family gets the window slot
// (k*slotStride + 17*seed) mod slots, a bijection on [0, slots), split into
// a lower-bound step and an upper-bound offset. Texts within a seed are
// distinct for the first `slots` requests of each family (14k requests a
// run), and after that repeat far outside the 256-entry result cache. The
// lower bound is congruent to the seed mod loStep, so two seeds that differ
// mod loStep share no text.
const (
	loSteps    = 16
	loStep     = 16
	hiOffsets  = 128
	slots      = loSteps * hiOffsets
	slotStride = 389 // coprime to slots

	fcountStride = 61 // prime; fcount keeps its modulus coprime to it
)

// gen makes the query texts of one stream from a seed. It is a pure
// function of (seed, family, k): clients may ask in any order.
type gen struct {
	seed   int64
	stream string
	// major and minor are the stream's classes in pool order; single-class
	// streams set both to the one class.
	major, minor string
	// day is the stream's (scaled) frames per day; sampled families query
	// three quarters of it.
	day int
}

// streamClasses is the class pool of each built-in stream (major, minor).
var streamClasses = map[string][2]string{
	"taipei":       {"car", "bus"},
	"night-street": {"car", "car"},
	"rialto":       {"boat", "boat"},
	"grand-canal":  {"boat", "boat"},
	"amsterdam":    {"car", "car"},
	"archie":       {"car", "car"},
}

func newGen(seed int64, stream string, day int) *gen {
	cl := streamClasses[stream]
	return &gen{seed: seed, stream: stream, major: cl[0], minor: cl[1], day: day}
}

// window returns request k's timestamp bounds for a nominal span.
func (g *gen) window(k, span int) (lo, hi int) {
	slot := (k*slotStride + 17*int(g.seed%slots)) % slots
	lo = loStep*(slot%loSteps) + int(g.seed%loStep)
	return lo, lo + span + slot/loSteps
}

// query is the k-th text of a family. Standing queries (standing=true)
// carry no upper timestamp bound, so they keep growing with the stream.
func (g *gen) query(fam string, k int, standing bool) string {
	combo := k % 9
	class := g.major
	if combo%3 == 2 {
		class = g.minor
	}
	p := combo / 3
	span := g.day * 3 / 4
	switch fam {
	case "distinct":
		span = spanPool[p]
	case "exhaustive":
		span = rowsPool[p]
	case "limit":
		span = limitSpan
	}
	lo, hi := g.window(k, span)
	when := fmt.Sprintf("timestamp >= %d AND timestamp < %d", lo, hi)
	if standing {
		when = fmt.Sprintf("timestamp >= %d", lo)
	}
	switch fam {
	case "aggregate":
		return fmt.Sprintf("SELECT FCOUNT(*) FROM %s WHERE class='%s' AND %s ERROR WITHIN %s AT CONFIDENCE 95%%",
			g.stream, class, when, errPool[p])
	case "scrubbing":
		n := 2
		if class == g.minor {
			n = 1
		}
		return fmt.Sprintf("SELECT timestamp FROM %s WHERE %s GROUP BY timestamp HAVING SUM(class='%s') >= %d LIMIT %d GAP %d",
			g.stream, when, class, n, limPool[p][0], limPool[p][1])
	case "selection":
		return fmt.Sprintf("SELECT * FROM %s WHERE class = '%s' AND redness(content) >= %s AND %s GROUP BY trackid HAVING COUNT(*) > 15",
			g.stream, class, redPool[p], when)
	case "binary":
		return fmt.Sprintf("SELECT timestamp FROM %s WHERE class = '%s' AND %s FNR WITHIN %s FPR WITHIN %s",
			g.stream, class, when, fnrPool[p], fnrPool[p])
	case "distinct":
		return fmt.Sprintf("SELECT COUNT(DISTINCT trackid) FROM %s WHERE class='%s' AND %s",
			g.stream, class, when)
	case "exhaustive":
		return fmt.Sprintf("SELECT * FROM %s WHERE (class='%s' OR class='%s') AND %s",
			g.stream, g.major, g.minor, when)
	case "limit":
		return fmt.Sprintf("SELECT * FROM %s WHERE class = '%s' AND (class = '%s' OR class = '%s') AND %s LIMIT %d GAP %d",
			g.stream, class, g.major, g.minor, when, limPool[p][0], limPool[p][1])
	}
	panic("bench: unknown family " + fam)
}

// fcount is client B's k-th read on live_htap: an exact FCOUNT (no error
// clause, so it scans) over a fixed-size window sliding inside the initial
// horizon. Fixed work per request, distinct text per request.
func (g *gen) fcount(k, window, horizon int) string {
	// The window's length is congruent to the seed mod loStep and grows by
	// loStep frames each time the start positions wrap, so texts stay
	// distinct within a seed and disjoint between seeds.
	window += int(g.seed % loStep)
	m := horizon - window - loStep
	for m%fcountStride == 0 {
		m--
	}
	lo := (k*fcountStride + 37*int(g.seed%slots)) % m
	window += loStep * (k / m)
	return fmt.Sprintf("SELECT FCOUNT(*) FROM %s WHERE class='%s' AND timestamp >= %d AND timestamp < %d",
		g.stream, g.major, lo, lo+window)
}

// order is the seeded family order of cycle i: each cycle runs every family
// once, so families stay balanced however many cycles a run completes.
func (g *gen) order(i int) []int {
	return rand.New(rand.NewSource(g.seed<<20 + int64(i))).Perm(len(families))
}
