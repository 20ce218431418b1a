package experiments

import (
	"fmt"
	"io"

	"repro/internal/frameql"
	"repro/internal/vidsim"
)

// table6Queries are the scrubbing queries of the paper's Table 6:
// "at least N of class", chosen there to have at least 10 instances.
var table6Queries = []struct {
	Stream         string
	Class          string
	N              int
	PaperInstances int
}{
	{"taipei", "car", 6, 70},
	{"night-street", "car", 5, 29},
	{"rialto", "boat", 7, 51},
	{"grand-canal", "boat", 5, 23},
	{"amsterdam", "car", 4, 86},
	{"archie", "car", 4, 102},
}

// scrubQuery builds the Figure-3b-style query.
func scrubQuery(stream string, reqs []frameql.ClassAtLeast, limit, gap int) string {
	q := fmt.Sprintf("SELECT timestamp FROM %s GROUP BY timestamp HAVING ", stream)
	for i, r := range reqs {
		if i > 0 {
			q += " AND "
		}
		q += fmt.Sprintf("SUM(class='%s') >= %d", r.Class, r.N)
	}
	q += fmt.Sprintf(" LIMIT %d", limit)
	if gap > 0 {
		q += fmt.Sprintf(" GAP %d", gap)
	}
	return q
}

// Table6Row reports instance counts for one scrubbing query.
type Table6Row struct {
	Stream         string
	Class          string
	N              int
	Frames         int
	Instances      int
	PaperInstances int
}

// Table6Rows counts matching frames/instances per Table 6 query, using
// detector counts as ground truth (§10.1).
func (s *Session) Table6Rows() ([]Table6Row, error) {
	var rows []Table6Row
	for _, q := range table6Queries {
		e, err := s.Engine(q.Stream)
		if err != nil {
			return nil, err
		}
		counts := detectorCounts(e, vidsim.Class(q.Class))
		frames, instances := 0, 0
		in := false
		for _, c := range counts {
			if int(c) >= q.N {
				frames++
				if !in {
					in = true
					instances++
				}
			} else {
				in = false
			}
		}
		rows = append(rows, Table6Row{
			Stream: q.Stream, Class: q.Class, N: q.N,
			Frames: frames, Instances: instances,
			PaperInstances: q.PaperInstances,
		})
	}
	return rows, nil
}

// Table6 prints scrubbing query details (paper Table 6).
func (s *Session) Table6(w io.Writer) error {
	rows, err := s.Table6Rows()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-13s %-6s %3s %10s %10s %16s\n",
		"video", "object", "N", "frames", "instances", "paper instances")
	for _, r := range rows {
		fmt.Fprintf(w, "%-13s %-6s %3d %10d %10d %16d\n",
			r.Stream, r.Class, r.N, r.Frames, r.Instances, r.PaperInstances)
	}
	return nil
}

// Fig6Row is one stream's scrubbing end-to-end comparison.
type Fig6Row struct {
	Stream        string
	Query         string
	Found         int
	NaiveSec      float64
	NoScopeSec    float64
	BlazeItSec    float64
	IndexedSec    float64
	BlazeItCalls  int
	NaiveCalls    int
	PaperSpeedups [4]float64 // naive, noscope, blazeit, indexed
}

// Figure6Rows runs the Table 6 scrubbing queries (LIMIT 10) under the four
// variants of Figure 6.
func (s *Session) Figure6Rows() ([]Fig6Row, error) {
	paper := map[string][4]float64{
		"taipei":       {1, 1.9, 233.4, 1022},
		"night-street": {1, 1.3, 8.7, 9.1},
		"rialto":       {1, 1.1, 182.4, 232.3},
		"grand-canal":  {1, 1.5, 14.8, 15.3},
		"amsterdam":    {1, 3.9, 441.2, 779.8},
		"archie":       {1, 1.9, 255.6, 1229},
	}
	var rows []Fig6Row
	for _, q := range table6Queries {
		e, err := s.Engine(q.Stream)
		if err != nil {
			return nil, err
		}
		src := scrubQuery(q.Stream, []frameql.ClassAtLeast{{Class: q.Class, N: q.N}}, 10, 0)
		info, err := frameql.Analyze(src)
		if err != nil {
			return nil, err
		}
		naive, err := e.ExecuteForced(info, 0, "scrub-sequential", "scrub-sequential-fallback")
		if err != nil {
			return nil, err
		}
		ns, err := e.ExecuteForced(info, 0, "scrub-noscope-oracle")
		if err != nil {
			return nil, err
		}
		blaze, err := e.Execute(info)
		if err != nil {
			return nil, err
		}
		indexed := blaze.Stats.DetectorSeconds + blaze.Stats.FilterSeconds
		rows = append(rows, Fig6Row{
			Stream:        q.Stream,
			Query:         fmt.Sprintf(">=%d %s", q.N, q.Class),
			Found:         len(blaze.Frames),
			NaiveSec:      naive.Stats.TotalSeconds(),
			NoScopeSec:    ns.Stats.TotalSeconds(),
			BlazeItSec:    indexed + e.ScrubSetupCost([]vidsim.Class{vidsim.Class(q.Class)}),
			IndexedSec:    indexed,
			BlazeItCalls:  blaze.Stats.DetectorCalls,
			NaiveCalls:    naive.Stats.DetectorCalls,
			PaperSpeedups: paper[q.Stream],
		})
	}
	return rows, nil
}

// Figure6 prints scrubbing runtimes (paper Figure 6).
func (s *Session) Figure6(w io.Writer) error {
	rows, err := s.Figure6Rows()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "scrubbing queries (10 events) — runtime in simulated seconds (speedup vs naive)\n")
	fmt.Fprintf(w, "%-13s %-10s %6s %12s %14s %16s %16s\n",
		"video", "query", "found", "naive", "noscope(orcl)", "blazeit", "blazeit(indexed)")
	for _, r := range rows {
		sp := func(v float64) string { return fmt.Sprintf("%.0f (%.0fx)", v, r.NaiveSec/v) }
		fmt.Fprintf(w, "%-13s %-10s %6d %12.0f %14s %16s %16s\n",
			r.Stream, r.Query, r.Found, r.NaiveSec, sp(r.NoScopeSec), sp(r.BlazeItSec), sp(r.IndexedSec))
		fmt.Fprintf(w, "%-13s paper speedups: noscope %.1fx, blazeit %.0fx, indexed %.0fx\n",
			"", r.PaperSpeedups[1], r.PaperSpeedups[2], r.PaperSpeedups[3])
	}
	return nil
}

// Fig7Row is one point of the vary-N sample complexity curve.
type Fig7Row struct {
	N              int
	Instances      int
	MatchFrames    int
	NaiveSamples   int
	NoScopeSamples int
	BlazeSamples   int
}

// Figure7Rows searches for >= N cars in taipei (LIMIT 10) for N = 1..6
// and reports the detector-call sample complexity of each method.
func (s *Session) Figure7Rows() ([]Fig7Row, error) {
	e, err := s.Engine("taipei")
	if err != nil {
		return nil, err
	}
	var rows []Fig7Row
	for n := 1; n <= 6; n++ {
		src := scrubQuery("taipei", []frameql.ClassAtLeast{{Class: "car", N: n}}, 10, 0)
		info, err := frameql.Analyze(src)
		if err != nil {
			return nil, err
		}
		naive, err := e.ExecuteForced(info, 0, "scrub-sequential", "scrub-sequential-fallback")
		if err != nil {
			return nil, err
		}
		ns, err := e.ExecuteForced(info, 0, "scrub-noscope-oracle")
		if err != nil {
			return nil, err
		}
		blaze, err := e.Execute(info)
		if err != nil {
			return nil, err
		}
		counts := detectorCounts(e, vidsim.Car)
		instances, matchFrames := 0, 0
		in := false
		for _, c := range counts {
			if int(c) >= n {
				matchFrames++
				if !in {
					in = true
					instances++
				}
			} else {
				in = false
			}
		}
		rows = append(rows, Fig7Row{
			N:              n,
			Instances:      instances,
			MatchFrames:    matchFrames,
			NaiveSamples:   naive.Stats.DetectorCalls,
			NoScopeSamples: ns.Stats.DetectorCalls,
			BlazeSamples:   blaze.Stats.DetectorCalls,
		})
	}
	return rows, nil
}

// Figure7 prints sample complexity vs N (paper Figure 7).
func (s *Session) Figure7(w io.Writer) error {
	rows, err := s.Figure7Rows()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "sample complexity searching for >= N cars in taipei (10 events)\n")
	fmt.Fprintf(w, "%3s %10s %12s %12s %12s\n", "N", "instances", "naive", "noscope", "blazeit")
	for _, r := range rows {
		fmt.Fprintf(w, "%3d %10d %12d %12d %12d\n",
			r.N, r.Instances, r.NaiveSamples, r.NoScopeSamples, r.BlazeSamples)
	}
	return nil
}

// multiClassQuery is the Figure 8/9 query: >= 1 bus and >= 5 cars in
// taipei.
func multiClassQuery(limit int) string {
	return scrubQuery("taipei", []frameql.ClassAtLeast{
		{Class: "bus", N: 1}, {Class: "car", N: 5},
	}, limit, 0)
}

// Fig8Row is the multi-class scrubbing comparison.
type Fig8Row struct {
	Found         int
	NaiveSec      float64
	NoScopeSec    float64
	BlazeItSec    float64
	IndexedSec    float64
	PaperSpeedups [4]float64
}

// Figure8Rows runs the bus+5-cars query under the four variants.
func (s *Session) Figure8Rows() (*Fig8Row, error) {
	e, err := s.Engine("taipei")
	if err != nil {
		return nil, err
	}
	info, err := frameql.Analyze(multiClassQuery(10))
	if err != nil {
		return nil, err
	}
	naive, err := e.ExecuteForced(info, 0, "scrub-sequential", "scrub-sequential-fallback")
	if err != nil {
		return nil, err
	}
	ns, err := e.ExecuteForced(info, 0, "scrub-noscope-oracle")
	if err != nil {
		return nil, err
	}
	blaze, err := e.Execute(info)
	if err != nil {
		return nil, err
	}
	indexed := blaze.Stats.DetectorSeconds + blaze.Stats.FilterSeconds
	return &Fig8Row{
		Found:         len(blaze.Frames),
		NaiveSec:      naive.Stats.TotalSeconds(),
		NoScopeSec:    ns.Stats.TotalSeconds(),
		BlazeItSec:    indexed + e.ScrubSetupCost([]vidsim.Class{vidsim.Bus, vidsim.Car}),
		IndexedSec:    indexed,
		PaperSpeedups: [4]float64{1, 12.0, 293.0, 966.7},
	}, nil
}

// Figure8 prints the multi-class scrubbing runtimes (paper Figure 8).
func (s *Session) Figure8(w io.Writer) error {
	r, err := s.Figure8Rows()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "at least 1 bus and 5 cars in taipei (10 events) — simulated seconds\n")
	sp := func(v float64) string { return fmt.Sprintf("%.0f (%.0fx)", v, r.NaiveSec/v) }
	fmt.Fprintf(w, "naive %.0f  noscope %s  blazeit %s  indexed %s  (found %d)\n",
		r.NaiveSec, sp(r.NoScopeSec), sp(r.BlazeItSec), sp(r.IndexedSec), r.Found)
	fmt.Fprintf(w, "paper speedups: noscope %.1fx, blazeit %.0fx, indexed %.0fx\n",
		r.PaperSpeedups[1], r.PaperSpeedups[2], r.PaperSpeedups[3])
	return nil
}

// Fig9Row is one point of the sample-complexity-vs-LIMIT curve.
type Fig9Row struct {
	Limit          int
	Found          int
	NaiveSamples   int
	NoScopeSamples int
	BlazeSamples   int
}

// Figure9Rows sweeps the LIMIT of the bus+5-cars query.
func (s *Session) Figure9Rows() ([]Fig9Row, error) {
	e, err := s.Engine("taipei")
	if err != nil {
		return nil, err
	}
	var rows []Fig9Row
	for _, limit := range []int{1, 5, 10, 15, 20, 25, 30} {
		info, err := frameql.Analyze(multiClassQuery(limit))
		if err != nil {
			return nil, err
		}
		naive, err := e.ExecuteForced(info, 0, "scrub-sequential", "scrub-sequential-fallback")
		if err != nil {
			return nil, err
		}
		ns, err := e.ExecuteForced(info, 0, "scrub-noscope-oracle")
		if err != nil {
			return nil, err
		}
		blaze, err := e.Execute(info)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig9Row{
			Limit:          limit,
			Found:          len(blaze.Frames),
			NaiveSamples:   naive.Stats.DetectorCalls,
			NoScopeSamples: ns.Stats.DetectorCalls,
			BlazeSamples:   blaze.Stats.DetectorCalls,
		})
	}
	return rows, nil
}

// Figure9 prints sample complexity vs LIMIT (paper Figure 9).
func (s *Session) Figure9(w io.Writer) error {
	rows, err := s.Figure9Rows()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "sample complexity vs requested clips (bus + 5 cars, taipei)\n")
	fmt.Fprintf(w, "%6s %6s %12s %12s %12s\n", "limit", "found", "naive", "noscope", "blazeit")
	for _, r := range rows {
		fmt.Fprintf(w, "%6d %6d %12d %12d %12d\n",
			r.Limit, r.Found, r.NaiveSamples, r.NoScopeSamples, r.BlazeSamples)
	}
	return nil
}
