package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/frameql"
)

// redBusQuery is the Figure 3c selection query: red tour buses at least
// a minimum size, visible for at least half a second, with the spatial
// bound from taipei's bus lane (§8's ROI example — buses travel within
// x <= 0.7·width in the generated stream).
func redBusQuery() string {
	return `
		SELECT * FROM taipei
		WHERE class = 'bus'
		  AND redness(content) >= 17.5
		  AND area(mask) > 100000
		  AND xmax(mask) <= 920
		GROUP BY trackid
		HAVING COUNT(*) > 15`
}

// Fig10Row is the selection end-to-end comparison.
type Fig10Row struct {
	NaiveSec      float64
	NoScopeSec    float64
	BlazeItSec    float64
	NaiveTracks   int
	BlazeTracks   int
	FNR           float64
	PaperSpeedups [3]float64
}

// Figure10Rows runs the red-bus query under naive, NoScope-oracle, and
// full-filter plans, and measures BlazeIt's false negative rate against
// the naive plan (which defines detector ground truth, §10.1).
func (s *Session) Figure10Rows() (*Fig10Row, error) {
	e, err := s.Engine("taipei")
	if err != nil {
		return nil, err
	}
	info, err := frameql.Analyze(redBusQuery())
	if err != nil {
		return nil, err
	}
	naive, err := e.ExecuteForced(info, 0, "selection-naive")
	if err != nil {
		return nil, err
	}
	ns, err := e.ExecuteForced(info, 0, "selection-noscope-oracle")
	if err != nil {
		return nil, err
	}
	blaze, err := e.Execute(info)
	if err != nil {
		return nil, err
	}
	return &Fig10Row{
		NaiveSec:      naive.Stats.TotalSeconds(),
		NoScopeSec:    ns.Stats.TotalSeconds(),
		BlazeItSec:    blaze.Stats.TotalSeconds(),
		NaiveTracks:   len(naive.TrackIDs),
		BlazeTracks:   len(blaze.TrackIDs),
		FNR:           fnr(naive.EvalTruthIDs(), blaze.EvalTruthIDs()),
		PaperSpeedups: [3]float64{1, 8.4, 53.9},
	}, nil
}

// Figure10 prints selection end-to-end runtimes (paper Figure 10).
func (s *Session) Figure10(w io.Writer) error {
	r, err := s.Figure10Rows()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "red-bus selection (Figure 3c query) — simulated seconds\n")
	sp := func(v float64) string { return fmt.Sprintf("%.0f (%.1fx)", v, r.NaiveSec/v) }
	fmt.Fprintf(w, "naive %.0f  noscope %s  blazeit %s\n",
		r.NaiveSec, sp(r.NoScopeSec), sp(r.BlazeItSec))
	fmt.Fprintf(w, "qualifying tracks: naive %d, blazeit %d (FNR %.3f)\n",
		r.NaiveTracks, r.BlazeTracks, r.FNR)
	fmt.Fprintf(w, "paper speedups: noscope %.1fx, blazeit %.1fx\n",
		r.PaperSpeedups[1], r.PaperSpeedups[2])
	return nil
}

// Fig11Row is one configuration of the factor analysis / lesion study.
type Fig11Row struct {
	Label         string
	Seconds       float64
	ThroughputFPS float64
	Tracks        int
	FNR           float64
}

// Figure11Rows runs the factor analysis (adding filters one at a time, in
// the paper's order: spatial, temporal, content, label) and the lesion
// study (removing each individually from the full plan).
func (s *Session) Figure11Rows() (factor, lesion []Fig11Row, err error) {
	e, err := s.Engine("taipei")
	if err != nil {
		return nil, nil, err
	}
	info, err := frameql.Analyze(redBusQuery())
	if err != nil {
		return nil, nil, err
	}

	naive, err := e.ExecuteForced(info, 0, "selection-naive")
	if err != nil {
		return nil, nil, err
	}
	truth := naive.EvalTruthIDs()
	frames := float64(e.Test.Frames)

	run := func(label string, plan core.SelectionPlan) (Fig11Row, error) {
		res, err := e.ExecuteSelectionPlan(info, plan)
		if err != nil {
			return Fig11Row{}, err
		}
		sec := res.Stats.TotalSeconds()
		return Fig11Row{
			Label:         label,
			Seconds:       sec,
			ThroughputFPS: frames / sec,
			Tracks:        len(res.TrackIDs),
			FNR:           fnr(truth, res.EvalTruthIDs()),
		}, nil
	}

	factorPlans := []struct {
		label string
		plan  core.SelectionPlan
	}{
		{"naive", core.NaivePlan()},
		{"+spatial", core.SelectionPlan{UseSpatial: true}},
		{"+temporal", core.SelectionPlan{UseSpatial: true, UseTemporal: true}},
		{"+content", core.SelectionPlan{UseSpatial: true, UseTemporal: true, UseContent: true}},
		{"+label", core.AllFilters()},
	}
	for _, fp := range factorPlans {
		row, err := run(fp.label, fp.plan)
		if err != nil {
			return nil, nil, err
		}
		factor = append(factor, row)
	}

	lesionPlans := []struct {
		label string
		plan  core.SelectionPlan
	}{
		{"combined", core.AllFilters()},
		{"-spatial", core.SelectionPlan{UseTemporal: true, UseContent: true, UseLabel: true}},
		{"-temporal", core.SelectionPlan{UseSpatial: true, UseContent: true, UseLabel: true}},
		{"-content", core.SelectionPlan{UseSpatial: true, UseTemporal: true, UseLabel: true}},
		{"-label", core.SelectionPlan{UseSpatial: true, UseTemporal: true, UseContent: true}},
	}
	for _, lp := range lesionPlans {
		row, err := run(lp.label, lp.plan)
		if err != nil {
			return nil, nil, err
		}
		lesion = append(lesion, row)
	}
	return factor, lesion, nil
}

// Figure11 prints the factor analysis and lesion study (paper Figure 11).
func (s *Session) Figure11(w io.Writer) error {
	factor, lesion, err := s.Figure11Rows()
	if err != nil {
		return err
	}
	base := factor[0].Seconds
	fmt.Fprintf(w, "factor analysis (filters added cumulatively; paper: 1x, 1.5x, 4.4x, 37x, 54x)\n")
	fmt.Fprintf(w, "%-10s %12s %14s %10s %8s %8s\n", "config", "sim sec", "throughput", "speedup", "tracks", "FNR")
	for _, r := range factor {
		fmt.Fprintf(w, "%-10s %12.0f %11.1f fps %9.1fx %8d %8.3f\n",
			r.Label, r.Seconds, r.ThroughputFPS, base/r.Seconds, r.Tracks, r.FNR)
	}
	full := lesion[0].Seconds
	fmt.Fprintf(w, "lesion study (filters removed individually; paper: -37x, -18x, -1.5x, -4.3x)\n")
	for _, r := range lesion {
		fmt.Fprintf(w, "%-10s %12.0f %11.1f fps %9.2fx %8d %8.3f\n",
			r.Label, r.Seconds, r.ThroughputFPS, full/r.Seconds, r.Tracks, r.FNR)
	}
	return nil
}

// fnr computes the false negative rate of got against truth over distinct
// ground-truth entity identities.
func fnr(truth, got []int) float64 {
	if len(truth) == 0 {
		return 0
	}
	set := make(map[int]bool, len(got))
	for _, id := range got {
		set[id] = true
	}
	seen := make(map[int]bool)
	total, misses := 0, 0
	for _, id := range truth {
		if seen[id] {
			continue
		}
		seen[id] = true
		total++
		if !set[id] {
			misses++
		}
	}
	return float64(misses) / float64(total)
}
