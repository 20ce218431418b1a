package experiments

import (
	"fmt"
	"io"

	"repro/internal/aqp"
	"repro/internal/core"
	"repro/internal/frameql"
	"repro/internal/vidsim"
)

// fcountQuery builds the Figure-3a-style aggregate query for a stream.
func fcountQuery(stream, class string, errTol float64) string {
	return fmt.Sprintf(
		"SELECT FCOUNT(*) FROM %s WHERE class = '%s' ERROR WITHIN %g AT CONFIDENCE 95%%",
		stream, class, errTol)
}

// Table3Row is one row of the stream-statistics table.
type Table3Row struct {
	Stream, Class                 string
	Occupancy, AvgDuration        float64
	Distinct                      int
	PaperOccupancy, PaperDuration float64
	PaperDistinct                 int
}

// Table3Rows computes the generated streams' statistics next to the
// paper's Table 3 values.
func (s *Session) Table3Rows() ([]Table3Row, error) {
	paper := map[string][3]float64{ // occupancy, duration, distinct
		"taipei/bus":       {0.119, 2.82, 1749},
		"taipei/car":       {0.644, 1.43, 32367},
		"night-street/car": {0.281, 3.94, 3191},
		"rialto/boat":      {0.899, 10.7, 5969},
		"grand-canal/boat": {0.577, 9.50, 1849},
		"amsterdam/car":    {0.447, 7.88, 3096},
		"archie/car":       {0.518, 0.30, 90088},
	}
	var rows []Table3Row
	for _, name := range []string{"taipei", "night-street", "rialto", "grand-canal", "amsterdam", "archie"} {
		e, err := s.Engine(name)
		if err != nil {
			return nil, err
		}
		for _, cc := range e.Cfg.Classes {
			key := name + "/" + string(cc.Class)
			p := paper[key]
			rows = append(rows, Table3Row{
				Stream:         name,
				Class:          string(cc.Class),
				Occupancy:      e.Test.Occupancy(cc.Class),
				AvgDuration:    e.Test.AvgDurationSec(cc.Class),
				Distinct:       e.Test.DistinctCount(cc.Class),
				PaperOccupancy: p[0],
				PaperDuration:  p[1],
				PaperDistinct:  int(p[2] * s.cfg.Scale),
			})
		}
	}
	return rows, nil
}

// Table3 prints the stream statistics (paper Table 3).
func (s *Session) Table3(w io.Writer) error {
	rows, err := s.Table3Rows()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-13s %-5s %10s %12s %10s   (paper: occ, dur, distinct x scale)\n",
		"video", "object", "occupancy", "avg dur (s)", "distinct")
	for _, r := range rows {
		fmt.Fprintf(w, "%-13s %-5s %9.1f%% %12.2f %10d   (%.1f%%, %.2fs, %d)\n",
			r.Stream, r.Class, r.Occupancy*100, r.AvgDuration, r.Distinct,
			r.PaperOccupancy*100, r.PaperDuration, r.PaperDistinct)
	}
	return nil
}

// Fig4Row is one stream's aggregate end-to-end comparison.
type Fig4Row struct {
	Stream        string
	NaiveSec      float64
	NoScopeSec    float64
	AQPSec        float64
	BlazeItSec    float64
	BlazeItNTSec  float64 // no-train accounting
	Plan          string
	PaperSpeedups [5]float64 // naive, noscope, aqp, blazeit, blazeit-no-train
}

// Figure4Rows runs the five aggregate variants per stream.
func (s *Session) Figure4Rows() ([]Fig4Row, error) {
	paper := map[string][5]float64{
		"taipei":       {1, 1.6, 2082, 2369, 5741},
		"night-street": {1, 3.6, 4177, 3295, 8331},
		"rialto":       {1, 1.1, 982.4, 3179, 8588},
		"grand-canal":  {1, 1.7, 3644, 3286, 7707},
		"amsterdam":    {1, 2.2, 3910, 3279, 8421},
	}
	var rows []Fig4Row
	for _, sc := range aggStreams {
		e, err := s.Engine(sc.Stream)
		if err != nil {
			return nil, err
		}
		info, err := frameql.Analyze(fcountQuery(sc.Stream, sc.Class, 0.1))
		if err != nil {
			return nil, err
		}
		naive, err := e.ExecuteForced(info, 0, "naive-exhaustive")
		if err != nil {
			return nil, err
		}
		ns, err := e.ExecuteForced(info, 0, "noscope-oracle")
		if err != nil {
			return nil, err
		}
		sampled, err := e.ExecuteForced(info, 0, "naive-aqp")
		if err != nil {
			return nil, err
		}
		blaze, err := e.Execute(info)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig4Row{
			Stream:        sc.Stream,
			NaiveSec:      naive.Stats.TotalSeconds(),
			NoScopeSec:    ns.Stats.TotalSeconds(),
			AQPSec:        sampled.Stats.TotalSeconds(),
			BlazeItSec:    blaze.Stats.TotalSeconds(),
			BlazeItNTSec:  blaze.Stats.TotalSecondsNoTrain(),
			Plan:          blaze.Stats.Plan,
			PaperSpeedups: paper[sc.Stream],
		})
	}
	return rows, nil
}

// Figure4 prints the aggregate end-to-end runtimes (paper Figure 4).
func (s *Session) Figure4(w io.Writer) error {
	rows, err := s.Figure4Rows()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "aggregate queries, error 0.1 @ 95%% — runtime in simulated seconds (speedup vs naive)\n")
	fmt.Fprintf(w, "%-13s %12s %14s %14s %16s %16s  plan\n",
		"video", "naive", "noscope(orcl)", "aqp(naive)", "blazeit", "blazeit(notrain)")
	for _, r := range rows {
		sp := func(v float64) string {
			if v <= 0 {
				return "-"
			}
			return fmt.Sprintf("%.0f (%.0fx)", v, r.NaiveSec/v)
		}
		fmt.Fprintf(w, "%-13s %12.0f %14s %14s %16s %16s  %s\n",
			r.Stream, r.NaiveSec, sp(r.NoScopeSec), sp(r.AQPSec), sp(r.BlazeItSec), sp(r.BlazeItNTSec), r.Plan)
		fmt.Fprintf(w, "%-13s paper speedups: noscope %.1fx, aqp %.0fx, blazeit %.0fx, no-train %.0fx\n",
			"", r.PaperSpeedups[1], r.PaperSpeedups[2], r.PaperSpeedups[3], r.PaperSpeedups[4])
	}
	return nil
}

// Table4Row is one stream's query-rewriting error.
type Table4Row struct {
	Stream     string
	Error      float64
	PaperError float64
	Plans      []string
}

// Table4Rows measures the signed error of BlazeIt's aggregate answer
// against the exact detector answer, averaged over cfg.Runs runs with
// different seeds.
func (s *Session) Table4Rows() ([]Table4Row, error) {
	paper := map[string]float64{
		"taipei": 0.043, "night-street": 0.022, "rialto": -0.031,
		"grand-canal": 0.081, "amsterdam": 0.050,
	}
	var rows []Table4Row
	for _, sc := range aggStreams {
		e, err := s.Engine(sc.Stream)
		if err != nil {
			return nil, err
		}
		truth := exactDetectorMean(e, vidsim.Class(sc.Class))
		info, err := frameql.Analyze(fcountQuery(sc.Stream, sc.Class, 0.1))
		if err != nil {
			return nil, err
		}
		sum := 0.0
		var plans []string
		for run := 0; run < s.cfg.Runs; run++ {
			res, err := e.Execute(info)
			if err != nil {
				return nil, err
			}
			sum += res.Value - truth
			plans = append(plans, res.Stats.Plan)
		}
		rows = append(rows, Table4Row{
			Stream:     sc.Stream,
			Error:      sum / float64(s.cfg.Runs),
			PaperError: paper[sc.Stream],
			Plans:      plans,
		})
	}
	return rows, nil
}

// Table4 prints query-rewriting errors (paper Table 4).
func (s *Session) Table4(w io.Writer) error {
	rows, err := s.Table4Rows()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "aggregate error vs exact detector answer (bound 0.1), %d run avg\n", s.cfg.Runs)
	fmt.Fprintf(w, "%-13s %10s %12s  plan\n", "video", "error", "paper error")
	for _, r := range rows {
		fmt.Fprintf(w, "%-13s %+10.3f %+12.3f  %s\n", r.Stream, r.Error, r.PaperError, r.Plans[0])
	}
	return nil
}

// Table5Row compares specialized-network estimates across two days.
type Table5Row struct {
	Stream         string
	Pred1, Actual1 float64
	Pred2, Actual2 float64
	Paper          [4]float64
}

// Table5Rows trains on day 0 and evaluates the network's estimate against
// detector truth on days 1 and 2, demonstrating the networks track content
// rather than memorize the training day's average (paper Table 5).
func (s *Session) Table5Rows() ([]Table5Row, error) {
	paper := map[string][4]float64{
		"taipei":       {0.86, 0.85, 1.21, 1.17},
		"night-street": {0.76, 0.84, 0.40, 0.38},
		"rialto":       {2.25, 2.15, 2.34, 2.37},
		"grand-canal":  {0.95, 0.99, 0.87, 0.81},
	}
	var rows []Table5Row
	for _, sc := range aggStreams[:4] {
		e, err := s.Engine(sc.Stream)
		if err != nil {
			return nil, err
		}
		class := vidsim.Class(sc.Class)
		model, _, err := e.Model([]vidsim.Class{class})
		if err != nil {
			return nil, err
		}
		head := model.HeadIndex(class)
		infHeld, _, err := e.Inference([]vidsim.Class{class}, e.HeldOut)
		if err != nil {
			return nil, err
		}
		infTest, _, err := e.Inference([]vidsim.Class{class}, e.Test)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table5Row{
			Stream:  sc.Stream,
			Pred1:   infHeld.MeanExpectedCount(head),
			Actual1: exactDetectorMeanOn(e, e.HeldOut, class),
			Pred2:   infTest.MeanExpectedCount(head),
			Actual2: exactDetectorMean(e, class),
			Paper:   paper[sc.Stream],
		})
	}
	return rows, nil
}

// Table5 prints per-day estimates (paper Table 5).
func (s *Session) Table5(w io.Writer) error {
	rows, err := s.Table5Rows()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "specialized NN estimates on two different days (trained on day 0)\n")
	fmt.Fprintf(w, "%-13s %10s %10s %10s %10s   (paper: p1 a1 p2 a2)\n",
		"video", "pred day1", "act day1", "pred day2", "act day2")
	for _, r := range rows {
		fmt.Fprintf(w, "%-13s %10.2f %10.2f %10.2f %10.2f   (%.2f %.2f %.2f %.2f)\n",
			r.Stream, r.Pred1, r.Actual1, r.Pred2, r.Actual2,
			r.Paper[0], r.Paper[1], r.Paper[2], r.Paper[3])
	}
	return nil
}

// Fig5Row is one (stream, error target) sample-complexity comparison.
type Fig5Row struct {
	Stream      string
	ErrorTarget float64
	NaiveAQP    float64 // mean samples
	ControlVar  float64
	Correlation float64
}

// Figure5Rows measures sampling complexity of naive AQP and control
// variates across error targets (paper Figure 5), averaging cfg.Runs runs.
func (s *Session) Figure5Rows() ([]Fig5Row, error) {
	targets := []float64{0.01, 0.02, 0.03, 0.04, 0.05, 0.1}
	var rows []Fig5Row
	for _, sc := range allStreams {
		e, err := s.Engine(sc.Stream)
		if err != nil {
			return nil, err
		}
		class := vidsim.Class(sc.Class)
		// Precompute the measurement and signal series once; sampling runs
		// then cost nothing but RNG.
		counts := detectorCounts(e, class)
		model, _, err := e.Model([]vidsim.Class{class})
		if err != nil {
			return nil, err
		}
		head := model.HeadIndex(class)
		inf, _, err := e.Inference([]vidsim.Class{class}, e.Test)
		if err != nil {
			return nil, err
		}
		signal := make([]float64, e.Test.Frames)
		for f := range signal {
			signal[f] = inf.ExpectedCount(head, f)
		}
		tau, varT := inf.ExpectedMoments(head)
		maxK := float64(e.Train.MaxCount(class) + 1)

		for _, target := range targets {
			var naiveSum, cvSum, corrSum float64
			for run := 0; run < s.cfg.Runs; run++ {
				opts := aqp.Options{
					ErrorTarget: target,
					Confidence:  0.95,
					Range:       maxK,
					Population:  e.Test.Frames,
					Seed:        s.cfg.Seed + int64(run)*7919 + int64(target*1000),
				}
				plain := aqp.Sample(opts, func(f int) float64 { return counts[f] })
				cv := aqp.ControlVariates(opts,
					func(f int) float64 { return counts[f] },
					func(f int) float64 { return signal[f] }, tau, varT)
				naiveSum += float64(plain.Samples)
				cvSum += float64(cv.Samples)
				corrSum += cv.Correlation
			}
			n := float64(s.cfg.Runs)
			rows = append(rows, Fig5Row{
				Stream:      sc.Stream,
				ErrorTarget: target,
				NaiveAQP:    naiveSum / n,
				ControlVar:  cvSum / n,
				Correlation: corrSum / n,
			})
		}
	}
	return rows, nil
}

// Figure5 prints sample complexities (paper Figure 5).
func (s *Session) Figure5(w io.Writer) error {
	rows, err := s.Figure5Rows()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "sample complexity: naive AQP vs control variates (%d run avg)\n", s.cfg.Runs)
	fmt.Fprintf(w, "%-13s %8s %12s %14s %10s %8s\n",
		"video", "error", "naive", "control var", "reduction", "corr")
	for _, r := range rows {
		fmt.Fprintf(w, "%-13s %8.2f %12.0f %14.0f %9.2fx %8.2f\n",
			r.Stream, r.ErrorTarget, r.NaiveAQP, r.ControlVar, r.NaiveAQP/r.ControlVar, r.Correlation)
	}
	return nil
}

// exactDetectorMean is the detector's exact frame-averaged count on the
// test day (evaluation only; not charged).
func exactDetectorMean(e *core.Engine, class vidsim.Class) float64 {
	return exactDetectorMeanOn(e, e.Test, class)
}

func exactDetectorMeanOn(e *core.Engine, v *vidsim.Video, class vidsim.Class) float64 {
	d := e.DTest
	switch v {
	case e.Train:
		d = e.DTrain
	case e.HeldOut:
		d = e.DHeld
	}
	total := 0
	for f := 0; f < v.Frames; f++ {
		total += d.CountAt(f, class)
	}
	return float64(total) / float64(v.Frames)
}

// detectorCounts precomputes the detector count series on the test day.
func detectorCounts(e *core.Engine, class vidsim.Class) []float64 {
	counts := make([]float64, e.Test.Frames)
	for f := range counts {
		counts[f] = float64(e.DTest.CountAt(f, class))
	}
	return counts
}
