// Benchmarks regenerating every table and figure of the paper's evaluation
// (§10), one benchmark per artifact, plus micro-benchmarks of the hot
// paths (descriptor extraction, specialized-network inference, detection,
// parsing).
//
// The figure/table benchmarks report the reproduction's headline numbers
// as custom metrics (speedups over the naive baseline, sample-complexity
// reductions, errors), so `go test -bench .` doubles as a compact
// reproduction report. Streams are scaled by BLAZEIT_BENCH_SCALE
// (default 0.05) — absolute speedups grow with scale because sampled plans
// do constant work while naive plans scale linearly; run
// `go run ./cmd/blazebench` at scale 1.0 for the paper-scale numbers.
package blazeit

import (
	"math"
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/detect"
	"repro/internal/experiments"
	"repro/internal/feature"
	"repro/internal/frameql"
	"repro/internal/scrub"
	"repro/internal/specnn"
	"repro/internal/vidsim"
)

var (
	sessOnce sync.Once
	sess     *experiments.Session
)

func benchScale() float64 {
	if s := os.Getenv("BLAZEIT_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.05
}

func session(b *testing.B) *experiments.Session {
	b.Helper()
	sessOnce.Do(func() {
		sess = experiments.NewSession(experiments.Config{
			Scale: benchScale(),
			Runs:  3,
			Seed:  1,
		})
	})
	return sess
}

func BenchmarkTable3Streams(b *testing.B) {
	s := session(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.Table3Rows()
		if err != nil {
			b.Fatal(err)
		}
		// Report taipei car occupancy deviation from the paper.
		for _, r := range rows {
			if r.Stream == "taipei" && r.Class == "car" {
				b.ReportMetric(math.Abs(r.Occupancy-r.PaperOccupancy), "occ-abs-err")
			}
		}
	}
}

func BenchmarkFig4Aggregates(b *testing.B) {
	s := session(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.Figure4Rows()
		if err != nil {
			b.Fatal(err)
		}
		var worst float64 = math.Inf(1)
		for _, r := range rows {
			if sp := r.NaiveSec / r.BlazeItSec; sp < worst {
				worst = sp
			}
		}
		b.ReportMetric(worst, "min-blazeit-speedup")
		b.ReportMetric(rows[0].NaiveSec/rows[0].BlazeItNTSec, "taipei-notrain-speedup")
	}
}

func BenchmarkTable4RewriteError(b *testing.B) {
	s := session(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.Table4Rows()
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for _, r := range rows {
			if e := math.Abs(r.Error); e > worst {
				worst = e
			}
		}
		b.ReportMetric(worst, "max-abs-error")
	}
}

func BenchmarkTable5DaySwap(b *testing.B) {
	s := session(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.Table5Rows()
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for _, r := range rows {
			if e := math.Abs(r.Pred1 - r.Actual1); e > worst {
				worst = e
			}
			if e := math.Abs(r.Pred2 - r.Actual2); e > worst {
				worst = e
			}
		}
		b.ReportMetric(worst, "max-day-abs-error")
	}
}

func BenchmarkFig5ControlVariates(b *testing.B) {
	s := session(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.Figure5Rows()
		if err != nil {
			b.Fatal(err)
		}
		// Geometric-mean sample reduction at the tightest error target.
		logSum, n := 0.0, 0
		for _, r := range rows {
			if r.ErrorTarget == 0.01 && r.ControlVar > 0 {
				logSum += math.Log(r.NaiveAQP / r.ControlVar)
				n++
			}
		}
		b.ReportMetric(math.Exp(logSum/float64(n)), "cv-sample-reduction")
	}
}

func BenchmarkFig6Scrubbing(b *testing.B) {
	s := session(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.Figure6Rows()
		if err != nil {
			b.Fatal(err)
		}
		logSum := 0.0
		for _, r := range rows {
			logSum += math.Log(r.NaiveSec / r.BlazeItSec)
		}
		b.ReportMetric(math.Exp(logSum/float64(len(rows))), "geomean-blazeit-speedup")
	}
}

func BenchmarkFig7VaryN(b *testing.B) {
	s := session(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.Figure7Rows()
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(float64(last.BlazeSamples), "blazeit-samples-n6")
		b.ReportMetric(float64(last.NoScopeSamples)/math.Max(1, float64(last.BlazeSamples)), "n6-reduction-vs-noscope")
	}
}

func BenchmarkFig8MultiClass(b *testing.B) {
	s := session(b)
	for i := 0; i < b.N; i++ {
		r, err := s.Figure8Rows()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.NaiveSec/r.BlazeItSec, "blazeit-speedup")
		b.ReportMetric(r.NaiveSec/r.IndexedSec, "indexed-speedup")
	}
}

func BenchmarkFig9Limit(b *testing.B) {
	s := session(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.Figure9Rows()
		if err != nil {
			b.Fatal(err)
		}
		r := rows[len(rows)-1]
		b.ReportMetric(float64(r.NaiveSamples)/math.Max(1, float64(r.BlazeSamples)), "limit30-reduction")
	}
}

func BenchmarkTable6Instances(b *testing.B) {
	s := session(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.Table6Rows()
		if err != nil {
			b.Fatal(err)
		}
		total := 0
		for _, r := range rows {
			total += r.Instances
		}
		b.ReportMetric(float64(total), "total-instances")
	}
}

func BenchmarkFig10Selection(b *testing.B) {
	s := session(b)
	for i := 0; i < b.N; i++ {
		r, err := s.Figure10Rows()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.NaiveSec/r.BlazeItSec, "blazeit-speedup")
		b.ReportMetric(r.NaiveSec/r.NoScopeSec, "noscope-speedup")
		b.ReportMetric(r.FNR, "fnr")
	}
}

func BenchmarkFig11FactorLesion(b *testing.B) {
	s := session(b)
	for i := 0; i < b.N; i++ {
		factor, lesion, err := s.Figure11Rows()
		if err != nil {
			b.Fatal(err)
		}
		base := factor[0].Seconds
		b.ReportMetric(base/factor[len(factor)-1].Seconds, "all-filters-speedup")
		full := lesion[0].Seconds
		worst := 1.0
		for _, r := range lesion[1:] {
			if slow := r.Seconds / full; slow > worst {
				worst = slow
			}
		}
		b.ReportMetric(worst, "worst-lesion-slowdown")
	}
}

// --- Ablations beyond the paper's figures ---

// BenchmarkAblationStartup varies the adaptive-sampling startup rule:
// using the theory-driven K/eps startup vs starting from a tiny sample.
// A tiny startup terminates on unreliable variance estimates and risks
// violating the error bound; the metric is the violation rate.
func BenchmarkAblationStartup(b *testing.B) {
	s := session(b)
	e, err := s.Engine("taipei")
	if err != nil {
		b.Fatal(err)
	}
	counts := make([]float64, e.Test.Frames)
	for f := range counts {
		counts[f] = float64(e.DTest.CountAt(f, vidsim.Car))
	}
	truth := 0.0
	for _, c := range counts {
		truth += c
	}
	truth /= float64(len(counts))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		violations := 0
		const runs = 50
		for r := 0; r < runs; r++ {
			res := sampleWithStartup(counts, 2, 0.05, int64(r)) // tiny startup
			if math.Abs(res-truth) > 0.05 {
				violations++
			}
		}
		b.ReportMetric(float64(violations)/runs, "tiny-startup-violation-rate")
		violations = 0
		for r := 0; r < runs; r++ {
			res := sampleWithStartup(counts, int(float64(e.Train.MaxCount(vidsim.Car)+1)/0.05), 0.05, int64(r))
			if math.Abs(res-truth) > 0.05 {
				violations++
			}
		}
		b.ReportMetric(float64(violations)/runs, "keps-startup-violation-rate")
	}
}

// sampleWithStartup is a miniature AQP loop with an explicit startup size.
func sampleWithStartup(counts []float64, startup int, eps float64, seed int64) float64 {
	rng := newSplitRand(seed)
	n, mean, m2 := 0, 0.0, 0.0
	add := func(x float64) {
		n++
		d := x - mean
		mean += d / float64(n)
		m2 += d * (x - mean)
	}
	for i := 0; i < startup; i++ {
		add(counts[rng.Intn(len(counts))])
	}
	for {
		sd := math.Sqrt(m2 / math.Max(1, float64(n-1)))
		if 1.96*sd/math.Sqrt(float64(n)) < eps || n >= len(counts) {
			return mean
		}
		for i := 0; i < startup; i++ {
			add(counts[rng.Intn(len(counts))])
		}
	}
}

// BenchmarkAblationJointHead compares the paper's per-class multi-head
// specialization (§7.1) against the alternative it rejects for
// class-imbalance reasons; the metric is the scrubbing sample complexity
// using each network's confidences.
func BenchmarkAblationJointHead(b *testing.B) {
	s := session(b)
	e, err := s.Engine("taipei")
	if err != nil {
		b.Fatal(err)
	}
	info, err := frameql.Analyze(`
		SELECT timestamp FROM taipei GROUP BY timestamp
		HAVING SUM(class='bus') >= 1 AND SUM(class='car') >= 3 LIMIT 10`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Execute(info)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Stats.DetectorCalls), "multihead-samples")
	}
}

// --- Micro-benchmarks of the substrate hot paths ---

func microVideo(b *testing.B) *vidsim.Video {
	b.Helper()
	cfg, err := vidsim.Stream("taipei")
	if err != nil {
		b.Fatal(err)
	}
	return vidsim.Generate(cfg.Scaled(0.01), 0)
}

func BenchmarkFeatureExtraction(b *testing.B) {
	v := microVideo(b)
	ex := feature.NewExtractor(v)
	desc := make([]float64, feature.Dim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.Frame(i%v.Frames, desc)
	}
}

func BenchmarkDetection(b *testing.B) {
	v := microVideo(b)
	d, err := detect.New(v)
	if err != nil {
		b.Fatal(err)
	}
	var dets []detect.Detection
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dets = d.Detect(i%v.Frames, dets[:0])
	}
}

func BenchmarkSpecNNInference(b *testing.B) {
	v := microVideo(b)
	d, err := detect.New(v)
	if err != nil {
		b.Fatal(err)
	}
	m, err := specnn.Train(v, d, []vidsim.Class{vidsim.Car}, specnn.Options{
		TrainFrames: 4000, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	ex := feature.NewExtractor(v)
	pred := m.Net.NewPredictor()
	desc := make([]float64, feature.Dim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.Frame(i%v.Frames, desc)
		m.Normalize(desc)
		pred.Probs(desc)
	}
}

func BenchmarkFrameQLParse(b *testing.B) {
	const q = `SELECT * FROM taipei WHERE class = 'bus' AND redness(content) >= 17.5
		AND area(mask) > 100000 GROUP BY trackid HAVING COUNT(*) > 15`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := frameql.Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGroundTruthCounts(b *testing.B) {
	v := microVideo(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v.CountAt(i%v.Frames, vidsim.Car)
	}
}

// newSplitRand is a tiny deterministic RNG for the ablation bench (avoids
// pulling math/rand's global state into benchmarks).
type splitRand struct{ s uint64 }

func newSplitRand(seed int64) *splitRand { return &splitRand{s: uint64(seed)*2685821657736338717 + 1} }

func (r *splitRand) Intn(n int) int {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(n))
}

// BenchmarkAblationScrubCombiner compares multi-class score combiners for
// the bus+5-cars query: the paper's sum, the independence product, and the
// conservative min. The metric is detector verifications to find 10
// events — lower is better.
func BenchmarkAblationScrubCombiner(b *testing.B) {
	s := session(b)
	e, err := s.Engine("taipei")
	if err != nil {
		b.Fatal(err)
	}
	classes := []vidsim.Class{vidsim.Bus, vidsim.Car}
	inf, _, err := e.Inference(classes, e.Test)
	if err != nil {
		b.Fatal(err)
	}
	reqs := []scrub.Requirement{
		{Class: vidsim.Bus, N: 1},
		{Class: vidsim.Car, N: 5},
	}
	verify := func(f int) bool {
		return e.DTest.CountAt(f, vidsim.Bus) >= 1 && e.DTest.CountAt(f, vidsim.Car) >= 5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range []struct {
			name string
			comb scrub.Combiner
		}{
			{"sum-verifications", scrub.CombineSum},
			{"product-verifications", scrub.CombineProduct},
			{"min-verifications", scrub.CombineMin},
		} {
			order, err := scrub.RankByConfidenceCombiner(inf, reqs, c.comb)
			if err != nil {
				b.Fatal(err)
			}
			res := scrub.Search(order, 10, 0, verify)
			b.ReportMetric(float64(res.Verified), c.name)
		}
	}
}
