package filters

import (
	"testing"

	"repro/internal/detect"
	"repro/internal/feature"
	"repro/internal/frameql"
	"repro/internal/specnn"
	"repro/internal/vidsim"
)

func TestCompare(t *testing.T) {
	cases := []struct {
		v    float64
		op   string
		th   float64
		want bool
	}{
		{5, ">", 4, true}, {5, ">", 5, false},
		{5, ">=", 5, true}, {4, ">=", 5, false},
		{3, "<", 4, true}, {4, "<", 4, false},
		{4, "<=", 4, true}, {5, "<=", 4, false},
		{4, "=", 4, true}, {4, "=", 5, false},
		{4, "!=", 5, true}, {4, "!=", 4, false},
		{4, "??", 4, false},
	}
	for _, c := range cases {
		if got := Compare(c.v, c.op, c.th); got != c.want {
			t.Errorf("Compare(%v %s %v) = %v", c.v, c.op, c.th, got)
		}
	}
}

func TestObjectUDFs(t *testing.T) {
	d := &detect.Detection{
		Class: vidsim.Bus,
		Box:   vidsim.Box{X: 10, Y: 20, W: 100, H: 50},
		Color: vidsim.Color{R: 0.8, G: 0.1, B: 0.1},
	}
	cases := []struct {
		name string
		want float64
	}{
		{"area", 5000}, {"xmin", 10}, {"xmax", 110},
		{"ymin", 20}, {"ymax", 70}, {"width", 100}, {"height", 50},
	}
	for _, c := range cases {
		udf, ok := ObjectUDFFor(c.name)
		if !ok {
			t.Fatalf("missing UDF %s", c.name)
		}
		if got := udf(d); got != c.want {
			t.Errorf("%s = %v, want %v", c.name, got, c.want)
		}
	}
	redness, _ := ObjectUDFFor("redness")
	if redness(d) < 100 {
		t.Error("red bus should score high redness")
	}
	if _, ok := ObjectUDFFor("nope"); ok {
		t.Error("unknown UDF should not resolve")
	}
}

func TestFrameUDFRegistry(t *testing.T) {
	if _, ok := FrameUDFFor("redness"); !ok {
		t.Error("redness should have a frame surrogate")
	}
	if _, ok := FrameUDFFor("blueness"); !ok {
		t.Error("blueness should have a frame surrogate")
	}
	if _, ok := FrameUDFFor("area"); ok {
		t.Error("area has no frame surrogate")
	}
}

func TestObjectMatches(t *testing.T) {
	d := &detect.Detection{
		Class: vidsim.Bus,
		Box:   vidsim.Box{X: 0, Y: 0, W: 400, H: 300},
		Color: vidsim.Color{R: 0.8, G: 0.1, B: 0.1},
	}
	target := Target{
		Class: vidsim.Bus,
		Preds: []frameql.UDFPred{
			{Func: "redness", Arg: "content", Op: ">=", Value: 17.5},
			{Func: "area", Arg: "mask", Op: ">", Value: 100000},
		},
	}
	if ok, err := ObjectMatches(d, target); err != nil || !ok {
		t.Errorf("red big bus should match: %v %v", ok, err)
	}
	small := *d
	small.Box = vidsim.Box{W: 10, H: 10}
	if ok, _ := ObjectMatches(&small, target); ok {
		t.Error("small bus should fail area predicate")
	}
	car := *d
	car.Class = vidsim.Car
	if ok, _ := ObjectMatches(&car, target); ok {
		t.Error("car should fail class check")
	}
	bad := Target{Class: vidsim.Bus, Preds: []frameql.UDFPred{{Func: "nope", Op: ">", Value: 1}}}
	if _, err := ObjectMatches(d, bad); err == nil {
		t.Error("unknown UDF should error")
	}
}

func TestTemporalStep(t *testing.T) {
	cases := []struct{ k, want int }{
		{0, 1}, {1, 1}, {2, 1}, {3, 1}, {15, 7}, {16, 7}, {31, 15},
	}
	for _, c := range cases {
		if got := TemporalStep(c.k); got != c.want {
			t.Errorf("TemporalStep(%d) = %d, want %d", c.k, got, c.want)
		}
	}
}

func TestROIFromPreds(t *testing.T) {
	roi, ok := ROIFromPreds([]frameql.UDFPred{
		{Func: "xmax", Arg: "mask", Op: "<=", Value: 900},
	}, 1280, 720)
	if !ok {
		t.Fatal("expected spatial predicate to produce ROI")
	}
	if roi.X != 0 || roi.W != 900 || roi.H != 720 {
		t.Errorf("roi = %+v", roi)
	}

	roi, ok = ROIFromPreds([]frameql.UDFPred{
		{Func: "xmin", Arg: "mask", Op: ">=", Value: 100},
		{Func: "ymax", Arg: "mask", Op: "<", Value: 500},
	}, 1280, 720)
	if !ok || roi.X != 100 || roi.W != 1180 || roi.H != 500 {
		t.Errorf("roi = %+v ok=%v", roi, ok)
	}

	// No spatial predicates: full frame, ok = false.
	roi, ok = ROIFromPreds([]frameql.UDFPred{
		{Func: "redness", Arg: "content", Op: ">=", Value: 17.5},
	}, 1280, 720)
	if ok || roi.W != 1280 || roi.H != 720 {
		t.Errorf("roi = %+v ok=%v", roi, ok)
	}

	// Contradictory bounds degrade to full frame.
	_, ok = ROIFromPreds([]frameql.UDFPred{
		{Func: "xmax", Arg: "mask", Op: "<", Value: 100},
		{Func: "xmin", Arg: "mask", Op: ">", Value: 900},
	}, 1280, 720)
	if ok {
		t.Error("contradictory bounds should not produce an ROI")
	}
}

func TestSpatialPred(t *testing.T) {
	if !SpatialPred(frameql.UDFPred{Func: "xmax", Op: "<", Value: 1}) {
		t.Error("xmax< is spatial")
	}
	if SpatialPred(frameql.UDFPred{Func: "area", Op: ">", Value: 1}) {
		t.Error("area is not spatial")
	}
	if SpatialPred(frameql.UDFPred{Func: "xmax", Op: "=", Value: 1}) {
		t.Error("equality is not a bound")
	}
}

// Integration: train filters on a real held-out day and verify the
// no-false-negative property on that day plus nontrivial selectivity.
func TestTrainedFiltersNoFalseNegatives(t *testing.T) {
	cfg, err := vidsim.Stream("taipei")
	if err != nil {
		t.Fatal(err)
	}
	cfg = cfg.Scaled(0.02)
	train := vidsim.Generate(cfg, 0)
	held := vidsim.Generate(cfg, 1)
	dTrain, _ := detect.New(train)
	dHeld, _ := detect.New(held)

	target := Target{
		Class: vidsim.Bus,
		Preds: []frameql.UDFPred{{Func: "redness", Arg: "content", Op: ">=", Value: 17.5}},
	}
	pred := target.Preds[0]

	cf := TrainContentFilter(held, dHeld, target, pred, 0, nil)
	if cf == nil {
		t.Skip("no red buses on held-out day at this scale")
	}
	if cf.Selectivity <= 0 || cf.Selectivity > 1 {
		t.Fatalf("selectivity = %v", cf.Selectivity)
	}
	if cf.Selectivity > 0.9 {
		t.Errorf("content filter admits %.0f%% of frames; too weak to matter", cf.Selectivity*100)
	}

	model, err := specnn.Train(train, dTrain, []vidsim.Class{vidsim.Bus}, specnn.Options{
		TrainFrames: 15000, Epochs: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	infHeld := specnn.Run(model, held)
	// Trained from the inference pass's content column, the filter is the
	// one trained from descriptors, bit for bit.
	run, _ := specnn.RunRange(model, held, 0, held.Frames)
	cols := runColumns{run}
	if got := TrainContentFilter(held, dHeld, target, pred, 0, cols); *got != *cf {
		t.Errorf("filter trained from the column %+v, from descriptors %+v", *got, *cf)
	}
	lf := TrainLabelFilter(held, dHeld, model, infHeld, target, 0)
	if lf == nil {
		t.Fatal("label filter should train")
	}
	if lf.Selectivity > 0.9 {
		t.Errorf("label filter admits %.0f%% of frames", lf.Selectivity*100)
	}

	// The cascade's pass rates read from columns are the ones descriptors
	// and the network give, frame by frame.
	const sampleN = 3000
	got := MeasureCascade(held, []*ContentFilter{cf}, lf, cols, sampleN)
	ev := specnn.NewEvaluator(model, held)
	n, contentPass, jointPass := 0, 0, 0
	for f := 0; f < held.Frames; f += trainStride(held.Frames, sampleN) {
		n++
		ev.Seek(f)
		if cf.Admits(cf.Signal(ev.Raw())) {
			contentPass++
			if ev.TailProb(lf.Head, 1) >= lf.Threshold {
				jointPass++
			}
		}
	}
	if want := (CascadeRates{Content: float64(contentPass) / float64(n), Joint: float64(jointPass) / float64(n)}); got != want {
		t.Errorf("cascade rates from columns %+v, from the network %+v", got, want)
	}
	if got := MeasureCascade(held, []*ContentFilter{cf}, nil, nil, sampleN); got.Content != float64(contentPass)/float64(n) {
		t.Errorf("content rate from descriptors %v, want %v", got.Content, float64(contentPass)/float64(n))
	}

	// No false negatives on the held-out day: every frame with a matching
	// object passes both filters.
	ex := feature.NewExtractor(held)
	desc := make([]float64, feature.Dim)
	var dets []detect.Detection
	checked := 0
	for f := 0; f < held.Frames && checked < 4000; f += 3 {
		checked++
		dets = dHeld.Detect(f, dets[:0])
		hasMatch := false
		for di := range dets {
			if ok, _ := ObjectMatches(&dets[di], target); ok {
				hasMatch = true
				break
			}
		}
		if !hasMatch {
			continue
		}
		ex.Frame(f, desc)
		if !cf.Admits(cf.Signal(desc)) {
			t.Errorf("frame %d: content filter false negative", f)
		}
		if !lf.Pass(infHeld, f) {
			t.Errorf("frame %d: label filter false negative", f)
		}
	}
}

func TestTrainContentFilterRejectsUpperBounds(t *testing.T) {
	cfg, _ := vidsim.Stream("taipei")
	cfg = cfg.Scaled(0.002)
	held := vidsim.Generate(cfg, 1)
	dHeld, _ := detect.New(held)
	target := Target{Class: vidsim.Bus}
	if f := TrainContentFilter(held, dHeld, target,
		frameql.UDFPred{Func: "redness", Arg: "content", Op: "<", Value: 17.5}, 500, nil); f != nil {
		t.Error("upper-bound predicates have no conservative frame filter")
	}
	if f := TrainContentFilter(held, dHeld, target,
		frameql.UDFPred{Func: "area", Arg: "mask", Op: ">", Value: 1}, 500, nil); f != nil {
		t.Error("area has no frame surrogate")
	}
}

// runColumns serves an inference pass over a whole day as Columns.
type runColumns struct{ c specnn.Columns }

func (r runColumns) Signal(u, f int) float64   { return r.c.Signals[u][f] }
func (r runColumns) Tail1(head, f int) float64 { return r.c.Tail1[head][f] }
