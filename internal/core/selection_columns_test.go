package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/filters"
	"repro/internal/frameql"
	"repro/internal/specnn"
	"repro/internal/vidsim"
)

// TestCascadeTrainingReadsHeldOutColumns: with a held-out segment,
// trainSelection takes every cascade signal from its columns — content
// signals and the label check alike. The trained content filters and the
// measured pass rates must be the ones descriptors and the network give,
// recomputed here frame by frame with an Evaluator, bit for bit.
func TestCascadeTrainingReadsHeldOutColumns(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	e := testEngine(t, "taipei")
	for _, q := range []string{
		fmt.Sprintf(selFixtureRedBus, ""),
		`SELECT * FROM taipei WHERE class = 'car' AND redness(content) >= 12 AND blueness(content) >= 1 LIMIT 6`,
	} {
		info, err := frameql.Analyze(q)
		if err != nil {
			t.Fatal(err)
		}
		class := vidsim.Class(info.Classes[0])
		model, _, err := e.Model([]vidsim.Class{class})
		if err != nil {
			t.Fatal(err)
		}
		segHeld, _, err := e.segment([]vidsim.Class{class}, e.HeldOut)
		if err != nil {
			t.Fatal(err)
		}
		target := filters.Target{Class: class, Preds: info.UDFs}
		prod := e.trainSelection(target, true, model, segHeld)
		if len(prod.Content) == 0 || prod.Label == nil {
			t.Fatalf("%s: trained %d content filters and label %v; the shape needs both kinds", class, len(prod.Content), prod.Label)
		}

		var fromDescriptors []*filters.ContentFilter
		for _, pred := range info.UDFs {
			if pred.Arg != "content" {
				continue
			}
			if cf := filters.TrainContentFilter(e.HeldOut, e.DHeld, target, pred, e.opts.HeldOutSample, nil); cf != nil {
				fromDescriptors = append(fromDescriptors, cf)
			}
		}
		if len(fromDescriptors) != len(prod.Content) {
			t.Fatalf("%s: %d filters from columns, %d from descriptors", class, len(prod.Content), len(fromDescriptors))
		}
		for i, cf := range fromDescriptors {
			if *cf != *prod.Content[i] {
				t.Errorf("%s: filter from columns %+v, from descriptors %+v", class, *prod.Content[i], *cf)
			}
		}

		ev := specnn.NewEvaluator(model, e.HeldOut)
		n, contentPass, jointPass := 0, 0, 0
		for f := 0; f < e.HeldOut.Frames; f += planStride(e.HeldOut.Frames, e.opts.HeldOutSample) {
			n++
			ev.Seek(f)
			pass := true
			for _, cf := range fromDescriptors {
				pass = pass && cf.Admits(cf.Signal(ev.Raw()))
			}
			if pass {
				contentPass++
				pass = ev.TailProb(prod.Label.Head, 1) >= prod.Label.Threshold
			}
			if pass {
				jointPass++
			}
		}
		want := filters.CascadeRates{Content: float64(contentPass) / float64(n), Joint: float64(jointPass) / float64(n)}
		if math.Float64bits(prod.Rates.Content) != math.Float64bits(want.Content) ||
			math.Float64bits(prod.Rates.Joint) != math.Float64bits(want.Joint) {
			t.Errorf("%s: rates from columns %+v, from the network %+v", class, prod.Rates, want)
		}
	}
}
