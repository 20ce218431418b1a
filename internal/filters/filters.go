// Package filters implements BlazeIt's content-based selection filters
// (paper §8): cheap per-frame tests inferred from the query that discard
// irrelevant frames before the expensive detector runs.
//
// Four filter classes are supported, mirroring §8:
//
//   - label-based: a specialized network's presence confidence for the
//     queried class, thresholded for zero false negatives on held-out data;
//   - content-based: a frame-level surrogate of the query's content UDF
//     (e.g. max-cell redness for a redness(content) predicate), thresholded
//     the same way;
//   - temporal: subsampling at (K−1)/2 when the query requires objects
//     visible for at least K frames, plus explicit timestamp ranges;
//   - spatial: a region of interest from the query's mask-bound predicates
//     (xmin/xmax/ymin/ymax), which both restricts detection and makes the
//     detector input smaller and squarer (cheaper).
//
// Thresholds are statistical, so they are estimated on the held-out day and
// set conservatively to admit every qualifying frame seen there (§8: "we
// only consider the case where the filters are set to have no false
// negatives on the held-out set").
package filters

import (
	"fmt"
	"math"

	"repro/internal/detect"
	"repro/internal/feature"
	"repro/internal/frameql"
	"repro/internal/specnn"
	"repro/internal/vidsim"
)

// ObjectUDF evaluates a UDF over one detection (its box and content).
type ObjectUDF func(d *detect.Detection) float64

// FrameUDF evaluates a UDF surrogate over a whole-frame descriptor.
type FrameUDF func(desc []float64) float64

// ObjectUDFFor returns the object-level implementation of a named UDF.
// Supported: redness, blueness (content); area, xmin, xmax, ymin, ymax,
// width, height (mask).
func ObjectUDFFor(name string) (ObjectUDF, bool) {
	switch name {
	case "redness":
		return func(d *detect.Detection) float64 { return d.Color.Redness() }, true
	case "blueness":
		return func(d *detect.Detection) float64 { return d.Color.Blueness() }, true
	case "area":
		return func(d *detect.Detection) float64 { return d.Box.Area() }, true
	case "xmin":
		return func(d *detect.Detection) float64 { return d.Box.X }, true
	case "xmax":
		return func(d *detect.Detection) float64 { return d.Box.XMax() }, true
	case "ymin":
		return func(d *detect.Detection) float64 { return d.Box.Y }, true
	case "ymax":
		return func(d *detect.Detection) float64 { return d.Box.YMax() }, true
	case "width":
		return func(d *detect.Detection) float64 { return d.Box.W }, true
	case "height":
		return func(d *detect.Detection) float64 { return d.Box.H }, true
	}
	return nil, false
}

// FrameUDFFor returns the frame-level surrogate of a named content UDF, if
// one exists. Only continuous, frame-meaningful UDFs have surrogates
// (paper §8.1); they are the entries of feature.FrameUDFs.
func FrameUDFFor(name string) (FrameUDF, bool) {
	if u := feature.FrameUDFIndex(name); u >= 0 {
		return feature.FrameUDFs[u].Signal, true
	}
	return nil, false
}

// Compare applies a comparison operator.
func Compare(v float64, op string, threshold float64) bool {
	switch op {
	case ">":
		return v > threshold
	case ">=":
		return v >= threshold
	case "<":
		return v < threshold
	case "<=":
		return v <= threshold
	case "=":
		return v == threshold
	case "!=":
		return v != threshold
	}
	return false
}

// Target describes the objects a selection query is after: a class plus
// object-level UDF predicates (content and mask).
type Target struct {
	Class vidsim.Class
	Preds []frameql.UDFPred
}

// ObjectMatches reports whether a detection satisfies the target.
func ObjectMatches(d *detect.Detection, t Target) (bool, error) {
	if d.Class != t.Class {
		return false, nil
	}
	for _, p := range t.Preds {
		udf, ok := ObjectUDFFor(p.Func)
		if !ok {
			return false, fmt.Errorf("filters: unknown UDF %q", p.Func)
		}
		if !Compare(udf(d), p.Op, p.Value) {
			return false, nil
		}
	}
	return true, nil
}

// ContentFilter is a trained frame-level content filter.
type ContentFilter struct {
	// UDF is the source predicate's function name.
	UDF string
	// Column is the UDF's position in feature.FrameUDFs, resolved once at
	// training: the index column the filter reads and the surrogate it
	// computes from a descriptor.
	Column int
	// Threshold admits frames whose frame-level signal is >= Threshold.
	Threshold float64
	// Selectivity is the fraction of held-out frames admitted.
	Selectivity float64
}

// Signal computes the filter's frame-level signal from a raw descriptor —
// the value the index's content column holds for the frame.
func (c *ContentFilter) Signal(desc []float64) float64 {
	return feature.FrameUDFs[c.Column].Signal(desc)
}

// Admits reports whether a frame with the given signal passes the filter.
func (c *ContentFilter) Admits(signal float64) bool { return signal >= c.Threshold }

// LabelFilter is a trained specialized-network presence filter.
type LabelFilter struct {
	// Head is the model head index for the target class.
	Head int
	// Threshold admits frames with P(count >= 1) >= Threshold.
	Threshold float64
	// Selectivity is the fraction of held-out frames admitted.
	Selectivity float64
}

// Pass reports whether the frame passes given the inference index.
func (l *LabelFilter) Pass(inf *specnn.Inference, frame int) bool {
	return inf.TailProb(l.Head, frame, 1) >= l.Threshold
}

// safetyMargin loosens no-false-negative thresholds to survive mild
// distribution shift between the held-out and unseen days.
const safetyMargin = 0.9

// trainStride returns the stride covering at most sampleN frames evenly;
// sampleN <= 0 means every frame.
func trainStride(frames, sampleN int) int {
	if sampleN <= 0 || sampleN >= frames {
		return 1
	}
	return (frames + sampleN - 1) / sampleN
}

// Columns is a materialized day's per-frame signals — an index segment:
// each frame-level content UDF's signal (u its position in
// feature.FrameUDFs) and each model head's exact presence tail, the bits
// descriptors and the network give.
type Columns interface {
	Signal(u, frame int) float64
	Tail1(head, frame int) float64
}

// frameSignals yields frames' content signals from a day's columns or,
// without any, from the frames' raw descriptors.
type frameSignals struct {
	cols Columns
	ex   *feature.Extractor
	desc []float64
	at   int
}

func newFrameSignals(v *vidsim.Video, cols Columns) *frameSignals {
	s := &frameSignals{cols: cols, at: -1}
	if cols == nil {
		s.ex, s.desc = feature.NewExtractor(v), make([]float64, feature.Dim)
	}
	return s
}

// signal returns frame UDF u's signal at frame f.
func (s *frameSignals) signal(u, f int) float64 {
	if s.cols != nil {
		return s.cols.Signal(u, f)
	}
	if s.at != f {
		s.ex.Frame(f, s.desc)
		s.at = f
	}
	return feature.FrameUDFs[u].Signal(s.desc)
}

// TrainContentFilter learns a zero-false-negative frame-level threshold for
// a content predicate on the held-out day, scanning every stride-th frame
// (sampleN <= 0 scans all frames; the signals involved run at ~100,000 fps,
// so a full scan is cheap). cols are the held-out day's columns; nil
// computes each sampled frame's signal from its descriptor instead (the
// same bits). Detector labels are part of the offline labeled set. It
// returns nil (no filter) when the UDF has no frame-level surrogate, the
// predicate is not a lower bound, or no qualifying frames exist on the
// held-out day.
func TrainContentFilter(heldOut *vidsim.Video, det *detect.Detector, target Target, pred frameql.UDFPred, sampleN int, cols Columns) *ContentFilter {
	if pred.Op != ">" && pred.Op != ">=" {
		return nil
	}
	cf := &ContentFilter{UDF: pred.Func, Column: feature.FrameUDFIndex(pred.Func)}
	if cf.Column < 0 {
		return nil
	}
	stride := trainStride(heldOut.Frames, sampleN)
	frames := newFrameSignals(heldOut, cols)
	var dets []detect.Detection

	signals := make([]float64, 0, heldOut.Frames/stride+1)
	minQualifying := math.Inf(1)
	qualifying := 0
	for f := 0; f < heldOut.Frames; f += stride {
		signal := frames.signal(cf.Column, f)
		signals = append(signals, signal)
		dets = det.Detect(f, dets[:0])
		for di := range dets {
			if ok, err := ObjectMatches(&dets[di], target); err == nil && ok {
				qualifying++
				if signal < minQualifying {
					minQualifying = signal
				}
				break
			}
		}
	}
	if qualifying == 0 {
		return nil
	}
	cf.Threshold = minQualifying * safetyMargin
	pass := 0
	for _, s := range signals {
		if cf.Admits(s) {
			pass++
		}
	}
	cf.Selectivity = float64(pass) / float64(len(signals))
	return cf
}

// TrainLabelFilter learns a zero-false-negative presence threshold for the
// target class from the specialized network on the held-out day, scanning
// every stride-th frame (sampleN <= 0 scans all). It returns nil when the
// model lacks a head for the class or no qualifying frames exist.
func TrainLabelFilter(heldOut *vidsim.Video, det *detect.Detector, model *specnn.CountModel, infHeld *specnn.Inference, target Target, sampleN int) *LabelFilter {
	head := model.HeadIndex(target.Class)
	if head < 0 {
		return nil
	}
	stride := trainStride(heldOut.Frames, sampleN)
	var dets []detect.Detection
	minQualifying := math.Inf(1)
	qualifying := 0
	total := 0
	for f := 0; f < heldOut.Frames; f += stride {
		total++
		dets = det.Detect(f, dets[:0])
		for di := range dets {
			if ok, err := ObjectMatches(&dets[di], target); err == nil && ok {
				qualifying++
				if s := infHeld.TailProb(head, f, 1); s < minQualifying {
					minQualifying = s
				}
				break
			}
		}
	}
	if qualifying == 0 {
		return nil
	}
	threshold := minQualifying * safetyMargin
	pass := 0
	for f := 0; f < heldOut.Frames; f += stride {
		if infHeld.TailProb(head, f, 1) >= threshold {
			pass++
		}
	}
	return &LabelFilter{
		Head:        head,
		Threshold:   threshold,
		Selectivity: float64(pass) / float64(total),
	}
}

// CascadeRates are measured held-out pass rates for a trained filter
// cascade. The filters detect the same objects and are therefore highly
// correlated — multiplying individual selectivities would badly
// underestimate the joint pass rate, so the cascade is measured jointly.
type CascadeRates struct {
	// Content is the fraction of frames passing every content filter.
	Content float64
	// Joint is the fraction passing content and label filters together —
	// the frames the detector runs on.
	Joint float64
}

// MeasureCascade measures a trained cascade's pass rates on every
// stride-th held-out frame (sampleN as for the Train functions). The label
// filter, when there is one, reads the exact presence-tail column, so it
// needs cols; content filters read cols when given, descriptors otherwise.
func MeasureCascade(heldOut *vidsim.Video, content []*ContentFilter, label *LabelFilter, cols Columns, sampleN int) CascadeRates {
	if label != nil && cols == nil {
		panic("filters: measuring a label filter needs the held-out columns")
	}
	frames := newFrameSignals(heldOut, cols)
	stride := trainStride(heldOut.Frames, sampleN)
	n, contentPass, jointPass := 0, 0, 0
	for f := 0; f < heldOut.Frames; f += stride {
		n++
		pass := true
		for _, cf := range content {
			if !cf.Admits(frames.signal(cf.Column, f)) {
				pass = false
				break
			}
		}
		if pass {
			contentPass++
			pass = label == nil || cols.Tail1(label.Head, f) >= label.Threshold
		}
		if pass {
			jointPass++
		}
	}
	if n == 0 {
		return CascadeRates{Content: 1, Joint: 1}
	}
	return CascadeRates{Content: float64(contentPass) / float64(n), Joint: float64(jointPass) / float64(n)}
}

// TemporalStep returns the frame subsampling step the duration constraint
// permits: (K−1)/2 for "visible at least K frames" (§8: a K-frame
// appearance is guaranteed at least two samples), at least 1.
func TemporalStep(minDurationFrames int) int {
	s := (minDurationFrames - 1) / 2
	if s < 1 {
		return 1
	}
	return s
}

// ROIFromPreds derives a spatial region of interest from mask-bound
// predicates (xmin/xmax/ymin/ymax with inequality operators). The second
// return is false when no spatial predicate was present. The remaining
// (non-spatial) predicates should still be applied per object.
func ROIFromPreds(preds []frameql.UDFPred, width, height float64) (vidsim.Box, bool) {
	x0, y0 := 0.0, 0.0
	x1, y1 := width, height
	found := false
	for _, p := range preds {
		switch {
		case p.Func == "xmax" && (p.Op == "<" || p.Op == "<="):
			x1 = math.Min(x1, p.Value)
			found = true
		case p.Func == "xmin" && (p.Op == ">" || p.Op == ">="):
			x0 = math.Max(x0, p.Value)
			found = true
		case p.Func == "ymax" && (p.Op == "<" || p.Op == "<="):
			y1 = math.Min(y1, p.Value)
			found = true
		case p.Func == "ymin" && (p.Op == ">" || p.Op == ">="):
			y0 = math.Max(y0, p.Value)
			found = true
		}
	}
	if !found || x1 <= x0 || y1 <= y0 {
		return vidsim.Box{X: 0, Y: 0, W: width, H: height}, false
	}
	return vidsim.Box{X: x0, Y: y0, W: x1 - x0, H: y1 - y0}, true
}

// SpatialPred reports whether a UDF predicate is a spatial bound consumed
// by ROIFromPreds.
func SpatialPred(p frameql.UDFPred) bool {
	switch p.Func {
	case "xmin", "xmax", "ymin", "ymax":
		return p.Op == "<" || p.Op == "<=" || p.Op == ">" || p.Op == ">="
	}
	return false
}
