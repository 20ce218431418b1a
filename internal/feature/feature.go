// Package feature computes cheap synthetic frame descriptors — the stand-in
// for the 65×65 downsampled pixels the paper feeds its specialized networks
// and for the low-level visual features (average colors) its content-based
// filters use.
//
// A descriptor is a GridSize×GridSize×3 color grid plus derived channels
// and global channel means: the background color modulated by a diurnal
// brightness curve, plus each visible object's color weighted by its
// coverage of each cell, plus per-cell Gaussian pixel noise. The noise is
// counter-based (internal/hrand) so a frame's descriptor is identical no
// matter when or how often it is computed.
//
// In the simulator's cost model, descriptor computation belongs to the
// ~100,000 fps class of cheap filters (paper §5).
package feature

import (
	"math"

	"repro/internal/hrand"
	"repro/internal/vidsim"
)

// GridSize is the number of cells along each frame axis.
const GridSize = 6

// Dim is the descriptor dimensionality: GridSize² cells × 3 color channels,
// one deviation magnitude per cell, one foreground-occupancy value per
// cell, plus 3 global channel means.
//
// The derived channels stand in for what a 65×65 pixel input gives a real
// ConvNet for free: |cell − global mean| (color deviation) and a noisy
// foreground-coverage estimate per cell (what edge/texture responses
// provide, and what two differently-colored overlapping objects still
// produce even when their mean colors cancel). With a small MLP these make
// per-frame counting nearly linear.
const Dim = GridSize*GridSize*3 + 2*GridSize*GridSize + 3

// CostSeconds is the simulated per-frame cost of computing a descriptor,
// in the paper's 100,000 fps filter class.
const CostSeconds = 1e-5

// Extractor computes descriptors for one video. It is stateless apart from
// reusable buffers; create one per goroutine.
type Extractor struct {
	video *vidsim.Video
	objs  []vidsim.Object
}

// NewExtractor returns an Extractor over v.
func NewExtractor(v *vidsim.Video) *Extractor {
	return &Extractor{video: v}
}

// noiseSalt namespaces feature noise within the per-stream hash domain so
// it never collides with detector noise derived from the same seed.
const noiseSalt int64 = 0x5eed_0f_0e

// hnorm returns the deterministic standard-normal noise value for the given
// stream seed, frame, and channel.
func hnorm(seed, frame, channel int64) float64 {
	return hrand.Norm(noiseSalt, seed, frame, channel)
}

// Frame computes the descriptor for the given frame into dst, which must
// have length Dim (or be nil, in which case a new slice is allocated).
// Layout: cells row-major with 3 channels each, then per-cell deviations,
// then per-cell occupancies, then 3 global means.
func (e *Extractor) Frame(frame int, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, Dim)
	}
	if len(dst) != Dim {
		panic("feature: dst has wrong length")
	}
	cfg := &e.video.Config
	w := float64(cfg.Width)
	h := float64(cfg.Height)

	// Diurnal brightness: ±12% over the day. Time-of-day is the frame's
	// position in the full generated day (FramesPerDay), not the video's
	// currently visible frame count — a live video that has only produced
	// its first hour must light that hour the same way the finished day
	// does, or incremental indexing would disagree with a full build.
	bright := 1 + 0.12*math.Sin(2*math.Pi*float64(frame)/float64(e.video.Config.FramesPerDay))
	bg := cfg.Background
	base := [3]float64{bg.R * bright, bg.G * bright, bg.B * bright}

	const cells = GridSize * GridSize
	devBase := cells * 3
	occBase := devBase + cells

	cellW := w / GridSize
	cellH := h / GridSize
	for c := 0; c < cells; c++ {
		dst[3*c+0] = base[0]
		dst[3*c+1] = base[1]
		dst[3*c+2] = base[2]
		dst[occBase+c] = 0
	}

	e.objs = e.video.ObjectsAt(frame, e.objs[:0])
	for _, o := range e.objs {
		box := o.Box.Clip(w, h)
		if box.Area() == 0 {
			continue
		}
		cx0 := int(box.X / cellW)
		cy0 := int(box.Y / cellH)
		cx1 := int((box.XMax() - 1e-9) / cellW)
		cy1 := int((box.YMax() - 1e-9) / cellH)
		for cy := cy0; cy <= cy1 && cy < GridSize; cy++ {
			for cx := cx0; cx <= cx1 && cx < GridSize; cx++ {
				cell := vidsim.Box{X: float64(cx) * cellW, Y: float64(cy) * cellH, W: cellW, H: cellH}
				cover := box.Intersect(cell) / (cellW * cellH)
				if cover <= 0 {
					continue
				}
				if cover > 1 {
					cover = 1
				}
				i := 3 * (cy*GridSize + cx)
				dst[i+0] += cover * (o.Color.R*bright - base[0])
				dst[i+1] += cover * (o.Color.G*bright - base[1])
				dst[i+2] += cover * (o.Color.B*bright - base[2])
				dst[occBase+cy*GridSize+cx] += cover
			}
		}
	}

	// Counter-based pixel noise, per stream/day/frame/channel. The
	// occupancy channel saturates like pixels do and carries the same
	// noise level as the color channels it derives from.
	seed := cfg.Seed*1048576 + int64(e.video.Day)
	sigma := cfg.PixelNoise
	for i := 0; i < cells*3; i++ {
		dst[i] += sigma * hnorm(seed, int64(frame), int64(i))
	}
	for c := 0; c < cells; c++ {
		v := dst[occBase+c]
		if v > 1 {
			v = 1
		}
		dst[occBase+c] = v + sigma*hnorm(seed, int64(frame), int64(cells*3+c))
	}

	// Global channel means over the (noisy) cells.
	var gr, gg, gb float64
	for c := 0; c < cells; c++ {
		gr += dst[3*c+0]
		gg += dst[3*c+1]
		gb += dst[3*c+2]
	}
	n := float64(cells)
	dst[Dim-3] = gr / n
	dst[Dim-2] = gg / n
	dst[Dim-1] = gb / n

	// Per-cell deviation magnitudes from the global mean.
	for c := 0; c < cells; c++ {
		dst[devBase+c] = math.Abs(dst[3*c+0]-dst[Dim-3]) +
			math.Abs(dst[3*c+1]-dst[Dim-2]) +
			math.Abs(dst[3*c+2]-dst[Dim-1])
	}
	return dst
}

// CellColor returns the color of cell (cx, cy) from a descriptor.
func CellColor(desc []float64, cx, cy int) vidsim.Color {
	i := 3 * (cy*GridSize + cx)
	return vidsim.Color{R: desc[i], G: desc[i+1], B: desc[i+2]}
}

// GlobalColor returns the global mean color from a descriptor.
func GlobalColor(desc []float64) vidsim.Color {
	return vidsim.Color{R: desc[Dim-3], G: desc[Dim-2], B: desc[Dim-1]}
}

// FrameRedness returns the frame-level redness signal: the maximum cell
// redness. A red object large enough to matter dominates at least one cell,
// so this is the continuous, frame-level UDF surrogate the content filter
// thresholds (paper §8.1: the UDF "must return meaningful results at the
// frame level").
func FrameRedness(desc []float64) float64 {
	mx := 0.0
	for c := 0; c < GridSize*GridSize; c++ {
		r := (vidsim.Color{R: desc[3*c], G: desc[3*c+1], B: desc[3*c+2]}).Redness()
		if r > mx {
			mx = r
		}
	}
	return mx
}

// FrameBlueness is the blue analogue of FrameRedness.
func FrameBlueness(desc []float64) float64 {
	mx := 0.0
	for c := 0; c < GridSize*GridSize; c++ {
		b := (vidsim.Color{R: desc[3*c], G: desc[3*c+1], B: desc[3*c+2]}).Blueness()
		if b > mx {
			mx = b
		}
	}
	return mx
}

// FrameUDF is a content UDF's frame-level surrogate: a scalar computed from
// a whole-frame raw descriptor.
type FrameUDF struct {
	// Name is the FrameQL function name the surrogate stands in for.
	Name string
	// Signal computes the surrogate from a raw (unnormalized) descriptor.
	Signal func(desc []float64) float64
}

// FrameUDFs is the one table of frame-level content UDFs. A UDF's position
// here is its column: the inference pass records Signal for every frame in
// this order, the index stores one column per entry, and a trained content
// filter reads the column at its UDF's position — so the set of columns
// and the set of filterable UDFs cannot drift apart.
var FrameUDFs = [...]FrameUDF{
	{Name: "redness", Signal: FrameRedness},
	{Name: "blueness", Signal: FrameBlueness},
}

// FrameUDFIndex returns the named UDF's position in FrameUDFs, or -1 when
// it has no frame-level surrogate.
func FrameUDFIndex(name string) int {
	for i := range FrameUDFs {
		if FrameUDFs[i].Name == name {
			return i
		}
	}
	return -1
}
