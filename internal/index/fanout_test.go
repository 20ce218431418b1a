package index

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/feature"
	"repro/internal/nn"
	"repro/internal/specnn"
	"repro/internal/vidsim"
)

// TestBuildExtendColumnsOnRandomNet: Build and Extend fan their inference
// out across workers (specnn.RunRange); whatever the worker count, and for
// an untrained net over random weights, the columns they write are the ones
// a serial frame-by-frame Evaluator computes — the float32 distribution
// columns and the exact float64 presence tail, bit for bit, across a build
// that ends mid-chunk and extensions that do not divide among the workers.
func TestBuildExtendColumnsOnRandomNet(t *testing.T) {
	cfg, err := vidsim.Stream("taipei")
	if err != nil {
		t.Fatal(err)
	}
	cfg = cfg.Scaled(0.004)
	model := randomNetModel(5)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	live := vidsim.GenerateLive(cfg, 2, ChunkFrames+211)
	seg, _ := Build(Key{Stream: cfg.Name, Fingerprint: 9, Day: 2, Classes: ClassKey([]vidsim.Class{vidsim.Car, vidsim.Bus})}, model, live)
	for _, n := range []int{3, ChunkFrames - 1, 2*ChunkFrames + 5} {
		live.AppendFrames(n)
		if added, _, _ := seg.Extend(live); added == 0 {
			t.Fatalf("Extend after appending %d frames added none", n)
		}
	}

	st := seg.st()
	if st.frames != live.Frames {
		t.Fatalf("segment covers %d frames, video has %d", st.frames, live.Frames)
	}
	ev := specnn.NewEvaluator(model, live)
	for f := 0; f < live.Frames; f++ {
		ev.Seek(f)
		for h, dist := range ev.Probs() {
			k := model.HeadInfo[h].Classes
			for c, p := range dist {
				if got := st.probs[h][f*k+c]; got != float32(p) {
					t.Fatalf("head %d frame %d count %d: column %v, serial %v", h, f, c, got, float32(p))
				}
			}
			if got, want := st.tail1[h][f], ev.TailProb(h, 1); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("head %d frame %d: tail column %v, serial %v", h, f, got, want)
			}
		}
	}
}

// randomNetModel is an untrained car/bus counting model over random
// weights and input statistics: inference runs without a training pass.
func randomNetModel(seed int64) *specnn.CountModel {
	rng := rand.New(rand.NewSource(seed))
	mu, sigma := make([]float64, feature.Dim), make([]float64, feature.Dim)
	for i := range mu {
		mu[i], sigma[i] = rng.NormFloat64(), 0.5+rng.Float64()
	}
	return &specnn.CountModel{
		Net: nn.New(nn.Config{Inputs: feature.Dim, Hidden: []int{16}, Seed: seed,
			Heads: []nn.HeadSpec{{Name: "car", Classes: 4}, {Name: "bus", Classes: 3}}}),
		HeadInfo: []specnn.Head{{Class: vidsim.Car, Classes: 4}, {Class: vidsim.Bus, Classes: 3}},
		Mu:       mu, Sigma: sigma,
	}
}
