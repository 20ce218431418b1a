package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/feature"
	"repro/internal/filters"
	"repro/internal/specnn"
	"repro/internal/vidsim"
)

// TestContentColumnsMatchDescriptors: every stored content-signal column
// holds, for every frame, exactly filters.FrameUDFFor(udf) of the frame's
// descriptor, bit for bit — after Build, after each Extend of random append
// schedules (builds and appends ending mid-chunk included), in At views
// pinned at random horizons, and across a file write and read.
func TestContentColumnsMatchDescriptors(t *testing.T) {
	cfg, err := vidsim.Stream("taipei")
	if err != nil {
		t.Fatal(err)
	}
	cfg = cfg.Scaled(0.004)
	model := randomNetModel(3)
	key := Key{Stream: cfg.Name, Fingerprint: 3, Day: 2, Classes: ClassKey([]vidsim.Class{vidsim.Car, vidsim.Bus})}

	full := vidsim.Generate(cfg, 2)
	want := make([][]float64, len(feature.FrameUDFs))
	ex := feature.NewExtractor(full)
	for u, udf := range feature.FrameUDFs {
		signal, ok := filters.FrameUDFFor(udf.Name)
		if !ok {
			t.Fatalf("%s has a column but no frame UDF", udf.Name)
		}
		want[u] = make([]float64, full.Frames)
		for f := range want[u] {
			want[u][f] = signal(ex.Frame(f, nil))
		}
	}
	check := func(label string, seg *Segment) {
		t.Helper()
		st := seg.st()
		if len(st.signals) != len(want) {
			t.Fatalf("%s: %d content columns, want %d", label, len(st.signals), len(want))
		}
		for u := range want {
			col := seg.SignalRange(u, 0, st.frames)
			if len(st.signals[u]) != st.frames {
				t.Fatalf("%s: %s column holds %d frames, segment %d", label, feature.FrameUDFs[u].Name, len(st.signals[u]), st.frames)
			}
			for f, got := range col {
				if math.Float64bits(got) != math.Float64bits(want[u][f]) {
					t.Fatalf("%s: %s frame %d: column %v, descriptor %v", label, feature.FrameUDFs[u].Name, f, got, want[u][f])
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(11))
	dir := t.TempDir()
	for trial := 0; trial < 3; trial++ {
		live := vidsim.GenerateLive(cfg, 2, 1+rng.Intn(2*ChunkFrames))
		seg, _ := Build(key, model, live)
		check("build", seg)
		for live.Frames < full.Frames {
			live.AppendFrames(1 + rng.Intn(3*ChunkFrames/2))
			seg.Extend(live)
			check("extend", seg)
			h := 1 + rng.Intn(live.Frames)
			view := seg.At(live.View(h))
			if view.Frames() != h {
				t.Fatalf("view pinned at %d covers %d frames", h, view.Frames())
			}
			check("view", view)
		}
		path := filepath.Join(dir, "seg.blz")
		if err := writeSegmentFile(path, seg); err != nil {
			t.Fatal(err)
		}
		loaded, err := readSegmentFile(path, key, model, live)
		if err != nil {
			t.Fatal(err)
		}
		check("file round trip", loaded)
	}
}

// TestSegmentMemoryCountsContentColumns: MemoryBytes counts 8 bytes per
// frame for every content-signal column.
func TestSegmentMemoryCountsContentColumns(t *testing.T) {
	cfg, err := vidsim.Stream("taipei")
	if err != nil {
		t.Fatal(err)
	}
	live := vidsim.GenerateLive(cfg.Scaled(0.004), 2, 300)
	seg, _ := Build(Key{Stream: "taipei", Day: 2}, randomNetModel(3), live)
	without := *seg.st()
	without.signals = nil
	bare := newSegmentWithState(seg.key, seg.model, &without)
	if got, want := seg.MemoryBytes()-bare.MemoryBytes(), int64(300*8*len(feature.FrameUDFs)); got != want {
		t.Fatalf("content columns account for %d bytes, want %d", got, want)
	}
}

// writeV1Segment writes seg in the segment file's version-1 layout: the
// SG1 magic, a header without the content-column names, and chunk records
// without content-signal columns.
func writeV1Segment(t *testing.T, path string, seg *Segment) {
	t.Helper()
	st := seg.st()
	hdr := segmentHeader(seg.key, seg.model.HeadInfo)
	file := append([]byte(nil), hdr[:len(hdr)-len(signalNames())]...)
	copy(file, "BLZIXSG1")
	le := binary.LittleEndian
	for ci := range st.zones {
		rec := appendChunkRecord(nil, seg.model, st, ci)
		payload := rec[4 : len(rec)-4]
		payload = payload[:len(payload)-8*len(feature.FrameUDFs)*st.zones[ci].Frames]
		file = le.AppendUint32(file, uint32(len(payload)))
		file = append(file, payload...)
		file = le.AppendUint32(file, crc32.ChecksumIEEE(payload))
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestVersion1SegmentFileIsACacheMiss: a segment file written before chunk
// records carried content columns loads as a miss — rebuilt, rewritten in
// the current layout, and reported in Stats.Errors — never as columns.
func TestVersion1SegmentFileIsACacheMiss(t *testing.T) {
	cfg, err := vidsim.Stream("taipei")
	if err != nil {
		t.Fatal(err)
	}
	cfg = cfg.Scaled(0.004)
	model := randomNetModel(3)
	classes := []vidsim.Class{vidsim.Car, vidsim.Bus}
	video := vidsim.GenerateLive(cfg, 2, ChunkFrames+300)
	mgr := NewManager(Config{
		Dir: t.TempDir(), Stream: cfg.Name, Fingerprint: 4,
		Train: func([]vidsim.Class) (*specnn.CountModel, error) { return model, nil },
	})
	key := Key{Stream: cfg.Name, Fingerprint: 4, Day: 2, Classes: ClassKey(classes)}
	old, _ := Build(key, model, video)
	path := segmentPath(mgr.Dir(), key)
	writeV1Segment(t, path, old)
	if _, err := readSegmentFile(path, key, model, video); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("version-1 file: err = %v, want ErrCorrupt", err)
	}

	seg, _, err := mgr.Segment(classes, video)
	if err != nil {
		t.Fatal(err)
	}
	st := mgr.Stats()
	if st.SegmentsBuilt != 1 || st.SegmentsLoaded != 0 {
		t.Fatalf("version-1 file was not rebuilt: built %d, loaded %d", st.SegmentsBuilt, st.SegmentsLoaded)
	}
	if len(st.Errors) != 1 || !strings.Contains(st.Errors[0], "bad magic") {
		t.Fatalf("Errors = %q, want the version-1 file's bad magic", st.Errors)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(t.TempDir(), "want.blz")
	if err := writeSegmentFile(want, seg); err != nil {
		t.Fatal(err)
	}
	wantBytes, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantBytes) {
		t.Fatal("the rebuilt segment was not rewritten in the current layout")
	}
}
