package index

import (
	"errors"
	"testing"

	"repro/internal/feature"
	"repro/internal/vidsim"
)

// FuzzDecodeChunk: a chunk record's payload, however damaged, decodes or
// fails with ErrCorrupt — never a panic, never another error — and a
// decoded chunk leaves every column exactly as long as the frames it
// added. Seeds are a real record of a partial chunk (small inputs keep the
// fuzzer fast) plus truncations and bit flips of it. Records reach the decoder
// only after their CRC passed, so this is the decoder's own defence.
func FuzzDecodeChunk(f *testing.F) {
	cfg, err := vidsim.Stream("taipei")
	if err != nil {
		f.Fatal(err)
	}
	model := randomNetModel(3)
	seg, _ := Build(Key{Stream: cfg.Name, Day: 2}, model, vidsim.GenerateLive(cfg.Scaled(0.004), 2, 37))
	rec := appendChunkRecord(nil, model, seg.st(), 0)
	partial := rec[4 : len(rec)-4]
	f.Add(partial)
	for _, cut := range []int{0, 3, 4, 5, len(partial) / 2, len(partial) - 8, len(partial) - 1} {
		f.Add(partial[:cut])
	}
	for _, at := range []int{0, 1, 3, 4, 5, len(partial) / 3, len(partial) - 1} {
		flipped := append([]byte(nil), partial...)
		flipped[at] ^= 0x80
		f.Add(flipped)
	}

	heads := model.HeadInfo
	f.Fuzz(func(t *testing.T, payload []byte) {
		st := newLoadState(heads, 0)
		if err := st.decodeChunk(payload, heads); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error %v is not ErrCorrupt", err)
			}
			return
		}
		if len(st.zones) != 1 || st.frames != st.zones[0].Frames {
			t.Fatalf("decoded %d zones covering %d frames", len(st.zones), st.frames)
		}
		for h, head := range heads {
			if len(st.probs[h]) != st.frames*head.Classes || len(st.tail1[h]) != st.frames {
				t.Fatalf("head %d columns hold %d/%d values for %d frames", h, len(st.probs[h]), len(st.tail1[h]), st.frames)
			}
		}
		for u := range feature.FrameUDFs {
			if len(st.signals[u]) != st.frames {
				t.Fatalf("content column %d holds %d values for %d frames", u, len(st.signals[u]), st.frames)
			}
		}
	})
}
