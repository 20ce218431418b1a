package index

// This file is the index tier's vectorized read path: batch kernels that
// evaluate plan predicates directly against the segment's columnar
// storage, one chunk-sized range at a time, instead of going through the
// per-frame Inference accessors. Every kernel reproduces its per-frame
// counterpart bit for bit — same clamping, same float32→float64
// accumulation order — so a chunk-vector scan is answer-neutral by
// construction. Zone-map consultation stays with the caller: these
// kernels only run over ranges a zone map could not prove irrelevant,
// which is what makes the pushdown real — a skipped chunk's columns are
// never decoded at all.

// ScoreTail fills dst[i] with Inference.TailProb(head, lo+i, n) for every
// frame of [lo, hi), reading the float32 count-distribution column
// directly. dst must have length hi-lo. The arithmetic is identical to
// the per-frame accessor: n clamps to the head's top class, n <= 0 yields
// a constant 1, and the float64 sum runs ascending over the same float32
// row with the same one-ulp overshoot clamp.
func (s *Segment) ScoreTail(head, n, lo, hi int, dst []float64) {
	k := s.model.HeadInfo[head].Classes
	if n >= k {
		n = k - 1
	}
	if n <= 0 {
		for i := range dst[:hi-lo] {
			dst[i] = 1
		}
		return
	}
	col := s.st().probs[head]
	for f := lo; f < hi; f++ {
		row := col[f*k : (f+1)*k]
		t := 0.0
		for c := n; c < k; c++ {
			t += float64(row[c])
		}
		if t > 1 { // float32 accumulation can overshoot by an ulp
			t = 1
		}
		dst[f-lo] = t
	}
}

// Tail1Range returns the exact float64 presence-tail column for frames
// [lo, hi) — the same storage Tail1 reads one frame at a time, exposed as
// a slice so the selection label filter thresholds a whole chunk without
// per-frame accessor calls. The returned slice aliases the segment's
// column and must be treated as read-only.
func (s *Segment) Tail1Range(head, lo, hi int) []float64 {
	return s.st().tail1[head][lo:hi]
}

// SignalRange returns the content-signal column of frame UDF u (its
// position in feature.FrameUDFs) for frames [lo, hi): per frame, the UDF's
// surrogate over the raw descriptor the inference pass synthesized, so the
// selection content filter thresholds a chunk without synthesizing one
// again. The returned slice aliases the segment's column and must be
// treated as read-only.
func (s *Segment) SignalRange(u, lo, hi int) []float64 {
	return s.st().signals[u][lo:hi]
}

// Signal returns frame UDF u's content signal at the frame — one read of
// the column SignalRange exposes a chunk at a time.
func (s *Segment) Signal(u, frame int) float64 { return s.st().signals[u][frame] }
