package index

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/feature"
	"repro/internal/specnn"
	"repro/internal/vidsim"
)

// This file is the tier's on-disk format. Every file opens with an 8-byte
// magic naming its kind and version, followed by the configuration
// fingerprint; payloads are CRC32-guarded so truncation and bit rot are
// detected at load time rather than surfacing as silently wrong answers.
// Segment files are a fixed header followed by self-delimiting chunk
// records, which is what makes incremental ingest an append (plus at most
// a rewrite of the trailing partial chunk) instead of a rewrite.

// ErrCorrupt marks an index file that failed structural or checksum
// validation. Loaders treat it as a cache miss: the segment is rebuilt
// and the file rewritten.
var ErrCorrupt = errors.New("index: corrupt file")

// Version history of the magics that have moved: segments went to 2 when
// chunk records gained the content-signal columns, summaries when trained
// content filters gained their resolved column. Either older file loads as
// ErrCorrupt — a cache miss that rebuilds and rewrites it.
var (
	magicSegment = [8]byte{'B', 'L', 'Z', 'I', 'X', 'S', 'G', '2'}
	magicModel   = [8]byte{'B', 'L', 'Z', 'I', 'X', 'M', 'D', '1'}
	magicLabels  = [8]byte{'B', 'L', 'Z', 'I', 'X', 'L', 'B', '1'}
	magicSummary = [8]byte{'B', 'L', 'Z', 'I', 'X', 'S', 'M', '2'}
	magicCalib   = [8]byte{'B', 'L', 'Z', 'I', 'X', 'C', 'L', '1'}
)

// segmentDirFor returns the directory holding one (stream, fingerprint)
// family of index files.
func segmentDirFor(root, stream string, fingerprint uint64) string {
	return filepath.Join(root, sanitize(stream), fmt.Sprintf("%016x", fingerprint))
}

// sanitize keeps path components to a safe character set.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, s)
}

func segmentPath(dir string, key Key) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%s-day%d.blz", sanitize(strings.ReplaceAll(key.Classes, ",", "+")), key.Day))
}

func modelPath(dir, classes string) string {
	return filepath.Join(dir, fmt.Sprintf("model-%s.blz", sanitize(strings.ReplaceAll(classes, ",", "+"))))
}

func labelsPath(dir string, day int) string {
	return filepath.Join(dir, fmt.Sprintf("labels-day%d.blz", day))
}

func summariesPath(dir string) string {
	return filepath.Join(dir, "summaries.blz")
}

func calibrationPath(dir string) string {
	return filepath.Join(dir, "calibration.blz")
}

// atomicWrite writes data to path via a temp file and rename, so readers
// never observe a half-written file.
func atomicWrite(path string, write func(w *bufio.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	bw := bufio.NewWriter(tmp)
	if err := write(bw); err != nil {
		tmp.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// --- blob files (model, summaries) ---

// writeBlobFile persists a single CRC-guarded payload under a magic.
func writeBlobFile(path string, magic [8]byte, fingerprint uint64, payload []byte) error {
	return atomicWrite(path, func(w *bufio.Writer) error {
		if _, err := w.Write(magic[:]); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, fingerprint); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, uint64(len(payload))); err != nil {
			return err
		}
		if _, err := w.Write(payload); err != nil {
			return err
		}
		return binary.Write(w, binary.LittleEndian, crc32.ChecksumIEEE(payload))
	})
}

// readBlobFile loads a blob written by writeBlobFile, validating magic,
// fingerprint, length, and checksum.
func readBlobFile(path string, magic [8]byte, fingerprint uint64) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < 8+8+8+4 {
		return nil, fmt.Errorf("%w: %s: truncated header", ErrCorrupt, path)
	}
	if [8]byte(data[:8]) != magic {
		return nil, fmt.Errorf("%w: %s: bad magic", ErrCorrupt, path)
	}
	if fp := binary.LittleEndian.Uint64(data[8:16]); fp != fingerprint {
		return nil, fmt.Errorf("%w: %s: fingerprint %x, want %x", ErrCorrupt, path, fp, fingerprint)
	}
	n := binary.LittleEndian.Uint64(data[16:24])
	if uint64(len(data)) != 24+n+4 {
		return nil, fmt.Errorf("%w: %s: payload length %d does not match file size", ErrCorrupt, path, n)
	}
	payload := data[24 : 24+n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[24+n:]) {
		return nil, fmt.Errorf("%w: %s: payload checksum mismatch", ErrCorrupt, path)
	}
	return payload, nil
}

// --- segment files ---

// segmentHeader is a segment file's header: magic, fingerprint, day,
// chunk size, the head table, and the names of the content-signal columns
// every chunk record carries (feature.FrameUDFs, in order).
func segmentHeader(key Key, heads []specnn.Head) []byte {
	le := binary.LittleEndian
	b := append([]byte(nil), magicSegment[:]...)
	b = le.AppendUint64(b, key.Fingerprint)
	b = le.AppendUint32(b, uint32(key.Day))
	b = le.AppendUint32(b, ChunkFrames)
	b = le.AppendUint32(b, uint32(len(heads)))
	for _, h := range heads {
		b = le.AppendUint16(b, uint16(len(h.Class)))
		b = append(b, h.Class...)
		b = le.AppendUint32(b, uint32(h.Classes))
	}
	return append(b, signalNames()...)
}

// signalNames is the header's last section: the count and names of the
// content-signal columns, in feature.FrameUDFs order.
func signalNames() []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(nil, uint32(len(feature.FrameUDFs)))
	for _, u := range feature.FrameUDFs {
		b = le.AppendUint16(b, uint16(len(u.Name)))
		b = append(b, u.Name...)
	}
	return b
}

func readSegmentHeader(r *bufio.Reader, key Key) ([]specnn.Head, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated header: %v", ErrCorrupt, err)
	}
	if magic != magicSegment {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	var fp uint64
	if err := binary.Read(r, binary.LittleEndian, &fp); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if fp != key.Fingerprint {
		return nil, fmt.Errorf("%w: fingerprint %x, want %x", ErrCorrupt, fp, key.Fingerprint)
	}
	var day, chunkFrames, headCount uint32
	for _, p := range []*uint32{&day, &chunkFrames, &headCount} {
		if err := binary.Read(r, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	if int(day) != key.Day {
		return nil, fmt.Errorf("%w: day %d, want %d", ErrCorrupt, day, key.Day)
	}
	if chunkFrames != ChunkFrames {
		return nil, fmt.Errorf("%w: chunk size %d, want %d", ErrCorrupt, chunkFrames, ChunkFrames)
	}
	if headCount > 64 {
		return nil, fmt.Errorf("%w: implausible head count %d", ErrCorrupt, headCount)
	}
	heads := make([]specnn.Head, headCount)
	for i := range heads {
		var nameLen uint16
		if err := binary.Read(r, binary.LittleEndian, &nameLen); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(r, name); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		var classes uint32
		if err := binary.Read(r, binary.LittleEndian, &classes); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		heads[i] = specnn.Head{Class: vidsim.Class(name), Classes: int(classes)}
	}
	want := signalNames()
	got := make([]byte, len(want))
	if _, err := io.ReadFull(r, got); err != nil || !bytes.Equal(got, want) {
		return nil, fmt.Errorf("%w: content columns are not those of this build", ErrCorrupt)
	}
	return heads, nil
}

// appendChunkRecord serializes one chunk: zone map then columns, per
// head, then the content-signal columns. It reads from one captured
// segment state so a record is internally consistent even while writers
// publish newer states.
func appendChunkRecord(buf []byte, model *specnn.CountModel, st *segState, ci int) []byte {
	z := &st.zones[ci]
	lo := ci * ChunkFrames
	payload := make([]byte, 0, chunkPayloadLen(model.HeadInfo, z.Frames))
	le := binary.LittleEndian
	u32 := func(v uint32) { payload = le.AppendUint32(payload, v) }
	f64 := func(v float64) { payload = le.AppendUint64(payload, math.Float64bits(v)) }
	u32(uint32(z.Frames))
	for h := range model.HeadInfo {
		payload = append(payload, z.MinPred[h], z.MaxPred[h])
		for _, t := range z.MaxTail[h] {
			f64(t)
		}
		f64(z.MaxTail1[h])
		for _, w := range z.Presence[h] {
			payload = le.AppendUint64(payload, w)
		}
		k := model.HeadInfo[h].Classes
		col := st.probs[h][lo*k : (lo+z.Frames)*k]
		for _, p := range col {
			payload = le.AppendUint32(payload, math.Float32bits(p))
		}
		for _, t := range st.tail1[h][lo : lo+z.Frames] {
			f64(t)
		}
	}
	for u := range st.signals {
		for _, v := range st.signals[u][lo : lo+z.Frames] {
			f64(v)
		}
	}
	buf = le.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	return le.AppendUint32(buf, crc32.ChecksumIEEE(payload))
}

// chunkPayloadLen is the exact payload length of a chunk record: the frame
// count; per head the zone map, distribution column and exact-tail column;
// then the content-signal columns.
func chunkPayloadLen(heads []specnn.Head, frames int) int {
	n := 4 + frames*8*len(feature.FrameUDFs)
	for _, h := range heads {
		n += 2 + h.Classes*8 + 8 + (frames+63)/64*8 + frames*h.Classes*4 + frames*8
	}
	return n
}

// writeSegmentFile persists the whole segment atomically, from one
// captured state.
func writeSegmentFile(path string, s *Segment) error {
	st := s.st()
	return atomicWrite(path, func(w *bufio.Writer) error {
		if _, err := w.Write(segmentHeader(s.key, s.model.HeadInfo)); err != nil {
			return err
		}
		for ci := range st.zones {
			if _, err := w.Write(appendChunkRecord(nil, s.model, st, ci)); err != nil {
				return err
			}
		}
		return nil
	})
}

// appendSegmentFile persists an Extend: it validates the header, locates
// the byte offset of fromChunk by walking record lengths, truncates there,
// and appends the recomputed records — existing chunks before fromChunk
// are never rewritten.
func appendSegmentFile(path string, s *Segment, fromChunk int) error {
	st := s.st()
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		if os.IsNotExist(err) {
			return writeSegmentFile(path, s)
		}
		return err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	heads, err := readSegmentHeader(br, s.key)
	if err != nil {
		f.Close()
		return writeSegmentFile(path, s)
	}
	if err := validateHeads(heads, s.model); err != nil {
		f.Close()
		return writeSegmentFile(path, s)
	}
	// Walk record framing (length-prefix + payload + crc) to the target
	// chunk's offset.
	offset := int64(len(segmentHeader(s.key, heads)))
	for ci := 0; ci < fromChunk; ci++ {
		var n uint32
		if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
			f.Close()
			return writeSegmentFile(path, s)
		}
		if _, err := br.Discard(int(n) + 4); err != nil {
			f.Close()
			return writeSegmentFile(path, s)
		}
		offset += int64(4 + n + 4)
	}
	if err := f.Truncate(offset); err != nil {
		return err
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		return err
	}
	var buf []byte
	for ci := fromChunk; ci < len(st.zones); ci++ {
		buf = appendChunkRecord(buf[:0], s.model, st, ci)
		if _, err := f.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// readSegmentFile loads a persisted segment, validating structure and
// checksums; any inconsistency returns ErrCorrupt and the caller rebuilds.
// The video supplies the frame horizon: a segment may cover fewer frames
// than the video (a live stream indexed mid-day) but never more.
func readSegmentFile(path string, key Key, model *specnn.CountModel, v *vidsim.Video) (*Segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	br := bufio.NewReaderSize(f, int(min(size, 1<<20)))
	heads, err := readSegmentHeader(br, key)
	if err != nil {
		return nil, err
	}
	if err := validateHeads(heads, model); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	// Size every column once. Each frame takes its column bytes in some
	// record, so the file's length bounds the frames it can hold; the
	// horizon bounds those a valid file may hold.
	perFrame := 8 * len(feature.FrameUDFs)
	for _, h := range heads {
		perFrame += h.Classes*4 + 8
	}
	st := newLoadState(heads, min(int(size/int64(perFrame)), v.Frames))
	le := binary.LittleEndian
	var payload []byte
	for {
		var n uint32
		if err := binary.Read(br, le, &n); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("%w: truncated record length: %v", ErrCorrupt, err)
		}
		if int64(n) > size {
			return nil, fmt.Errorf("%w: chunk %d record length %d exceeds the file", ErrCorrupt, len(st.zones), n)
		}
		payload = slices.Grow(payload[:0], int(n))[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return nil, fmt.Errorf("%w: truncated record: %v", ErrCorrupt, err)
		}
		var crc uint32
		if err := binary.Read(br, le, &crc); err != nil {
			return nil, fmt.Errorf("%w: truncated record checksum: %v", ErrCorrupt, err)
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return nil, fmt.Errorf("%w: chunk %d checksum mismatch", ErrCorrupt, len(st.zones))
		}
		if err := st.decodeChunk(payload, heads); err != nil {
			return nil, err
		}
	}
	if st.frames == 0 || st.frames > v.Frames {
		return nil, fmt.Errorf("%w: segment covers %d frames, video has %d", ErrCorrupt, st.frames, v.Frames)
	}
	st.inf = specnn.NewInferenceFromColumns(model, v, st.frames, st.probs)
	return newSegmentWithState(key, model, st), nil
}

// newLoadState returns an empty loader state whose columns have room for
// maxFrames frames.
func newLoadState(heads []specnn.Head, maxFrames int) *segState {
	st := &segState{
		probs:   make([][]float32, len(heads)),
		tail1:   make([][]float64, len(heads)),
		signals: make([][]float64, len(feature.FrameUDFs)),
	}
	for h, head := range heads {
		st.probs[h] = make([]float32, 0, maxFrames*head.Classes)
		st.tail1[h] = make([]float64, 0, maxFrames)
	}
	for u := range st.signals {
		st.signals[u] = make([]float64, 0, maxFrames)
	}
	return st
}

// extend lengthens *col by n elements and returns them; it reallocates only
// when the loader's up-front sizing fell short.
func extend[T any](col *[]T, n int) []T {
	s := slices.Grow(*col, n)
	*col = s[:len(s)+n]
	return (*col)[len(s):]
}

// decodeChunk appends one chunk record's zone map and columns to a
// not-yet-published loader state.
func (st *segState) decodeChunk(payload []byte, heads []specnn.Head) error {
	le := binary.LittleEndian
	pos := 0
	need := func(n int) error {
		if pos+n > len(payload) {
			return fmt.Errorf("%w: chunk %d record underflow", ErrCorrupt, len(st.zones))
		}
		return nil
	}
	if err := need(4); err != nil {
		return err
	}
	frames := int(le.Uint32(payload[pos:]))
	pos += 4
	if frames <= 0 || frames > ChunkFrames {
		return fmt.Errorf("%w: chunk %d has %d frames", ErrCorrupt, len(st.zones), frames)
	}
	if len(st.zones) > 0 && st.zones[len(st.zones)-1].Frames != ChunkFrames {
		return fmt.Errorf("%w: chunk %d follows a partial chunk", ErrCorrupt, len(st.zones))
	}
	if err := need(chunkPayloadLen(heads, frames) - 4); err != nil {
		return err
	}
	f64 := func() float64 {
		v := math.Float64frombits(le.Uint64(payload[pos:]))
		pos += 8
		return v
	}
	z := Zone{
		Frames:   frames,
		MinPred:  make([]uint8, len(heads)),
		MaxPred:  make([]uint8, len(heads)),
		MaxTail:  make([][]float64, len(heads)),
		MaxTail1: make([]float64, len(heads)),
		Presence: make([][]uint64, len(heads)),
	}
	words := (frames + 63) / 64
	for h, head := range heads {
		z.MinPred[h] = payload[pos]
		z.MaxPred[h] = payload[pos+1]
		pos += 2
		z.MaxTail[h] = make([]float64, head.Classes)
		for n := range z.MaxTail[h] {
			z.MaxTail[h][n] = f64()
		}
		z.MaxTail1[h] = f64()
		z.Presence[h] = make([]uint64, words)
		for i := range z.Presence[h] {
			z.Presence[h][i] = le.Uint64(payload[pos:])
			pos += 8
		}
		probs := extend(&st.probs[h], frames*head.Classes)
		for i := range probs {
			probs[i] = math.Float32frombits(le.Uint32(payload[pos:]))
			pos += 4
		}
		tail1 := extend(&st.tail1[h], frames)
		for i := range tail1 {
			tail1[i] = f64()
		}
	}
	for u := range st.signals {
		sig := extend(&st.signals[u], frames)
		for i := range sig {
			sig[i] = f64()
		}
	}
	if pos != len(payload) {
		return fmt.Errorf("%w: chunk %d has %d trailing bytes", ErrCorrupt, len(st.zones), len(payload)-pos)
	}
	st.zones = append(st.zones, z)
	st.frames += frames
	return nil
}

// --- label files ---

// labelBatch is one appended run of ground-truth observations for a class.
type labelBatch struct {
	class  vidsim.Class
	frames []int32
	counts []int32
}

// appendLabelFile appends batches to the day's label file, creating it
// (with header) if needed.
func appendLabelFile(path string, fingerprint uint64, batches []labelBatch) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if st.Size() == 0 {
		var hdr []byte
		hdr = append(hdr, magicLabels[:]...)
		hdr = binary.LittleEndian.AppendUint64(hdr, fingerprint)
		if _, err := f.Write(hdr); err != nil {
			return err
		}
	} else if _, err := f.Seek(0, io.SeekEnd); err != nil {
		return err
	}
	le := binary.LittleEndian
	for _, b := range batches {
		payload := make([]byte, 0, 2+len(b.class)+4+len(b.frames)*8)
		payload = le.AppendUint16(payload, uint16(len(b.class)))
		payload = append(payload, b.class...)
		payload = le.AppendUint32(payload, uint32(len(b.frames)))
		for i := range b.frames {
			payload = le.AppendUint32(payload, uint32(b.frames[i]))
			payload = le.AppendUint32(payload, uint32(b.counts[i]))
		}
		var rec []byte
		rec = le.AppendUint32(rec, uint32(len(payload)))
		rec = append(rec, payload...)
		rec = le.AppendUint32(rec, crc32.ChecksumIEEE(payload))
		if _, err := f.Write(rec); err != nil {
			return err
		}
	}
	return nil
}

// readLabelFile loads every valid batch of a label file. A corrupt or
// truncated tail record is tolerated (the last append may have been cut
// short); everything before it loads.
func readLabelFile(path string, fingerprint uint64) ([]labelBatch, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < 16 {
		return nil, fmt.Errorf("%w: %s: truncated header", ErrCorrupt, path)
	}
	if [8]byte(data[:8]) != magicLabels {
		return nil, fmt.Errorf("%w: %s: bad magic", ErrCorrupt, path)
	}
	if fp := binary.LittleEndian.Uint64(data[8:16]); fp != fingerprint {
		return nil, fmt.Errorf("%w: %s: fingerprint %x, want %x", ErrCorrupt, path, fp, fingerprint)
	}
	le := binary.LittleEndian
	var out []labelBatch
	pos := 16
	for pos+4 <= len(data) {
		n := int(le.Uint32(data[pos:]))
		if pos+4+n+4 > len(data) {
			break // torn tail append; keep what's whole
		}
		payload := data[pos+4 : pos+4+n]
		if crc32.ChecksumIEEE(payload) != le.Uint32(data[pos+4+n:]) {
			break
		}
		pos += 4 + n + 4
		if len(payload) < 2 {
			break
		}
		nameLen := int(le.Uint16(payload))
		if 2+nameLen+4 > len(payload) {
			break
		}
		b := labelBatch{class: vidsim.Class(payload[2 : 2+nameLen])}
		cnt := int(le.Uint32(payload[2+nameLen:]))
		p := 2 + nameLen + 4
		if p+cnt*8 != len(payload) {
			break
		}
		for i := 0; i < cnt; i++ {
			b.frames = append(b.frames, int32(le.Uint32(payload[p:])))
			b.counts = append(b.counts, int32(le.Uint32(payload[p+4:])))
			p += 8
		}
		out = append(out, b)
	}
	return out, nil
}
