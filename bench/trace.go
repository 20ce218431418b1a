package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/frameql"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/vidsim"
)

// span is one timed call into a layer's public function. Spans of one
// request share Req; Parent is the index of the span that caused this one
// (-1 for a request's root).
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
}

// tracer holds the traced pass's spans in memory until the run ends. The
// traced pass is one goroutine, so it needs no lock.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{Name: name, StartNS: time.Since(t.epoch).Nanoseconds(), Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.EndNS = time.Since(t.epoch).Nanoseconds()
	return time.Duration(s.EndNS - s.StartNS)
}

// time runs fn inside a span.
func (t *tracer) time(name string, parent, req int, fn func()) time.Duration {
	id := t.begin(name, parent, req)
	fn()
	return t.end(id)
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// The traced pass measures layers from outside: one goroutine, spans owned
// by the benchmark around each call into a layer's public functions. It has
// three parts. serveCounters reads what the timed phase did to the server.
// probeLayers times the index, specialized-network and live tiers on a
// scratch engine of the workload's stream and scale. replay walks the
// workload's own query texts through analyze, plan, execute and HTTP.

// statz is the part of GET /statz the per-layer table reads.
type statz struct {
	Cache struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Evictions uint64 `json:"evictions"`
	} `json:"cache"`
	Pool struct {
		Executed uint64 `json:"executed"`
		Rejected uint64 `json:"rejected"`
	} `json:"pool"`
	Parallel struct {
		Shards uint64 `json:"shards"`
		Chunks uint64 `json:"chunks"`
	} `json:"parallel"`
	Indexz struct {
		LabelHits   uint64 `json:"label_hits"`
		LabelMisses uint64 `json:"label_misses"`
	} `json:"indexz"`
}

func ratio(part, rest uint64) float64 {
	if part+rest == 0 {
		return 0
	}
	return float64(part) / float64(part+rest)
}

// serveCounters records the server's own counters after a timed phase.
func serveCounters(rep *report, in *instance) error {
	c := newClient()
	defer c.close()
	if _, ok := c.do(http.MethodGet, in.url+"/statz", nil); !ok {
		return fmt.Errorf("GET /statz failed: %s", c.buf.String())
	}
	var z statz
	if err := json.Unmarshal(c.buf.Bytes(), &z); err != nil {
		return fmt.Errorf("decoding /statz: %w", err)
	}
	rep.set("serve.cache.hit_ratio", ratio(z.Cache.Hits, z.Cache.Misses), 0)
	rep.set("serve.cache.evictions", float64(z.Cache.Evictions), 0)
	rep.set("serve.pool.executed", float64(z.Pool.Executed), 0)
	rep.set("serve.pool.rejected", float64(z.Pool.Rejected), 0)
	rep.set("core.shards", float64(z.Parallel.Shards), 0)
	rep.set("core.chunks", float64(z.Parallel.Chunks), 0)
	rep.set("index.label_hit_ratio", ratio(z.Indexz.LabelHits, z.Indexz.LabelMisses), 0)
	return nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// probeServeParts times the serving tier's two shared structures on
// instances of their own: result-cache Put and Get, and a worker-pool
// hand-off of an empty task.
func probeServeParts(rc *runCtx) {
	const ops = 2000
	cache := serve.NewResultCache(256)
	res := &core.Result{Kind: "aggregate"}
	keys := make([]string, ops)
	for i := range keys {
		keys[i] = serve.CacheKey(taipei, 0, fmt.Sprintf("SELECT %d", i))
	}
	put := rc.tr.time("serve.cache.put", -1, -1, func() {
		for _, k := range keys {
			cache.Put(k, res)
		}
	})
	get := rc.tr.time("serve.cache.get", -1, -1, func() {
		for _, k := range keys[ops-256:] { // the 256 still resident
			for i := 0; i < 8; i++ {
				cache.Get(k)
			}
		}
	})
	rc.rep.set("serve.cache.put_us", us(put)/ops, ops)
	rc.rep.set("serve.cache.get_us", us(get)/(256*8), 256*8)
	pool := serve.NewPool(2, 8)
	defer pool.Close()
	handoff := rc.tr.time("serve.pool.handoff", -1, -1, func() {
		for i := 0; i < ops; i++ {
			_ = pool.Do(context.Background(), func() {}) // an empty task cannot fail
		}
	})
	rc.rep.set("serve.pool.handoff_us", us(handoff)/ops, ops)
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// liveSteps is how many append-then-advance steps the live probe takes.
const liveSteps = 3

// scanFamilies are the families whose standing query is a scan that Advance
// can continue from a suffix; core.advance_vs_fresh is measured on them.
var scanFamilies = map[string]bool{"binary": true, "distinct": true, "exhaustive": true, "limit": true}

// probeLayers builds a live engine of g's stream on an empty index
// directory and times each tier as it goes: training, labeling, building and
// flushing the index; loading it back; cursor encode and decode; appends
// with and without an index to extend; Advance per family against a fresh
// execution at the same horizon.
func probeLayers(rc *runCtx, g *gen, scale float64) error {
	tr, rep := rc.tr, rc.rep
	dir := filepath.Join(rc.outDir, "tmp", "probe-index")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	opts := core.Options{Scale: scale, Seed: 1, IndexDir: dir, LiveStart: rc.sz.liveStart}
	eng, err := core.NewEngine(g.stream, opts)
	if err != nil {
		return err
	}
	root := tr.begin("probe.layers", -1, -1)
	defer tr.end(root)
	var train, infer, build time.Duration
	labeled := 0
	for _, cc := range eng.Cfg.Classes {
		classes := []vidsim.Class{cc.Class}
		train += tr.time("specnn.train", root, -1, func() { _, _, err = eng.Model(classes) })
		if err != nil {
			return fmt.Errorf("training %s: %w", cc.Class, err)
		}
		infer += tr.time("specnn.infer", root, -1, func() { _, _, err = eng.Inference(classes, eng.HeldOut) })
		if err != nil {
			return fmt.Errorf("labeling held-out day for %s: %w", cc.Class, err)
		}
		build += tr.time("index.build", root, -1, func() { err = eng.BuildIndex(classes) })
		if err != nil {
			return fmt.Errorf("building %s index: %w", cc.Class, err)
		}
		labeled += eng.HeldOut.Frames + eng.Horizon()
	}
	rep.set("specnn.train_s", train.Seconds(), len(eng.Cfg.Classes))
	rep.set("specnn.infer_fps", float64(len(eng.Cfg.Classes)*eng.HeldOut.Frames)/infer.Seconds(), 0)
	rep.set("index.build_s", (infer + build).Seconds(), len(eng.Cfg.Classes))
	rep.set("index.build_fps", float64(labeled)/(infer+build).Seconds(), 0)

	// Standing cursors, one per family; the sampled ones also fill the
	// label store, so the flush below has something of every kind to write.
	cursors := make([]*plan.Cursor, len(families))
	var codec []float64
	for f, fam := range families {
		info, err := frameql.Analyze(standingText(g, f))
		if err != nil {
			return err
		}
		x, err := eng.BeginQuery(info, 0)
		if err == nil {
			err = x.RunTo(-1)
		}
		if err == nil {
			cursors[f], err = x.Suspend()
		}
		if err != nil {
			return fmt.Errorf("standing %s: %w", fam, err)
		}
		var enc []byte
		d := tr.time("plan.cursor_codec", root, -1, func() {
			if enc, err = cursors[f].Encode(); err == nil {
				_, err = plan.DecodeCursor(enc)
			}
		})
		if err != nil {
			return fmt.Errorf("cursor codec %s: %w", fam, err)
		}
		codec = append(codec, us(d))
		rep.set("plan.cursor_bytes."+fam, float64(len(enc)), 0)
	}
	rep.set("plan.cursor_codec_us", median(codec), len(codec))

	flush := tr.time("index.flush", root, -1, func() { err = eng.FlushIndex() })
	if err != nil {
		return fmt.Errorf("flushing index: %w", err)
	}
	rep.set("index.flush_s", flush.Seconds(), 0)
	var mem int64
	for _, seg := range eng.IndexStats().Segments {
		mem += seg.Bytes
	}
	rep.set("index.memory_mb", float64(mem)/1e6, 0)
	disk, err := dirBytes(dir)
	if err != nil {
		return err
	}
	rep.set("index.disk_mb", float64(disk)/1e6, 0)

	reopened, err := core.NewEngine(g.stream, opts)
	if err != nil {
		return err
	}
	load := tr.time("index.load", root, -1, func() { err = buildClassIndexes(reopened) })
	if err != nil {
		return fmt.Errorf("loading index: %w", err)
	}
	if st := reopened.IndexStats(); st.ModelsTrained > 0 || st.SegmentsBuilt > 0 {
		rep.problem("index.load: reopening trained %d models and built %d segments instead of loading them", st.ModelsTrained, st.SegmentsBuilt)
	}
	rep.set("index.load_s", load.Seconds(), 0)

	// Appends: on an engine with nothing materialized (frame append and
	// snapshot publish only), and on the indexed engine (the same plus
	// extending every segment). After each indexed append, every standing
	// query advances.
	bare, err := core.NewEngine(g.stream, core.Options{Scale: scale, Seed: 1, LiveStart: rc.sz.liveStart})
	if err != nil {
		return err
	}
	var appendFPS, extendFPS []float64
	advance := make([][]float64, len(families))
	for step := 0; step < liveSteps; step++ {
		var n int
		d := tr.time("core.append", root, -1, func() { n, err = bare.AppendLive(rc.sz.ingestBatch) })
		if err != nil || n == 0 {
			return fmt.Errorf("bare append: %d frames, %v", n, err)
		}
		appendFPS = append(appendFPS, float64(n)/d.Seconds())
		d = tr.time("index.extend", root, -1, func() { n, err = eng.AppendLive(rc.sz.ingestBatch) })
		if err != nil || n == 0 {
			return fmt.Errorf("indexed append: %d frames, %v", n, err)
		}
		extendFPS = append(extendFPS, float64(n)/d.Seconds())
		for f, fam := range families {
			d := tr.time("core.advance."+fam, root, -1, func() { _, cursors[f], err = eng.Advance(cursors[f]) })
			if err != nil {
				return fmt.Errorf("advancing %s: %w", fam, err)
			}
			advance[f] = append(advance[f], ms(d))
		}
	}
	rep.set("core.append_fps", median(appendFPS), liveSteps)
	rep.set("index.extend_fps", median(extendFPS), liveSteps)
	var advSum, freshSum float64
	for f, fam := range families {
		rep.set("core.advance_ms."+fam, median(advance[f]), liveSteps)
		if !scanFamilies[fam] {
			continue
		}
		info, _ := frameql.Analyze(standingText(g, f))
		d := tr.time("core.fresh."+fam, root, -1, func() { _, err = eng.ExecuteForced(info, 0, cursors[f].Plan) })
		if err != nil {
			return fmt.Errorf("fresh %s: %w", fam, err)
		}
		advSum += advance[f][liveSteps-1]
		freshSum += ms(d)
	}
	rep.set("core.advance_vs_fresh", advSum/freshSum, 0)
	return nil
}

// replayStats are one family's samples from the replay, one per round.
type replayStats struct {
	analyzeUS, planMS, execMS, execP1MS, tracedMS, missMS, hitMS []float64
	candidates, sim, calls, skipped                              float64
}

// replay walks up to replayMax texts of every family through the layers a
// request crosses, in-process and then over HTTP with one client, for about
// the given time (never less than one round). text(f, r) is the workload's
// r-th traced text of family f.
func replay(rc *runCtx, in *instance, eng *core.Engine, stream string, seconds float64, text func(f, r int) string) error {
	tr, rep := rc.tr, rc.rep
	c := newClient()
	defer c.close()
	stats := make([]replayStats, len(families))
	start := time.Now()
	rounds := 0
	for ; rounds < rc.sz.replayMax && (rounds == 0 || time.Since(start).Seconds() < seconds); rounds++ {
		for f, fam := range families {
			st := &stats[f]
			q := text(f, rounds)
			req := rounds*len(families) + f
			root := tr.begin("request."+fam, -1, req)
			pe, _ := eng.Pin()
			var info *frameql.Info
			var err error
			d := tr.time("frameql.analyze", root, req, func() { info, err = frameql.Analyze(q) })
			if err != nil {
				return fmt.Errorf("analyzing %q: %w", q, err)
			}
			st.analyzeUS = append(st.analyzeUS, us(d))
			var report *plan.Report
			d = tr.time("core.plan", root, req, func() { report, err = pe.ExplainPlan(info, 0) })
			if err != nil {
				return fmt.Errorf("planning %q: %w", q, err)
			}
			st.planMS = append(st.planMS, ms(d))
			st.candidates = float64(len(report.Candidates))
			var res, res1 *core.Result
			d = tr.time("core.exec", root, req, func() { res, err = pe.ExecuteParallel(info, 0) })
			if err != nil {
				return fmt.Errorf("executing %q: %w", q, err)
			}
			st.execMS = append(st.execMS, ms(d))
			st.sim = res.Stats.TotalSeconds()
			st.calls = float64(res.Stats.DetectorCalls)
			lo, hi := int(info.TimeMin), pe.Horizon()
			if info.TimeMax >= 0 && int(info.TimeMax) < hi {
				hi = int(info.TimeMax)
			}
			if hi > lo {
				st.skipped = float64(res.Stats.IndexFramesSkipped) / float64(hi-lo)
			}
			d = tr.time("core.exec_p1", root, req, func() { res1, err = pe.ExecuteParallel(info, 1) })
			if err != nil {
				return fmt.Errorf("executing %q at parallelism 1: %w", q, err)
			}
			st.execP1MS = append(st.execP1MS, ms(d))
			d = tr.time("obs.exec_traced", root, req, func() {
				t := obs.NewTrace(q)
				_, err = pe.ExecuteParallelTraced(info, 0, t)
				t.Finish()
			})
			if err != nil {
				return fmt.Errorf("executing %q traced: %w", q, err)
			}
			st.tracedMS = append(st.tracedMS, ms(d))

			// The same text over HTTP: a miss that bypasses the cache but
			// stores its result, then the hit that result serves.
			sp := tr.begin("http.miss", root, req)
			wall, ok := c.query(in.url, stream, q, true)
			tr.end(sp)
			rep.Attempted++
			if !ok {
				rep.Failed++
				rep.problem("traced miss of %s failed: %s", fam, c.buf.String())
				tr.end(root)
				continue
			}
			st.missMS = append(st.missMS, ms(wall))
			var w wireReply
			if err := json.Unmarshal(c.buf.Bytes(), &w); err != nil {
				return fmt.Errorf("decoding traced %s reply: %w", fam, err)
			}
			if w.Plan != res1.Stats.Plan { // calibration moved the pick in between
				if res1, err = pe.ExecuteForced(info, 1, w.Plan); err != nil {
					return fmt.Errorf("executing %q as %s: %w", q, w.Plan, err)
				}
			}
			for _, diff := range diffResult(&w, res1) {
				rep.problem("oracle: traced %s vs direct: %s: %s", fam, diff, q)
			}
			sp = tr.begin("http.hit", root, req)
			wall, ok = c.query(in.url, stream, q, false)
			tr.end(sp)
			rep.Attempted++
			if !ok {
				rep.Failed++
				rep.problem("traced hit of %s failed: %s", fam, c.buf.String())
			} else {
				st.hitMS = append(st.hitMS, ms(wall))
			}
			tr.end(root)
		}
	}

	table := []string{
		fmt.Sprintf("traced replay: %d rounds, 1 client; medians in ms; sum = exec + hit, to be within 10%% of miss", rounds),
		fmt.Sprintf("  %-10s %9s %9s %9s %9s %9s %9s %9s %7s", "family", "analyze", "plan", "exec", "exec-plan", "hit", "sum", "miss", "sum/miss"),
	}
	for f, fam := range families {
		st := &stats[f]
		analyze, planMS, exec := median(st.analyzeUS), median(st.planMS), median(st.execMS)
		hit, miss := median(st.hitMS), median(st.missMS)
		rep.set("frameql.analyze_us."+fam, analyze, rounds)
		rep.set("core.plan_ms."+fam, planMS, rounds)
		rep.set("core.plan_candidates."+fam, st.candidates, 0)
		rep.set("core.exec_ms."+fam, exec, rounds)
		rep.set("core.exec_p1_ms."+fam, median(st.execP1MS), rounds)
		rep.set("core.exec_speedup."+fam, median(st.execP1MS)/exec, rounds)
		rep.set("core.sim_seconds."+fam, st.sim, 0)
		rep.set("core.detector_calls."+fam, st.calls, 0)
		rep.set("core.frames_skipped_ratio."+fam, st.skipped, 0)
		rep.set("obs.traced_ratio."+fam, median(st.tracedMS)/exec, rounds)
		rep.set("serve.hit_ms."+fam, hit, rounds)
		rep.set("serve.http_overhead_ms."+fam, miss-analyze/1000-exec, rounds)
		// The hit's wall is everything a miss does except plan and execute,
		// measured on its own, so exec + hit is an independent estimate of
		// the miss's wall.
		mark := ""
		if sum := exec + hit; sum < 0.9*miss || sum > 1.1*miss {
			mark = "  (off by more than 10%)"
		}
		table = append(table, fmt.Sprintf("  %-10s %9.4f %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f %7.3f%s",
			fam, analyze/1000, planMS, exec, exec-planMS, hit, exec+hit, miss, (exec+hit)/miss, mark))
	}
	rep.Extra = append(rep.Extra, table...)
	return nil
}

// tracedPass is the whole traced pass after a workload's timed phase.
func tracedPass(rc *runCtx, in *instance, eng *core.Engine, g *gen, text func(f, r int) string) error {
	probeServeParts(rc)
	if err := probeLayers(rc, g, eng.Options().Scale); err != nil {
		return fmt.Errorf("layer probe: %w", err)
	}
	if err := replay(rc, in, eng, g.stream, rc.seconds/2, text); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	return nil
}
