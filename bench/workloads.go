package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/vidsim"
)

// workload is one traffic mix; why is the reason it exists, as
// BENCHMARK.json records it.
type workload struct {
	name string
	why  string
	run  func(rc *runCtx) error
}

var workloads = []workload{
	{"adhoc_miss", "2 clients, every query text distinct: the result cache always misses and evicts, so planner and executor do nearly all the work", runAdhocMiss},
	{"dashboard_hit", "2 clients refresh 21 fixed panels already in the result cache: serve does all the work, planner and executor idle; control for every core change", runDashboardHit},
	{"live_htap", "client A ingests and polls seven standing queries while client B reads: index extend, snapshot publish and Advance beside scans", runLiveHTAP},
	{"cold_restart", "1 client reopens servers on a populated index directory: training, inference, index build, file write and load dominate", runColdRestart},
}

// sizes fixes how much work a run does. They are sized so that a whole run
// (two set-ups, the timed phase, the oracle) takes about 25 s on two cores:
// the driver makes 92 runs in under an hour.
type sizes struct {
	scale       float64  // taipei workloads
	setupReps   int      // set-ups per run; setup_s is their median
	warmPerFam  int      // warm-up requests per family; also the dashboard's panels per family
	simCycles   int      // cycles whose replies feed sim_seconds_per_req
	keepCycles  int      // cycles whose replies the oracle checks
	liveCycles  int      // live_htap cycles whose latencies are reported
	liveStart   float64  // initially visible share of the live day
	ingestBatch int      // frames per /ingest
	readWindow  int      // frames per client-B FCOUNT
	coldScale   float64  // cold_restart streams
	coldStreams []string // cold_restart streams
	replayMax   int      // traced replay: most texts per family
}

var fullSizes = sizes{
	scale: 0.02, setupReps: 2, warmPerFam: 3, simCycles: 16, keepCycles: 2, liveCycles: 24,
	liveStart: 0.3, ingestBatch: 256, readWindow: 4000,
	coldScale: 0.01, coldStreams: []string{"taipei", "night-street", "rialto"},
	replayMax: 15,
}

var smokeSizes = sizes{
	scale: 0.01, setupReps: 1, warmPerFam: 3, simCycles: 2, keepCycles: 1, liveCycles: 8,
	liveStart: 0.3, ingestBatch: 256, readWindow: 2000,
	coldScale: 0.005, coldStreams: []string{"taipei"},
	replayMax: 1,
}

// runCtx is one run's arguments and its growing report.
type runCtx struct {
	seed    int64
	seconds float64
	trace   bool
	sz      sizes
	outDir  string
	rep     *report
	tr      *tracer
}

const taipei = "taipei"

// cycleReq is one request of a cycle: the family it is timed under and its
// query text.
type cycleReq struct {
	fam    int
	stream string
	text   string
}

// memDelta is what the Go runtime did across a timed phase.
type memDelta struct {
	allocBytes, mallocs uint64
	gcCount             uint32
	gcPause             time.Duration
	heapSys             uint64
}

func memSince(before *runtime.MemStats) memDelta {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return memDelta{
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		mallocs:    after.Mallocs - before.Mallocs,
		gcCount:    after.NumGC - before.NumGC,
		gcPause:    time.Duration(after.PauseTotalNs - before.PauseTotalNs),
		heapSys:    after.HeapSys,
	}
}

// timed is what a timed phase measured.
type timed struct {
	t     *tally
	wall  time.Duration
	mem   memDelta
	extra []string
}

// keepReply copies the client's current reply for the oracle.
func keepReply(t *tally, c *client, fam int, stream, text string, cycle int) {
	t.kept = append(t.kept, reply{
		Family: families[fam], Stream: stream, Query: text, Cycle: cycle,
		Body: append([]byte(nil), c.buf.Bytes()...),
	})
}

// addSim feeds one reply into the simulated-cost mean. Replies served from
// the result cache report zero cost and are skipped: the metric is the
// paper's cost per executed request.
func addSim(t *tally, body []byte) {
	if v := simSeconds(body); v > 0 {
		t.simSum += v
		t.simN++
	}
}

// timedCycles drives n closed-loop clients over /query for the given time.
// Clients take whole cycles from a shared counter and finish the cycle they
// are in, so every family is asked equally often.
func timedCycles(rc *runCtx, in *instance, n int, seconds float64, cycle func(i int) []cycleReq) timed {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	t := runClients(n, func(_ int, c *client, t *tally) {
		for time.Now().Before(deadline) {
			i := int(next.Add(1) - 1)
			cycleStart := time.Now()
			allOK := true
			for _, q := range cycle(i) {
				wall, ok := c.query(in.url, q.stream, q.text, false)
				t.record(q.fam, true, wall, ok)
				allOK = allOK && ok
				if !ok {
					continue
				}
				if i < rc.sz.simCycles {
					addSim(t, c.buf.Bytes())
				}
				if i < rc.sz.keepCycles {
					keepReply(t, c, q.fam, q.stream, q.text, i)
				}
			}
			if allOK {
				t.cycleMS = append(t.cycleMS, ms(time.Since(cycleStart)))
			}
		}
	})
	return timed{t: t, wall: time.Since(start), mem: memSince(&before)}
}

// fillEndToEnd turns a timed phase into the end-to-end metrics.
func (rc *runCtx) fillEndToEnd(setups []float64, warm *tally, td timed) {
	r, t := rc.rep, td.t
	r.Attempted, r.Failed = t.attempted, t.failed
	if t.failed > 0 {
		r.problem("%d of %d requests failed", t.failed, t.attempted)
	}
	r.set("setup_s", median(setups), len(setups))
	r.set("throughput_rps", float64(t.attempted-t.failed)/td.wall.Seconds(), t.attempted)
	q := sorted(t.queryMS)
	// p95 is the highest percentile every workload's ~450 /query samples
	// leave ten samples beyond.
	r.set("latency_p95_ms", quantile(q, 0.95), len(q))
	r.set("alloc_mb_per_req", float64(td.mem.allocBytes)/1e6/float64(t.attempted), t.attempted)
	simSum, simN := warm.simSum+t.simSum, warm.simN+t.simN
	r.set("sim_seconds_per_req", simSum/float64(simN), simN)
	r.set("cycle_p50_ms", median(t.cycleMS), len(t.cycleMS))
	for i, f := range families {
		r.set(f+"_p50_ms", median(t.famMS[i]), len(t.famMS[i]))
	}
	pct, v, n := pickTail(t.queryMS)
	r.Extra = append(r.Extra,
		fmt.Sprintf("timed phase: %.2f s, %d cycles behind cycle_p50_ms", td.wall.Seconds(), len(t.cycleMS)),
		fmt.Sprintf("/query tail: p%g = %.3f ms over n=%d (highest percentile with 10 samples beyond it)", pct, v, n))
	r.Extra = append(r.Extra, td.extra...)
	// The runtime's view of the same phase belongs to the per-layer table.
	r.set("runtime.gc_count", float64(td.mem.gcCount), 0)
	r.set("runtime.gc_pause_ms", ms(td.mem.gcPause), 0)
	r.set("runtime.heap_mb_peak", float64(td.mem.heapSys)/1e6, 0)
	r.set("runtime.allocs_per_req", float64(td.mem.mallocs)/float64(t.attempted), t.attempted)
}

// timedSeconds is how long the timed phase lasts: all of --seconds when the
// end-to-end metrics are wanted, half when the run goes on to the traced
// pass.
func (rc *runCtx) timedSeconds() float64 {
	if rc.trace {
		return rc.seconds / 2
	}
	return rc.seconds
}

// repeatSetup sets up setupReps times and keeps the last; earlier set-ups
// are torn down by the drop function the set-up returned. Traced runs set up
// once: they do not report setup_s.
func repeatSetup(rc *runCtx, setup func() (drop func(), err error)) (setups []float64, drop func(), err error) {
	reps := rc.sz.setupReps
	if rc.trace {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if drop != nil {
			drop()
		}
		start := time.Now()
		if drop, err = setup(); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	return setups, drop, nil
}

// ---- adhoc_miss and dashboard_hit ----

// queryServer is a full-day taipei server with both class indexes built and
// the first warmPerFam texts of every family already asked once.
type queryServer struct {
	in   *instance
	eng  *core.Engine
	g    *gen
	warm *tally
}

func buildClassIndexes(eng *core.Engine) error {
	for _, cc := range eng.Cfg.Classes {
		if err := eng.BuildIndex([]vidsim.Class{cc.Class}); err != nil {
			return fmt.Errorf("building %s index: %w", cc.Class, err)
		}
	}
	return nil
}

func setupQueryServer(rc *runCtx) (*queryServer, error) {
	in, err := startInstance(serve.Config{
		Engine:  core.Options{Scale: rc.sz.scale, Seed: 1},
		Streams: []string{taipei},
	})
	if err != nil {
		return nil, err
	}
	qs := &queryServer{in: in, warm: newTally()}
	if qs.eng, err = in.engine(taipei); err == nil {
		err = buildClassIndexes(qs.eng)
	}
	if err != nil {
		in.stop()
		return nil, err
	}
	qs.g = newGen(rc.seed, taipei, qs.eng.DayFrames())
	c := newClient()
	defer c.close()
	for f, fam := range families {
		for k := 0; k < rc.sz.warmPerFam; k++ {
			text := qs.g.query(fam, k, false)
			if _, ok := c.query(in.url, taipei, text, false); !ok {
				in.stop()
				return nil, fmt.Errorf("warm-up %s #%d failed: %s", fam, k, c.buf.String())
			}
			addSim(qs.warm, c.buf.Bytes())
			keepReply(qs.warm, c, f, taipei, text, -1)
		}
	}
	return qs, nil
}

// runQueries is adhoc_miss and dashboard_hit: the two differ in the cycle
// clients run and in the texts the traced replay walks.
func runQueries(rc *runCtx, cycle func(qs *queryServer, i int) []cycleReq, traceK func(r int) int) error {
	var qs *queryServer
	setups, drop, err := repeatSetup(rc, func() (func(), error) {
		s, err := setupQueryServer(rc)
		if err != nil {
			return nil, err
		}
		qs = s
		return s.in.stop, nil
	})
	if err != nil {
		return err
	}
	defer drop()
	td := timedCycles(rc, qs.in, 2, rc.timedSeconds(), func(i int) []cycleReq { return cycle(qs, i) })
	rc.fillEndToEnd(setups, qs.warm, td)
	if rc.trace {
		if err := serveCounters(rc.rep, qs.in); err != nil {
			return err
		}
		text := func(f, r int) string { return qs.g.query(families[f], traceK(r), false) }
		if err := tracedPass(rc, qs.in, qs.eng, qs.g, text); err != nil {
			return err
		}
	}
	checkQueryReplies(rc.rep, qs.eng, qs.warm.kept, td.t.kept)
	return nil
}

// runAdhocMiss asks every family once per cycle, each text for the first
// time: texts start after the warm-up's.
func runAdhocMiss(rc *runCtx) error {
	return runQueries(rc, func(qs *queryServer, i int) []cycleReq {
		reqs := make([]cycleReq, 0, len(families))
		for _, f := range qs.g.order(i) {
			reqs = append(reqs, cycleReq{f, taipei, qs.g.query(families[f], rc.sz.warmPerFam+i, false)})
		}
		return reqs
	}, func(r int) int { return rc.sz.warmPerFam + r })
}

// runDashboardHit refreshes the warmed panels, in a new seeded order each
// cycle.
func runDashboardHit(rc *runCtx) error {
	return runQueries(rc, func(qs *queryServer, i int) []cycleReq {
		n := len(families) * rc.sz.warmPerFam
		reqs := make([]cycleReq, 0, n)
		for _, p := range rand.New(rand.NewSource(rc.seed<<20 + int64(i))).Perm(n) {
			f, k := p/rc.sz.warmPerFam, p%rc.sz.warmPerFam
			reqs = append(reqs, cycleReq{f, taipei, qs.g.query(families[f], k, false)})
		}
		return reqs
	}, func(r int) int { return r % rc.sz.warmPerFam })
}
