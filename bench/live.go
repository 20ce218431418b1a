package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/frameql"
	"repro/internal/plan"
	"repro/internal/serve"
)

// liveServer is a taipei server opened live, both class indexes built over
// the visible prefix, one standing query per family subscribed.
type liveServer struct {
	in    *instance
	eng   *core.Engine
	g     *gen
	texts []string // standing query per family
	subs  []string // subscription id per family
	warm  *tally
	start int // horizon at subscribe time
}

// standingText is family f's standing query: text number f, so the seven
// subscriptions spread over the parameter pools.
func standingText(g *gen, f int) string { return g.query(families[f], f, true) }

func setupLiveServer(rc *runCtx) (*liveServer, error) {
	in, err := startInstance(serve.Config{
		Engine:  core.Options{Scale: rc.sz.scale, Seed: 1, LiveStart: rc.sz.liveStart},
		Streams: []string{taipei},
	})
	if err != nil {
		return nil, err
	}
	ls := &liveServer{in: in, warm: newTally()}
	if ls.eng, err = in.engine(taipei); err == nil {
		err = buildClassIndexes(ls.eng)
	}
	if err != nil {
		in.stop()
		return nil, err
	}
	ls.g = newGen(rc.seed, taipei, ls.eng.DayFrames())
	ls.start = ls.eng.Horizon()
	c := newClient()
	defer c.close()
	for f, fam := range families {
		text := standingText(ls.g, f)
		body, _ := json.Marshal(map[string]any{"stream": taipei, "query": text})
		if _, ok := c.do(http.MethodPost, in.url+"/subscribe", body); !ok {
			in.stop()
			return nil, fmt.Errorf("subscribing %s failed: %s", fam, c.buf.String())
		}
		var sub wirePoll
		if err := json.Unmarshal(c.buf.Bytes(), &sub); err != nil {
			in.stop()
			return nil, fmt.Errorf("subscribing %s: %w", fam, err)
		}
		ls.texts = append(ls.texts, text)
		ls.subs = append(ls.subs, sub.ID)
		keepReply(ls.warm, c, f, taipei, text, -1)
	}
	// Client B's scan shape, once, so its first timed read is not the one
	// that pays for planning statistics.
	if _, ok := c.query(in.url, taipei, ls.g.fcount(0, rc.sz.readWindow, ls.start), false); !ok {
		in.stop()
		return nil, fmt.Errorf("warm-up read failed: %s", c.buf.String())
	}
	return ls, nil
}

var horizonKey = []byte(`"horizon":`)

// replyHorizon reads the first "horizon" of a reply without decoding it; on
// /ingest and /poll replies that is the stream or answer horizon.
func replyHorizon(body []byte) int {
	i := bytes.Index(body, horizonKey)
	if i < 0 {
		return -1
	}
	rest := body[i+len(horizonKey):]
	end := bytes.IndexAny(rest, ",}")
	if end < 0 {
		return -1
	}
	h, err := strconv.Atoi(string(rest[:end]))
	if err != nil {
		return -1
	}
	return h
}

// timedLive runs the two clients. Client A is the camera side and its
// dashboard: append a batch, then poll every standing query until each
// reports the new horizon; one such cycle is the freshness a viewer sees.
// Client B is an analyst reading a fixed-size window of history. The phase
// ends at the deadline or when the day has been ingested, whichever is
// first. A standing query's /poll gets slower as the stream grows (an
// exhaustive one from 37 to 85 ms over 27 cycles), so only the first
// liveCycles cycles feed the latency medians: otherwise speeding up one
// family would fit more cycles into the phase and so slow the others' p50.
func timedLive(rc *runCtx, ls *liveServer, seconds float64) timed {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	var stop atomic.Bool
	var ingestWall time.Duration
	var ingested, cycles int
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	day := ls.eng.DayFrames()
	ingestBody, _ := json.Marshal(map[string]any{"stream": taipei, "frames": rc.sz.ingestBatch})
	t := runClients(2, func(id int, c *client, t *tally) {
		if id == 1 {
			for k := 1; !stop.Load(); k++ {
				wall, ok := c.query(ls.in.url, taipei, ls.g.fcount(k, rc.sz.readWindow, ls.start), false)
				t.record(-1, true, wall, ok)
			}
			return
		}
		defer stop.Store(true)
		horizon := ls.start
		for i := 0; time.Now().Before(deadline) && horizon < day; i++ {
			cycleStart := time.Now()
			wall, ok := c.do(http.MethodPost, ls.in.url+"/ingest", ingestBody)
			t.record(-1, false, wall, ok)
			if !ok {
				return
			}
			ingestWall += wall
			now := replyHorizon(c.buf.Bytes())
			ingested += now - horizon
			horizon = now
			fresh := true
			reported := i < rc.sz.liveCycles
			for _, f := range ls.g.order(i) {
				wall, ok := c.do(http.MethodGet, ls.in.url+"/poll?id="+ls.subs[f], nil)
				if ok && replyHorizon(c.buf.Bytes()) != horizon {
					ok = false // a stale answer is a failed poll
				}
				fam := f
				if !reported {
					fam = -1
				}
				t.record(fam, false, wall, ok)
				fresh = fresh && ok
				if !ok {
					continue
				}
				if i < rc.sz.simCycles {
					addSim(t, c.buf.Bytes())
				}
				if i < rc.sz.keepCycles {
					keepReply(t, c, f, taipei, ls.texts[f], i)
				}
			}
			if fresh && reported {
				t.cycleMS = append(t.cycleMS, ms(time.Since(cycleStart)))
			}
			cycles++
		}
	})
	td := timed{t: t, wall: time.Since(start), mem: memSince(&before)}
	td.extra = []string{
		fmt.Sprintf("ingest_fps = %.0f 1/s (%d frames in %d-frame batches over %.3f s of /ingest wall)",
			float64(ingested)/ingestWall.Seconds(), ingested, rc.sz.ingestBatch, ingestWall.Seconds()),
		fmt.Sprintf("freshness_p50_ms = cycle_p50_ms = %.3f ms (/ingest sent -> last /poll reporting the new horizon)", median(t.cycleMS)),
		fmt.Sprintf("horizon %d -> %d of %d frames in %d cycles; latencies are those of the first %d",
			ls.start, ls.eng.Horizon(), day, cycles, rc.sz.liveCycles),
	}
	return td
}

func runLiveHTAP(rc *runCtx) error {
	// The first set-up's engine is kept at its initial horizon: the oracle
	// replays the first cycles on it with direct Advance calls.
	var ls *liveServer
	var oracleEng *core.Engine
	setups, drop, err := repeatSetup(rc, func() (func(), error) {
		s, err := setupLiveServer(rc)
		if err != nil {
			return nil, err
		}
		if oracleEng == nil {
			oracleEng = s.eng
		}
		ls = s
		return s.in.stop, nil
	})
	if err != nil {
		return err
	}
	defer drop()
	if oracleEng == ls.eng { // a single set-up: the oracle needs its own engine
		if oracleEng, err = core.NewEngine(taipei, ls.eng.Options()); err == nil {
			err = buildClassIndexes(oracleEng)
		}
		if err != nil {
			return fmt.Errorf("oracle engine: %w", err)
		}
	}
	td := timedLive(rc, ls, rc.timedSeconds())
	rc.fillEndToEnd(setups, ls.warm, td)
	if rc.trace {
		if err := serveCounters(rc.rep, ls.in); err != nil {
			return err
		}
		// The standing texts themselves, asked as one-shot queries at the
		// horizon the timed phase reached.
		text := func(f, _ int) string { return ls.texts[f] }
		if err := tracedPass(rc, ls.in, ls.eng, ls.g, text); err != nil {
			return err
		}
	}
	checkLiveReplies(rc, ls, oracleEng, td.t.kept)
	return nil
}

// checkLiveReplies replays the kept cycles on an engine of its own: every
// kept /poll answer must equal a direct Advance at the same horizon, and a
// final poll of every subscription must equal a fresh query on the serving
// engine.
func checkLiveReplies(rc *runCtx, ls *liveServer, eng *core.Engine, kept []reply) {
	rep := rc.rep
	byCycle := make(map[[2]int]*wireReply) // (cycle, family) -> reply
	for _, k := range kept {
		var p wirePoll
		if err := json.Unmarshal(k.Body, &p); err != nil {
			rep.problem("oracle: %s poll is not JSON: %v", k.Family, err)
			continue
		}
		p.Result.Horizon = p.Horizon
		byCycle[[2]int{k.Cycle, familyIndex(k.Family)}] = &p.Result
	}
	checked := 0
	cursors := make([]*plan.Cursor, len(families))
	for f := range families {
		info, err := frameql.Analyze(ls.texts[f])
		if err != nil {
			rep.problem("oracle: analyzing standing %s: %v", families[f], err)
			return
		}
		x, err := eng.BeginQuery(info, 1)
		if err == nil {
			err = x.RunTo(-1)
		}
		if err == nil {
			cursors[f], err = x.Suspend()
		}
		if err != nil {
			rep.problem("oracle: starting standing %s: %v", families[f], err)
			return
		}
	}
	for cycle := 0; cycle < rc.sz.keepCycles; cycle++ {
		if byCycle[[2]int{cycle, 0}] == nil {
			break // the run ended before this cycle
		}
		if _, err := eng.AppendLive(rc.sz.ingestBatch); err != nil {
			rep.problem("oracle: append: %v", err)
			return
		}
		for f := range families {
			res, cur, err := eng.Advance(cursors[f])
			if err != nil {
				rep.problem("oracle: advancing %s: %v", families[f], err)
				return
			}
			cursors[f] = cur
			w := byCycle[[2]int{cycle, f}]
			if w == nil {
				rep.problem("oracle: no kept %s poll for cycle %d", families[f], cycle)
				continue
			}
			if w.Horizon != cur.Horizon {
				rep.problem("oracle: %s cycle %d horizon %d != %d", families[f], cycle, w.Horizon, cur.Horizon)
			}
			for _, d := range diffResult(w, res) {
				rep.problem("oracle: %s poll (cycle %d) vs direct Advance: %s", families[f], cycle, d)
			}
			checked++
		}
	}
	// Ingest has stopped: one more poll of each subscription answers at the
	// final horizon, where a fresh query must agree.
	c := newClient()
	defer c.close()
	pe, _ := ls.eng.Pin()
	for f := range families {
		if _, ok := c.do(http.MethodGet, ls.in.url+"/poll?id="+ls.subs[f], nil); !ok {
			rep.problem("oracle: final %s poll failed: %s", families[f], c.buf.String())
			continue
		}
		var p wirePoll
		if err := json.Unmarshal(c.buf.Bytes(), &p); err != nil {
			rep.problem("oracle: final %s poll is not JSON: %v", families[f], err)
			continue
		}
		info, _ := frameql.Analyze(ls.texts[f])
		res, err := pe.ExecuteForced(info, 1, p.Result.Plan)
		if err != nil {
			rep.problem("oracle: fresh %s failed: %v", families[f], err)
			continue
		}
		if p.Horizon != pe.Horizon() {
			rep.problem("oracle: final %s poll at horizon %d, stream at %d", families[f], p.Horizon, pe.Horizon())
		}
		for _, d := range diffAnswer(&p.Result, res) {
			rep.problem("oracle: final %s poll vs fresh query: %s", families[f], d)
		}
		checked++
	}
	rep.Extra = append(rep.Extra, fmt.Sprintf("oracle: %d poll answers equal direct Advance or fresh executions", checked))
}

func familyIndex(name string) int {
	for i, f := range families {
		if f == name {
			return i
		}
	}
	return -1
}
