package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// coldConfig is a server over the cold_restart streams with its index tier
// rooted at dir.
func coldConfig(rc *runCtx, dir string) serve.Config {
	return serve.Config{
		Engine:  core.Options{Scale: rc.sz.coldScale, Seed: 1, IndexDir: dir},
		Streams: rc.sz.coldStreams,
	}
}

// firstAnswers opens a server on dir, asks every stream its first query of
// each family, and returns the wall time from server start to the last
// answer. On an empty dir that trains, labels, builds and (at stop) writes
// the index; on a populated one it loads it. A family's sample for the cycle
// is its first-answer latency averaged over the streams: per-stream samples
// would make the family's median the middle stream's, whichever that is.
// The caller stops the instance.
func firstAnswers(rc *runCtx, dir string, c *client, t *tally, cycle int) (*instance, time.Duration, error) {
	start := time.Now()
	in, err := startInstance(coldConfig(rc, dir))
	if err != nil {
		return nil, 0, err
	}
	famSum := make([]time.Duration, len(families))
	for _, stream := range rc.sz.coldStreams {
		eng, err := in.engine(stream)
		if err != nil {
			in.stop()
			return nil, 0, fmt.Errorf("opening %s: %w", stream, err)
		}
		g := newGen(rc.seed, stream, eng.DayFrames())
		for f, fam := range families {
			text := g.query(fam, f, false)
			wall, ok := c.query(in.url, stream, text, false)
			t.record(-1, true, wall, ok)
			if !ok {
				in.stop()
				return nil, 0, fmt.Errorf("%s %s failed: %s", stream, fam, c.buf.String())
			}
			famSum[f] += wall
			// Every reopen cycle costs the same simulated seconds, so the
			// cold cycle and the first reopen are the whole population.
			if cycle < 1 {
				addSim(t, c.buf.Bytes())
			}
			if cycle < rc.sz.keepCycles {
				keepReply(t, c, f, stream, text, cycle)
			}
		}
	}
	cycleWall := time.Since(start)
	for f, sum := range famSum {
		t.famMS[f] = append(t.famMS[f], ms(sum)/float64(len(rc.sz.coldStreams)))
	}
	return in, cycleWall, nil
}

func runColdRestart(rc *runCtx) error {
	c := newClient()
	defer c.close()
	// Set-up is the cold cycle: empty directory to flushed index.
	var dir string
	var cold *tally
	rep := 0
	setups, _, err := repeatSetup(rc, func() (func(), error) {
		rep++
		dir = filepath.Join(rc.outDir, "tmp", fmt.Sprintf("index-%d", rep))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		cold = newTally()
		in, _, err := firstAnswers(rc, dir, c, cold, -1)
		if err != nil {
			return nil, err
		}
		in.stop()
		return func() {}, nil
	})
	if err != nil {
		return err
	}

	// Timed phase: reopen cycles on the populated directory, one client.
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	t := newTally()
	var stopWall time.Duration
	start := time.Now()
	deadline := start.Add(time.Duration(rc.timedSeconds() * float64(time.Second)))
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		in, wall, err := firstAnswers(rc, dir, c, t, i)
		if err != nil {
			return err
		}
		t.cycleMS = append(t.cycleMS, ms(wall))
		if rc.trace {
			if err := serveCounters(rc.rep, in); err != nil {
				in.stop()
				return err
			}
		}
		stopStart := time.Now()
		in.stop()
		stopWall += time.Since(stopStart)
	}
	td := timed{t: t, wall: time.Since(start), mem: memSince(&before)}
	td.extra = []string{
		fmt.Sprintf("reopen_s = cycle_p50_ms / 1000 = %.4f s (server start -> last first answer); cold cycle = setup_s", median(t.cycleMS)/1000),
		fmt.Sprintf("close and flush: %.4f s per cycle", stopWall.Seconds()/float64(len(t.cycleMS))),
	}
	rc.fillEndToEnd(setups, cold, td)

	if rc.trace {
		in, err := startInstance(coldConfig(rc, dir))
		if err != nil {
			return err
		}
		defer in.stop()
		stream := rc.sz.coldStreams[0]
		eng, err := in.engine(stream)
		if err != nil {
			return err
		}
		g := newGen(rc.seed, stream, eng.DayFrames())
		text := func(f, _ int) string { return g.query(families[f], f, false) }
		if err := tracedPass(rc, in, eng, g, text); err != nil {
			return err
		}
	}
	checkReopenReplies(rc.rep, cold.kept, t.kept)
	return nil
}

// checkReopenReplies holds every kept reopen answer against the cold
// cycle's answer to the same query: an index loaded from disk must answer
// exactly as the one that was just built, at the same scan cost.
func checkReopenReplies(rep *report, cold, reopened []reply) {
	want := make(map[string]*wireReply, len(cold))
	for _, k := range cold {
		var w wireReply
		if err := json.Unmarshal(k.Body, &w); err != nil {
			rep.problem("oracle: cold %s %s reply is not JSON: %v", k.Stream, k.Family, err)
			continue
		}
		want[k.Stream+"\x00"+k.Query] = &w
	}
	checked := 0
	for _, k := range reopened {
		var got wireReply
		if err := json.Unmarshal(k.Body, &got); err != nil {
			rep.problem("oracle: reopened %s %s reply is not JSON: %v", k.Stream, k.Family, err)
			continue
		}
		w := want[k.Stream+"\x00"+k.Query]
		if w == nil {
			rep.problem("oracle: no cold answer for %s %s", k.Stream, k.Family)
			continue
		}
		for _, d := range diffWire(&got, w) {
			rep.problem("oracle: %s %s after reopen %d vs cold: %s", k.Stream, k.Family, k.Cycle, d)
		}
		checked++
	}
	rep.Extra = append(rep.Extra, fmt.Sprintf("oracle: %d first answers after reopen equal the cold cycle's", checked))
}

// diffWire lists how two replies to one query differ in answer or scan cost.
func diffWire(got, want *wireReply) []string {
	var d []string
	if got.Kind != want.Kind {
		d = append(d, fmt.Sprintf("kind %q != %q", got.Kind, want.Kind))
	}
	if (got.Value == nil) != (want.Value == nil) ||
		got.Value != nil && math.Float64bits(*got.Value) != math.Float64bits(*want.Value) {
		d = append(d, "values differ")
	}
	if !slices.Equal(got.Frames, want.Frames) {
		d = append(d, fmt.Sprintf("frames differ (%d vs %d)", len(got.Frames), len(want.Frames)))
	}
	if !slices.Equal(got.TrackIDs, want.TrackIDs) {
		d = append(d, fmt.Sprintf("track ids differ (%d vs %d)", len(got.TrackIDs), len(want.TrackIDs)))
	}
	if len(got.Rows) != len(want.Rows) {
		d = append(d, fmt.Sprintf("rows %d != %d", len(got.Rows), len(want.Rows)))
	}
	if got.Plan == want.Plan && (got.Stats.DetectorCalls != want.Stats.DetectorCalls ||
		math.Float64bits(got.Stats.DetectorSeconds) != math.Float64bits(want.Stats.DetectorSeconds) ||
		math.Float64bits(got.Stats.FilterSeconds) != math.Float64bits(want.Stats.FilterSeconds)) {
		d = append(d, fmt.Sprintf("cost under plan %s differs", got.Plan))
	}
	return d
}
