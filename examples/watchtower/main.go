// Watchtower: standing queries over a live stream. An operations desk
// watches the rialto canal feed as frames arrive: a congestion alert
// ("tell me when ≥ 2 boats co-occur") and a running traffic estimate both
// stay registered as subscriptions, and every ingest batch advances them
// incrementally — the scan-style alert pays only the newly arrived
// frames; the sampled estimate re-runs deterministically against the
// materialized index. Each advanced answer is exactly what a cold query
// of the grown stream would return.
//
// Run with:
//
//	go run ./examples/watchtower
package main

import (
	"fmt"
	"log"

	blazeit "repro"
	"repro/examples/internal/exenv"
)

func main() {
	// Open the stream live: 40% of the day is visible now; the rest
	// "arrives" below via Append, as a camera would deliver it.
	sys, err := blazeit.Open("rialto", blazeit.Options{
		Scale:     exenv.Scale(0.05),
		Seed:      7,
		LiveStart: 0.4,
	})
	if err != nil {
		log.Fatal(err)
	}
	ls := sys.LiveStats()
	fmt.Printf("rialto live: %d of %d frames visible\n", ls.HorizonFrames, ls.DayFrames)

	// Standing alert: frames where at least two boats co-occur. The
	// binary-detection plan scans incrementally, so each advance pays
	// only the new frames.
	alert, err := sys.Subscribe(`
		SELECT timestamp FROM rialto
		WHERE class = 'boat'
		FNR WITHIN 0.05 FPR WITHIN 0.05`)
	if err != nil {
		log.Fatal(err)
	}
	// Standing estimate: frame-averaged boat count with an error bound.
	traffic, err := sys.Subscribe(`
		SELECT FCOUNT(*) FROM rialto
		WHERE class = 'boat'
		ERROR WITHIN 0.1 AT CONFIDENCE 95%`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("subscribed: alert plan %s, estimate plan %s\n",
		alert.Result().Stats.Plan, traffic.Result().Stats.Plan)
	fmt.Printf("at frame %6d: %3d alert frames; boats/frame %.3f\n",
		sys.LiveStats().HorizonFrames, len(alert.Result().Frames), traffic.Result().Value)

	// The day arrives in three batches; after each ingest both standing
	// queries advance to the new horizon.
	batch := (ls.DayFrames - ls.HorizonFrames) / 3
	for i := 0; i < 3; i++ {
		n := batch
		if i == 2 {
			n = ls.DayFrames // clamped to the day's end
		}
		added, err := sys.Append(n)
		if err != nil {
			log.Fatal(err)
		}
		ares, err := alert.Advance()
		if err != nil {
			log.Fatal(err)
		}
		tres, err := traffic.Advance()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ingested %6d frames -> frame %6d: %3d alert frames; boats/frame %.3f\n",
			added, sys.LiveStats().HorizonFrames, len(ares.Frames), tres.Value)
	}

	// The advanced answers are bit-identical to cold queries of the now
	// fully visible day — the continuous tier's core guarantee.
	cold, err := sys.Query(`
		SELECT FCOUNT(*) FROM rialto
		WHERE class = 'boat'
		ERROR WITHIN 0.1 AT CONFIDENCE 95%`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("standing estimate %.6f == cold re-query %.6f: %v\n",
		traffic.Result().Value, cold.Value, traffic.Result().Value == cold.Value)
}
