package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
)

// commit is the revision the binary was built from, when the toolchain
// could see one.
func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+modified"
			}
		}
	}
	return rev + dirty
}

// runRepeated runs every workload once per listed seed and compares the
// end-to-end readings with each metric's bound, by their quartile spread as
// the driver computes it; for the two runs of -check that is their distance
// as a share of their mean. setup_s is listed but, as in the driver, its
// spread does not fail the run. It returns the process exit code.
func runRepeated(sz sizes, seeds []int64, seconds float64, outDir string) int {
	fmt.Printf("# nproc=%d GOMAXPROCS=%d go=%s commit=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	fmt.Printf("# scale=%g cold_scale=%g cold_streams=%v seeds=%v seconds=%g setups_per_run=%d\n",
		sz.scale, sz.coldScale, sz.coldStreams, seeds, seconds, sz.setupReps)
	code := 0
	for _, w := range workloads {
		values := make(map[string][]float64)
		for _, seed := range seeds {
			rep, err := runOne(w, &runCtx{seed: seed, seconds: seconds, sz: sz, outDir: outDir})
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.name, seed, err)
				return 2
			}
			if !rep.Correct {
				code = 1
				for _, p := range rep.Problems {
					fmt.Printf("%s seed %d PROBLEM: %s\n", w.name, seed, p)
				}
			}
			for name, m := range rep.line().Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		for _, d := range endToEnd() {
			xs := values[d.Name]
			sp := spread(xs)
			verdict := "ok"
			if sp > d.Bound && d.Name != "setup_s" {
				verdict, code = "OVER BOUND", 1
			}
			fmt.Printf("%-14s %-20s %-6s median %12.6g  spread %6.2f%%  bound %3.0f%%  %-10s %.6g\n",
				w.name, d.Name, d.Unit, median(xs), 100*sp, 100*d.Bound, verdict, xs)
		}
	}
	return code
}
