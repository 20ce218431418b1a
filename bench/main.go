// Command bench is this repository's benchmark: a closed-loop load generator
// that starts the real serving handler on a loopback socket, drives it over
// HTTP from a seeded request list, checks every kept answer against direct
// executions, and prints every metric by name and unit. README.md explains
// the workloads, the metrics and how to read the output.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all four, end-to-end then traced)")
		seed    = flag.Int64("seed", 1, "request-generator seed; the engine always gets seed 1")
		seconds = flag.Float64("seconds", 10, "length of the timed phase")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced pass and per-layer metrics")
		smoke   = flag.Bool("smoke", false, "small sizes: every workload finishes in under 10 s")
		check   = flag.Bool("check", false, "run every workload twice on one seed and fail if an end-to-end pair differs by more than its bound")
		seeds   = flag.Int("spread", 0, "run every workload on this many consecutive seeds and fail if a metric's quartile spread exceeds its bound")
		outDir  = flag.String("out", "out", "directory for trace files and temporary index directories")
	)
	flag.Parse()
	sz := fullSizes
	if *smoke {
		sz = smokeSizes
		if !flagSet("seconds") {
			*seconds = 2
		}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	if *check || *seeds > 0 {
		list := []int64{*seed, *seed}
		if *seeds > 0 {
			list = list[:0]
			for i := 0; i < *seeds; i++ {
				list = append(list, *seed+int64(i))
			}
		}
		os.Exit(runRepeated(sz, list, *seconds, *outDir))
	}
	selected := workloads
	modes := []bool{false, true}
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		selected, modes = []workload{w}, []bool{*trace == 1}
	}
	failed := false
	for _, w := range selected {
		for _, traced := range modes {
			rep, err := runOne(w, &runCtx{seed: *seed, seconds: *seconds, trace: traced, sz: sz, outDir: *outDir})
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w.name, err))
			}
			rep.print(os.Stdout)
			failed = failed || !rep.Correct
		}
	}
	if failed {
		os.Exit(1)
	}
}

func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runOne runs one workload in one mode and returns its finished report. The
// run's temporary files live under outDir/tmp and are removed with it.
func runOne(w workload, rc *runCtx) (*report, error) {
	rc.rep = newReport(w.name)
	defs := endToEnd()
	if rc.trace {
		defs = perLayer()
		rc.tr = newTracer()
	}
	tmp := filepath.Join(rc.outDir, "tmp")
	defer os.RemoveAll(tmp)
	if err := w.run(rc); err != nil {
		return nil, err
	}
	if rc.trace {
		if err := rc.tr.write(filepath.Join(rc.outDir, w.name+".trace.json")); err != nil {
			return nil, err
		}
	}
	rc.rep.finish(defs)
	return rc.rep, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
