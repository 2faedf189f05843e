// Command mvbench regenerates the experiment tables in EXPERIMENTS.md:
// every comparative claim of the paper (Sections 1, 2, 6) measured
// against the re-implemented baselines, plus the micro-benchmarks of the
// version control module itself.
//
// Usage:
//
//	mvbench [-experiment all|f1|e1..e8|bench4] [-quick] [-stats]
//	        [-json out.json] [-minspeedup X]
//
// With -stats, every harness run is followed by the engine's full
// counter snapshot (commits and aborts by cause, lock/WAL/GC substrate,
// version-control gauges), as the indented JSON document /debug/mvdb
// serves, so a surprising table cell can be explained without
// re-running under a profiler.
//
// Each experiment prints one or more plain-text tables. Absolute numbers
// depend on the machine (these are CPU-bound simulations, not the paper's
// 1989 testbed); the qualitative shape — who wins, what is zero, what
// grows — is the reproduction target.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	var (
		which   = flag.String("experiment", "all", "experiment id (f1, e1..e8, bench4) or 'all'")
		quick   = flag.Bool("quick", false, "smaller runs (CI-sized)")
		stats   = flag.Bool("stats", false, "print the engine's full stats snapshot after each run")
		jsonOpt = flag.String("json", "", "bench4: also write machine-readable results (mvdb-bench/v1) to this file")
		minSpd  = flag.Float64("minspeedup", 0, "bench4: gate on epoch-vs-strict visible-wait at 16 goroutines")
	)
	flag.Parse()
	showStats = *stats
	jsonOut = *jsonOpt
	minSpeedup = *minSpd

	experiments := []struct {
		id   string
		name string
		run  func(quick bool)
	}{
		{"f1", "Figure 1: version control module microbenchmark", runF1},
		{"e1", "E1: read-only transaction overhead per engine", runE1},
		{"e2", "E2: read-write aborts caused by read-only transactions", runE2},
		{"e3", "E3: read-only blocking behind writers", runE3},
		{"e4", "E4: snapshot start cost — VCstart vs CTL copy", runE4},
		{"e5", "E5: throughput sweep (read-only share x contention)", runE5},
		{"e6", "E6: delayed visibility and its rectification", runE6},
		{"e7", "E7: version garbage collection", runE7},
		{"e8", "E8: distributed version control", runE8},
		{"bench4", "bench4: visibility scaling — strict drain vs epoch watermark", runBench4},
	}

	ran := 0
	for _, e := range experiments {
		if *which != "all" && !strings.EqualFold(*which, e.id) {
			continue
		}
		fmt.Printf("\n######## %s ########\n\n", e.name)
		e.run(*quick)
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *which)
		os.Exit(2)
	}
}
