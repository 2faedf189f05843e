// Command mvbench is bench4, the visibility-scaling harness behind the
// bench-scaling CI job: register→visible lag and version-control
// throughput at 1, 4 and 16 goroutines, strict drain against epoch
// watermark (bench4.go). The paper's experiments are root tests and
// benchmarks (paper_test.go, bench_test.go).
//
// Usage:
//
//	mvbench [-quick] [-json out.json] [-minspeedup X]
package main

import "flag"

func main() {
	quick := flag.Bool("quick", false, "smaller runs")
	flag.StringVar(&jsonOut, "json", "", "also write machine-readable results (mvdb-bench/v1) to this file")
	flag.Float64Var(&minSpeedup, "minspeedup", 0, "gate on epoch-vs-strict visible-wait at 16 goroutines")
	flag.Parse()
	runBench4(*quick)
}
