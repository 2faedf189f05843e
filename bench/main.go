// Command bench is the repository's benchmark: four closed-loop workloads
// through the public mvdb API, end-to-end metrics from an untraced run,
// per-layer metrics from a traced run and from isolation benches, and an
// answer check on every run. BENCHMARK.json at the repository root is
// its contract with the driver; README.md defines every metric.
//
//	bash bench/run.sh --workload dur-hot-key --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh                       # every workload, both kinds of run
//	bash bench/run.sh -aa 5 -out a.json     # five end-to-end runs per workload
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "all", "workload to run; all; or gated: the ones BENCHMARK.json lists")
	seed := flag.Uint64("seed", 1, "selects the clients' transaction streams and the loaded values")
	seconds := flag.Int("seconds", defaultSeconds, "nominal length of the measured phase")
	trace := flag.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; -1: both")
	quick := flag.Bool("quick", false, "small counts: a smoke run, not a measurement")
	aa := flag.Int("aa", 0, "make this many end-to-end runs of each selected workload (default gated) and write them to -out")
	out := flag.String("out", "", "file -aa writes")
	compare := flag.Bool("compare", false, "compare two -aa files given as arguments; exit 1 if any median is worse by more than its bound")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json as the metric tables define it")
	flag.Parse()

	if *aa > 0 && *workload == "all" {
		*workload = "gated"
	}
	var todo []*spec
	for i := range workloads {
		if w := &workloads[i]; *workload == "all" || *workload == w.name || (*workload == "gated" && w.gated) {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		return fail(fmt.Errorf("unknown workload %q", *workload))
	}

	switch {
	case *printManifest:
		b, err := manifest()
		if err != nil {
			return fail(err)
		}
		os.Stdout.Write(b)
		return 0
	case *compare:
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two files"))
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	case *aa > 0:
		if *out == "" {
			return fail(fmt.Errorf("-aa needs -out"))
		}
		return fail(aaSet(todo, *aa, *seed, *seconds, *out))
	}

	// The sandbox has two cores; pinning says so in every result.
	runtime.GOMAXPROCS(clients)
	// Scratch lives in the checkout's build directory, the one place the
	// benchmark may write.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return fail(err)
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)

	code := 0
	for _, w := range todo {
		cfg := config{w: w, seed: *seed, seconds: *seconds, quick: *quick, dir: dir}
		for _, traced := range []bool{false, true} {
			if *trace >= 0 && traced != (*trace == 1) {
				continue
			}
			if err := runOne(os.Stdout, cfg, traced); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				code = 1
			}
		}
	}
	return code
}

func fail(err error) int {
	if err == nil {
		return 0
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

// runOne runs one workload once, prints every metric by name with its
// unit, and ends with the result line the driver parses. A failed answer
// check is printed in the result and also returned.
func runOne(w io.Writer, cfg config, traced bool) error {
	table, do := endToEnd, endToEndRun
	if traced {
		table, do = perLayer, tracedRun
	}
	fmt.Fprintf(w, "# %s seed=%d seconds=%d traced=%t clients=%d GOMAXPROCS=%d\n",
		cfg.w.name, cfg.seed, cfg.seconds, traced, clients, runtime.GOMAXPROCS(0))
	out, err := do(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.w.name, err)
	}
	res, err := newResult(table, out.values, out.incorrect == nil, out.attempted, out.failed)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.w.name, err)
	}
	for _, m := range table {
		fmt.Fprintf(w, "%-18s %-36s %14.4f %s\n", cfg.w.name, m.Name, out.values[m.Name], m.Unit)
	}
	fmt.Fprintf(w, "%-18s failed %d of %d attempted\n", cfg.w.name, out.failed, out.attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	if out.incorrect != nil {
		return fmt.Errorf("%s: %w", cfg.w.name, out.incorrect)
	}
	return nil
}
