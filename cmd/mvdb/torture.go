package main

import (
	"fmt"
	"os"
	"time"

	"mvdb/internal/crashtest"
)

// tortureResult is one configuration's entry in the
// mvtorture-verdict/v1 document.
type tortureResult struct {
	Config string `json:"config"`
	Seed   int64  `json:"seed"`
	Pass   bool   `json:"pass"`
	Error  string `json:"error,omitempty"`
	Dir    string `json:"dir,omitempty"`
	Bundle string `json:"bundle,omitempty"`

	Rounds      int `json:"rounds"`
	Crashes     int `json:"crashes"`
	CleanRounds int `json:"clean_rounds"`
	Acked       int `json:"acked"`
	Attempts    int `json:"attempts"`
}

// torture runs the crash-fault-injection loop of internal/crashtest
// against the real engine: rounds of recover → audit → concurrent
// commits under a fault-injecting filesystem → power cut, with the dual
// oracle (acknowledged-commit durability and recovered-state
// correctness) checked at every recovery. The time budget is split
// evenly across the configurations. Any violation prints the offending
// round and configuration, writes a flight-recorder postmortem bundle
// next to the surviving state (render it with mvdb inspect -bundle),
// and exits 1.
func torture(args []string) int {
	fs := flags("torture", "[-seed N] [-duration 60s | -rounds N] [-clients N] [-protocol 2pl|to|occ|all] [-vc strict|epoch|all] [-dir D] [-json out.json] [-v]")
	var (
		seed     = fs.Int64("seed", 1, "base seed; each configuration derives its own from it")
		duration = fs.Duration("duration", 60*time.Second, "total wall-clock budget, split across configurations (ignored if -rounds > 0)")
		rounds   = fs.Int("rounds", 0, "crash rounds per configuration instead of a time budget")
		clients  = fs.Int("clients", 4, "concurrent committers per round")
		m        = matrixFlags(fs)
		dir      = fs.String("dir", "", "working directory (default: a fresh temp dir, removed on success)")
		jsonOut  = fs.String("json", "", "write the machine-readable verdict to this file")
		verbose  = fs.Bool("v", false, "log every round")
	)
	fs.Parse(args)
	configs := m.configs()
	if len(configs) == 0 {
		return 2
	}
	perConfig := crashtest.TortureOptions{Rounds: *rounds, Clients: *clients}
	if *rounds <= 0 {
		perConfig.Duration = *duration / time.Duration(len(configs))
	}
	return runMatrix("mvtorture-verdict/v1", *dir, *jsonOut, *seed, configs,
		func(i int, cfg crashtest.Config, base string) (tortureResult, bool) {
			opts := perConfig
			opts.Seed = *seed + int64(i)*1000003
			opts.Config = cfg
			if *verbose {
				opts.Log = func(format string, args ...any) {
					fmt.Printf("  [%s] %s\n", cfg, fmt.Sprintf(format, args...))
				}
			}
			d, err := subdir(base, fmt.Sprintf("cfg%d", i))
			var rep crashtest.TortureReport
			if err == nil {
				opts.FlightDir = d
				rep, err = crashtest.Torture(d, opts)
			}
			res := tortureResult{
				Config: cfg.String(), Seed: opts.Seed, Pass: err == nil, Dir: d, Bundle: rep.Bundle,
				Rounds: rep.Rounds, Crashes: rep.Crashes, CleanRounds: rep.CleanRounds,
				Acked: rep.Acked, Attempts: rep.Attempts,
			}
			if err != nil {
				res.Error = err.Error()
				fmt.Fprintf(os.Stderr, "FAIL %s (seed %d): %v\n  after %d rounds (%d crashes), %d/%d commits acked; state kept in %s\n",
					cfg, opts.Seed, err, rep.Rounds, rep.Crashes, rep.Acked, rep.Attempts, d)
				if rep.Bundle != "" {
					fmt.Fprintf(os.Stderr, "  postmortem: mvdb inspect -bundle %s\n", rep.Bundle)
				}
			} else {
				fmt.Printf("PASS %s (seed %d): %d rounds, %d crashes, %d clean; %d/%d commits acked, zero violations\n",
					cfg, opts.Seed, rep.Rounds, rep.Crashes, rep.CleanRounds, rep.Acked, rep.Attempts)
			}
			return res, res.Pass
		})
}
