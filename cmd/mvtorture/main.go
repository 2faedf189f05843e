// Command mvtorture runs the crash-fault-injection torture loop from
// internal/crashtest against the real engine: rounds of recover → audit
// → concurrent commits under a fault-injecting filesystem → power cut,
// with the dual oracle (acknowledged-commit durability AND recovered-
// state correctness) checked at every recovery.
//
// Usage:
//
//	mvtorture [-seed N] [-duration 60s | -rounds N] [-clients N]
//	          [-protocol 2pl|to|occ|all] [-vc strict|epoch|all]
//	          [-dir D] [-v]
//
// The default runs the full engine matrix (three protocols, both
// visibility modes) and splits the time budget evenly. Exit status is
// 0 only if every configuration completes with zero oracle violations;
// any violation prints the offending round and config and exits 1. On a
// violation a flight-recorder postmortem bundle is written next to the
// surviving state (render it with mvinspect -bundle).
//
// With -json the machine-readable verdict (one document for the whole
// run, including per-configuration bundle paths) is written to the
// given file, for CI to collect as an artifact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mvdb/internal/core"
	"mvdb/internal/crashtest"
	"mvdb/internal/vc"
)

// verdict is the -json output document.
type verdict struct {
	Schema  string         `json:"schema"`
	Seed    int64          `json:"seed"`
	Elapsed time.Duration  `json:"elapsed_ns"`
	Passed  bool           `json:"passed"`
	Configs []configResult `json:"configs"`
}

type configResult struct {
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

func main() {
	var (
		seed     = flag.Int64("seed", 1, "base seed; each configuration derives its own from it")
		duration = flag.Duration("duration", 60*time.Second, "total wall-clock budget, split across configurations (ignored if -rounds > 0)")
		rounds   = flag.Int("rounds", 0, "crash rounds per configuration instead of a time budget")
		clients  = flag.Int("clients", 4, "concurrent committers per round")
		protocol = flag.String("protocol", "all", "2pl, to, occ, or all")
		vcFlag   = flag.String("vc", "all", "visibility mode: strict, epoch, or all (both)")
		dir      = flag.String("dir", "", "working directory (default: a fresh temp dir, removed on success)")
		jsonOut  = flag.String("json", "", "write the machine-readable verdict to this file")
		verbose  = flag.Bool("v", false, "log every round")
	)
	flag.Parse()

	var configs []crashtest.Config
	for _, c := range crashtest.Configs() {
		if !protocolMatch(*protocol, c.Protocol) {
			continue
		}
		if !visibilityMatch(*vcFlag, c.Visibility) {
			continue
		}
		configs = append(configs, c)
	}
	if len(configs) == 0 {
		fmt.Fprintf(os.Stderr, "no configuration matches -protocol %q -vc %q\n", *protocol, *vcFlag)
		os.Exit(2)
	}

	base := *dir
	if base == "" {
		var err error
		base, err = os.MkdirTemp("", "mvtorture")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer os.RemoveAll(base)
	}

	perConfig := crashtest.TortureOptions{
		Rounds:  *rounds,
		Clients: *clients,
	}
	if *rounds <= 0 {
		perConfig.Duration = *duration / time.Duration(len(configs))
	}

	start := time.Now()
	failed := false
	v := verdict{Schema: "mvtorture-verdict/v1", Seed: *seed}
	for i, cfg := range configs {
		opts := perConfig
		opts.Seed = *seed + int64(i)*1000003
		opts.Config = cfg
		if *verbose {
			opts.Log = func(format string, args ...any) {
				fmt.Printf("  [%s] %s\n", cfg, fmt.Sprintf(format, args...))
			}
		}
		d := filepath.Join(base, fmt.Sprintf("cfg%d", i))
		if err := os.MkdirAll(d, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		opts.FlightDir = d
		rep, err := crashtest.Torture(d, opts)
		res := configResult{
			Config: cfg.String(), Seed: opts.Seed, Pass: err == nil, Dir: d, Bundle: rep.Bundle,
			Rounds: rep.Rounds, Crashes: rep.Crashes, CleanRounds: rep.CleanRounds,
			Acked: rep.Acked, Attempts: rep.Attempts,
		}
		if err != nil {
			res.Error = err.Error()
			fmt.Fprintf(os.Stderr, "FAIL %s (seed %d): %v\n  after %d rounds (%d crashes), %d/%d commits acked; state kept in %s\n",
				cfg, opts.Seed, err, rep.Rounds, rep.Crashes, rep.Acked, rep.Attempts, d)
			if rep.Bundle != "" {
				fmt.Fprintf(os.Stderr, "  postmortem: mvinspect -bundle %s\n", rep.Bundle)
			}
			failed = true
		} else {
			fmt.Printf("PASS %s (seed %d): %d rounds, %d crashes, %d clean; %d/%d commits acked, zero violations\n",
				cfg, opts.Seed, rep.Rounds, rep.Crashes, rep.CleanRounds, rep.Acked, rep.Attempts)
		}
		v.Configs = append(v.Configs, res)
	}
	v.Elapsed = time.Since(start)
	v.Passed = !failed
	fmt.Printf("total: %d configurations in %v\n", len(v.Configs), v.Elapsed.Round(time.Millisecond))
	if *jsonOut != "" {
		data, err := json.MarshalIndent(v, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "writing -json verdict: %v\n", err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

func visibilityMatch(sel string, m vc.Mode) bool {
	switch sel {
	case "all", "":
		return true
	}
	want, err := vc.ParseMode(sel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	return m == want
}

func protocolMatch(sel string, p core.Protocol) bool {
	switch sel {
	case "all", "":
		return true
	case "2pl":
		return p == core.TwoPhaseLocking
	case "to":
		return p == core.TimestampOrdering
	case "occ":
		return p == core.Optimistic
	}
	return false
}
