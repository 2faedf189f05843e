package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"mvdb/internal/core"
	"mvdb/internal/harness"
	"mvdb/internal/metrics"
	"mvdb/internal/obs"
	"mvdb/internal/vc"
	"mvdb/internal/vc/epoch"
	"mvdb/internal/workload"
)

// minSpeedup is set by the -minspeedup flag: when positive, bench4
// exits nonzero if the epoch watermark fails to beat the strict drain's
// visible-wait at 16 goroutines by this factor.
var minSpeedup float64

// jsonOut is set by the -json flag: bench4 writes its results there in
// addition to printing tables.
var jsonOut string

// benchDoc is the top-level JSON document (schema "mvdb-bench/v1",
// documented in EXPERIMENTS.md §O6).
type benchDoc struct {
	Schema  string        `json:"schema"`
	Go      string        `json:"go"`
	CPUs    int           `json:"cpus"`
	Quick   bool          `json:"quick"`
	Results []benchResult `json:"results"`
}

// benchResult is one scenario's measurements.
type benchResult struct {
	Name    string             `json:"name"`
	Config  map[string]any     `json:"config"`
	Metrics map[string]float64 `json:"metrics"`
}

// This file is the visibility-scaling regression harness behind the
// bench-scaling CI job: register→visible lag and version-control
// throughput at 1, 4 and 16 goroutines, strict drain vs epoch
// watermark, written as machine-readable JSON (schema "mvdb-bench/v1").
// BENCH_4.json at the repository root is this harness's output for the
// epoch-visibility change.
//
// Two curve families:
//
//   - vc/*: the version-control module in isolation — each goroutine
//     runs a tight Register/Complete loop, and the visible observer
//     records every transaction's register→visible lag. This isolates
//     the synchronization cost the epoch controller is designed to
//     remove: under the strict drain every register and complete
//     crosses one global mutex, so the completer of the oldest
//     outstanding transaction queues behind the convoy and visibility
//     stalls for every transaction behind it. The -minspeedup gate
//     applies to this family at 16 goroutines.
//
//   - engine/*: the same modes under the full vc+2pl engine with phase
//     timing on. Its visible-wait phase is the committer's VCcomplete
//     (mark complete, drain), not the register→visible lag, so this
//     family compares what each mode's completion costs a committer.
//     Recorded as context, not gated.
func runBench4(quick bool) {
	opsPerG := 400000
	txns := 3000
	if quick {
		opsPerG = 50000
		txns = 600
	}
	doc := benchDoc{
		Schema: "mvdb-bench/v1",
		Go:     runtime.Version(),
		CPUs:   runtime.NumCPU(),
		Quick:  quick,
	}

	scales := []int{1, 4, 16}
	modes := []vc.Mode{vc.ModeStrict, vc.ModeEpoch}

	// Family 1: the module alone. lag16 collects the mean lag at the
	// 16-goroutine point per mode for the gate.
	lag16 := map[vc.Mode]float64{}
	for _, g := range scales {
		for _, m := range modes {
			r := benchVCDirect(m, g, opsPerG)
			if g == 16 {
				lag16[m] = r.Metrics["visible_lag_mean_ns"]
			}
			doc.Results = append(doc.Results, r)
		}
	}

	// Family 2: the full engine, update-only 2PL, in-memory (no WAL —
	// a durable commit path buries visibility lag under fsync time).
	for _, g := range scales {
		for _, m := range modes {
			doc.Results = append(doc.Results, benchVCEngine(m, g, txns))
		}
	}

	tb := metrics.Table{
		Title:   "bench4 — visibility scaling: strict drain vs epoch watermark",
		Headers: []string{"scenario", "goroutines", "ops/s", "lag mean", "lag p99"},
	}
	for _, r := range doc.Results {
		ops, meanKey, p99Key := r.Metrics["ops_per_sec"], "visible_lag_mean_ns", "visible_lag_p99_ns"
		if _, engineRow := r.Metrics["txn_per_sec"]; engineRow {
			ops, meanKey, p99Key = r.Metrics["txn_per_sec"], "visible_wait_mean_ns", "visible_wait_p99_ns"
		}
		tb.AddRow(r.Name,
			fmt.Sprint(r.Config["goroutines"]),
			fmt.Sprintf("%.0f", ops),
			time.Duration(r.Metrics[meanKey]).String(),
			time.Duration(r.Metrics[p99Key]).String())
	}
	fmt.Print(tb.String())

	if lag16[vc.ModeEpoch] > 0 {
		speedup := lag16[vc.ModeStrict] / lag16[vc.ModeEpoch]
		fmt.Printf("\nepoch visible-wait speedup over strict at 16 goroutines: %.2fx\n", speedup)
		if minSpeedup > 0 && speedup < minSpeedup {
			fmt.Fprintf(os.Stderr, "FAIL: epoch visible-wait speedup %.2fx below the %.2fx bar\n", speedup, minSpeedup)
			os.Exit(1)
		}
	}

	if jsonOut != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			panic(err)
		}
		if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
			panic(err)
		}
		fmt.Printf("wrote %s\n", jsonOut)
	}
}

func newVC(mode vc.Mode) vc.Controller {
	if mode == vc.ModeEpoch {
		return epoch.New(0)
	}
	return vc.New(0)
}

// benchVCDirect hammers one controller with g goroutines, each running
// a tight Register/Complete loop, and reports throughput plus the
// distribution of register→visible lags seen by the visible observer.
func benchVCDirect(mode vc.Mode, g, opsPerG int) benchResult {
	c := newVC(mode)
	lag := metrics.NewHistogram()
	c.SetVisibleObserver(func(tn uint64, d time.Duration) { lag.Record(d.Nanoseconds()) })

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < opsPerG; n++ {
				c.Complete(c.Register())
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Every registered transaction must have become visible by the
	// time the loops return: each loop completes its own registration
	// before the next, so once all goroutines have joined, no
	// transaction is outstanding and the watermark is fully advanced.
	if err := c.CheckInvariants(); err != nil {
		panic(fmt.Sprintf("bench4 %s/%d: %v", mode, g, err))
	}
	s := lag.Summarize()
	return benchResult{
		Name: "vc/register-visible/" + mode.String(),
		Config: map[string]any{
			"impl":       "vc-module",
			"mode":       mode.String(),
			"goroutines": g,
		},
		Metrics: map[string]float64{
			"ops_per_sec":         float64(g*opsPerG) / elapsed.Seconds(),
			"visible_lag_mean_ns": s.Mean,
			"visible_lag_p50_ns":  float64(s.P50),
			"visible_lag_p99_ns":  float64(s.P99),
			"visible_lag_max_ns":  float64(s.Max),
		},
	}
}

// benchVCEngine runs an update-only 2PL workload with phase timing on
// and extracts the visible-wait phase row: the committer's VCcomplete,
// timed inside a full commit. The JSON keys keep their visible_wait_
// names.
func benchVCEngine(mode vc.Mode, clients, txns int) benchResult {
	e := core.New(core.Options{Protocol: core.TwoPhaseLocking, Visibility: mode, PhaseTiming: true})
	wl := workload.Config{Keys: 2048, ReadOnlyFraction: 0, RWReads: 1, RWWrites: 2, Seed: 7}
	res := runOne(e, wl, clients, txns)
	sn := e.Stats()
	e.Close()

	m := map[string]float64{"txn_per_sec": res.Throughput()}
	for _, ps := range sn.Phases {
		if ps.Protocol == obs.Proto2PL.String() && ps.Phase == obs.PhaseVisibleWait.String() {
			m["visible_wait_mean_ns"] = ps.Durations.Mean
			m["visible_wait_p50_ns"] = float64(ps.Durations.P50)
			m["visible_wait_p99_ns"] = float64(ps.Durations.P99)
		}
	}
	return benchResult{
		Name: "engine/2pl-update/" + mode.String(),
		Config: map[string]any{
			"protocol":   "vc+2pl",
			"mode":       mode.String(),
			"goroutines": clients,
		},
		Metrics: m,
	}
}

func runOne(e *core.Engine, wl workload.Config, clients, txns int) harness.Result {
	if err := e.Bootstrap(wl.Bootstrap()); err != nil {
		panic(err)
	}
	res, err := harness.Run(harness.Config{
		Engine:        e,
		Clients:       clients,
		TxnsPerClient: txns,
		Workload:      wl,
	})
	if err != nil {
		panic(err)
	}
	return res
}
