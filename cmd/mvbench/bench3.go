package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mvdb/internal/core"
	"mvdb/internal/harness"
	"mvdb/internal/metrics"
	"mvdb/internal/wal"
	"mvdb/internal/workload"
)

// This file is the PR-3 benchmark regression harness: a fixed set of
// lock-manager and commit-path scenarios whose results are written as
// machine-readable JSON (schema "mvdb-bench/v1", documented in
// EXPERIMENTS.md) so successive PRs can be compared number-for-number.
// BENCH_3.json at the repository root is this harness's output for the
// striped-lock-manager + group-commit change, including the seed
// configuration (single-stripe lock table, fsync per commit) it replaces.

// jsonOut is set by the -json flag: the bench3 experiment writes its
// results there in addition to printing tables.
var jsonOut string

// benchDoc is the top-level JSON document.
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

func runBench3(quick bool) {
	txns := 3000
	clients := 8
	if quick {
		txns = 400
	}
	doc := benchDoc{
		Schema: "mvdb-bench/v1",
		Go:     runtime.Version(),
		CPUs:   runtime.NumCPU(),
		Quick:  quick,
	}

	// Scenario family 1: lock-manager throughput, no WAL. Update-only
	// 2PL so every transaction exercises the striped lock table; uniform
	// and hot keyspaces bracket the contention range.
	lockWL := func(zipf float64) workload.Config {
		return workload.Config{Keys: 512, ReadOnlyFraction: 0, RWReads: 2, RWWrites: 2, Zipf: zipf, Seed: 7}
	}
	for _, sc := range []struct {
		name    string
		zipf    float64
		stripes int
	}{
		{"lock/uniform", 0, 1},
		{"lock/uniform", 0, 0}, // 0 = default stripe count
		{"lock/hot", 1.6, 1},
		{"lock/hot", 1.6, 0},
	} {
		e := core.New(core.Options{Protocol: core.TwoPhaseLocking, LockStripes: sc.stripes})
		res := runOne(e, lockWL(sc.zipf), clients, txns)
		sn := e.Snapshot()
		e.Close()
		doc.Results = append(doc.Results, benchResult{
			Name: sc.name,
			Config: map[string]any{
				"protocol": "vc+2pl",
				"stripes":  sn.LockStripes,
				"zipf":     sc.zipf,
			},
			Metrics: map[string]float64{
				"txn_per_sec":       res.Throughput(),
				"commit_p50_ns":     float64(res.RWLatency.P50),
				"commit_p99_ns":     float64(res.RWLatency.P99),
				"stripe_collisions": float64(sn.LockStripeCollisions),
			},
		})
	}

	// Scenario family 2: durable commit path. The "seed" row is the
	// single-stripe lock table with committers fsyncing inline
	// (SyncEveryCommit); the "group" row is the striped table with the
	// background flusher (SyncBatch). Since the pipelined commit both
	// batch, so neither row is a floor for the other: they are reported,
	// not gated (the bench/ rig's dur-* workloads gate the commit path).
	dir, err := os.MkdirTemp("", "mvbench-wal")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	commitWL := workload.Config{Keys: 512, ReadOnlyFraction: 0, RWReads: 2, RWWrites: 2, Seed: 7}
	for _, sc := range []struct {
		name    string
		opts    wal.Options
		stripes int
	}{
		{"commit/2pl-uniform-seed", wal.Options{Policy: wal.SyncEveryCommit}, 1},
		// The flusher waits for the committers in flight at the end of
		// its last fsync, so the batch tracks the number of clients.
		{"commit/2pl-uniform-group", wal.Options{Policy: wal.SyncBatch}, 0},
	} {
		w, err := wal.CreateWith(filepath.Join(dir, sc.name[len("commit/"):]+".wal"), sc.opts)
		if err != nil {
			panic(err)
		}
		e := core.New(core.Options{Protocol: core.TwoPhaseLocking, LockStripes: sc.stripes, WAL: w})
		res := runOne(e, commitWL, clients, txns)
		sn := e.Snapshot()
		e.Close()
		w.Close()
		m := map[string]float64{
			"txn_per_sec":      res.Throughput(),
			"commit_p50_ns":    float64(res.RWLatency.P50),
			"commit_p99_ns":    float64(res.RWLatency.P99),
			"fsync_per_commit": sn.WALFsyncPerAppend,
			"wal_batches":      float64(sn.WALBatches),
		}
		if sc.opts.Policy == wal.SyncBatch {
			m["batch_p50_records"] = float64(sn.WALBatchSize.P50)
		}
		doc.Results = append(doc.Results, benchResult{
			Name: sc.name,
			Config: map[string]any{
				"protocol": "vc+2pl",
				"stripes":  sn.LockStripes,
				"policy":   map[wal.SyncPolicy]string{wal.SyncEveryCommit: "sync-every-commit", wal.SyncBatch: "sync-batch"}[sc.opts.Policy],
			},
			Metrics: m,
		})
	}

	tb := metrics.Table{
		Title:   "bench3 — striped locks + group commit vs the seed configuration",
		Headers: []string{"scenario", "stripes", "txn/s", "p50 commit", "p99 commit", "fsync/commit"},
	}
	for _, r := range doc.Results {
		fpc := "-"
		if v, ok := r.Metrics["fsync_per_commit"]; ok {
			fpc = fmt.Sprintf("%.3f", v)
		}
		tb.AddRow(r.Name,
			fmt.Sprint(r.Config["stripes"]),
			fmt.Sprintf("%.0f", r.Metrics["txn_per_sec"]),
			time.Duration(r.Metrics["commit_p50_ns"]).String(),
			time.Duration(r.Metrics["commit_p99_ns"]).String(),
			fpc)
	}
	fmt.Print(tb.String())

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

func runOne(e interface {
	Bootstrap(map[string][]byte) error
}, wl workload.Config, clients, txns int) harness.Result {
	if err := e.Bootstrap(wl.Bootstrap()); err != nil {
		panic(err)
	}
	res, err := harness.Run(harness.Config{
		Engine:        e.(*core.Engine),
		Clients:       clients,
		TxnsPerClient: txns,
		Workload:      wl,
	})
	if err != nil {
		panic(err)
	}
	return res
}
