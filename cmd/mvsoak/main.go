// Command mvsoak is the long-horizon soak driver: it runs a steady
// mixed workload against a durable engine for hours (or a CI-sized
// smoke window), with the windowed health timeline as its pass/fail
// oracle. Where mvtorture asks "does the engine survive crashes",
// mvsoak asks "does the engine stay healthy over time" — no paging SLO
// breach, no audit alarm, and no unbounded drift in heap, version
// chains, or retained versions across the run.
//
// Usage:
//
//	mvsoak [-duration 60s] [-protocol 2pl|to|occ|all] [-vc strict|epoch|all]
//	       [-clients N] [-keys N] [-zipf S] [-ro F] [-rmw]
//	       [-checkpoint 10s] [-interval 1s] [-hotspots]
//	       [-dir D] [-json out.json] [-v]
//
// Each selected protocol × visibility-mode pair gets an equal share of
// the time budget and a fresh durable store. The health timeline is
// always written next to the store (health-<config>.json); on failure a
// flight-recorder postmortem bundle is written too (render with
// mvinspect -bundle). The timeline's visibility-lag SLO is part of the
// oracle in both modes: under the epoch watermark a stall in watermark
// advance shows up as sustained visibility lag and pages, exactly like
// a stuck strict drain would. Exit status is 0 only if every
// configuration passes.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mvdb"
	"mvdb/internal/health"
	"mvdb/internal/hotspot"
	"mvdb/internal/workload"
)

// verdict is the -json output document.
type verdict struct {
	Schema  string           `json:"schema"`
	Seed    int64            `json:"seed"`
	Elapsed time.Duration    `json:"elapsed_ns"`
	Passed  bool             `json:"passed"`
	Configs []protocolResult `json:"configs"`
}

type protocolResult struct {
	Protocol   string   `json:"protocol"`
	Visibility string   `json:"visibility"`
	Pass       bool     `json:"pass"`
	Reasons    []string `json:"reasons,omitempty"`

	CommitsRW   int64  `json:"commits_rw"`
	CommitsRO   int64  `json:"commits_ro"`
	Aborts      int64  `json:"aborts"`
	Retries     int64  `json:"retries"`
	AlarmsWarn  int64  `json:"alarms_warn"`
	AlarmsPage  int64  `json:"alarms_page"`
	AuditAlarms uint64 `json:"audit_alarms"`
	Points      int64  `json:"points"`

	Drift    []health.DriftResult `json:"drift,omitempty"`
	Timeline string               `json:"timeline,omitempty"`
	Bundle   string               `json:"bundle,omitempty"`

	// With -hotspots: the profiler's ranked hot keys (writes, then reads
	// when no writes were sampled).
	TopKeys []hotspot.HotKey `json:"top_keys,omitempty"`
}

// driftChecks are the soak oracle's "no monotonic creep" bounds:
// generous enough for CI jitter (GC timing, allocator noise), tight
// enough that a real leak — heap, version chains, or retained
// versions growing without bound — fails the run.
var driftChecks = []health.DriftCheck{
	{Metric: "heap_bytes", MaxRatio: 3.0, Slack: 64 << 20},
	{Metric: "max_version_chain", MaxRatio: 4.0, Slack: 64},
	{Metric: "versions", MaxRatio: 4.0, Slack: 20000},
}

func main() {
	var (
		duration   = flag.Duration("duration", 60*time.Second, "total wall-clock budget, split across protocols")
		protocol   = flag.String("protocol", "all", "2pl, to, occ, or all")
		vcFlag     = flag.String("vc", "all", "visibility mode: strict, epoch, or all (both)")
		clients    = flag.Int("clients", 4, "concurrent workload clients per protocol")
		keys       = flag.Int("keys", 512, "key-space size")
		zipf       = flag.Float64("zipf", 0, "Zipf skew parameter (> 1; 0 = uniform)")
		ro         = flag.Float64("ro", 0.5, "read-only transaction fraction")
		rmw        = flag.Bool("rmw", false, "read-modify-write transaction shape (most conflict-prone)")
		checkpoint = flag.Duration("checkpoint", 10*time.Second, "online checkpoint period (0 disables)")
		interval   = flag.Duration("interval", time.Second, "health monitor base sampling period")
		dir        = flag.String("dir", "", "working directory (default: a fresh temp dir, removed on success)")
		hotspots   = flag.Bool("hotspots", false, "enable the hotspot profiler; verdicts carry top-K hot keys")
		seed       = flag.Int64("seed", 1, "workload seed")
		jsonOut    = flag.String("json", "", "write the machine-readable verdict to this file")
		verbose    = flag.Bool("v", false, "log progress per protocol")
	)
	flag.Parse()

	protocols := selectProtocols(*protocol)
	if len(protocols) == 0 {
		fmt.Fprintf(os.Stderr, "no protocol matches -protocol %q\n", *protocol)
		os.Exit(2)
	}
	modes := selectModes(*vcFlag)
	if len(modes) == 0 {
		fmt.Fprintf(os.Stderr, "no visibility mode matches -vc %q\n", *vcFlag)
		os.Exit(2)
	}

	base := *dir
	if base == "" {
		var err error
		base, err = os.MkdirTemp("", "mvsoak")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer os.RemoveAll(base)
	}

	cfg := workload.Config{
		Keys:             *keys,
		ReadOnlyFraction: *ro,
		ReadModifyWrite:  *rmw,
		Zipf:             *zipf,
		Seed:             *seed,
	}

	start := time.Now()
	v := verdict{Schema: "mvsoak-verdict/v1", Seed: *seed}
	failed := false
	per := *duration / time.Duration(len(protocols)*len(modes))
	for _, p := range protocols {
		for _, m := range modes {
			res := runProtocol(p, m, base, per, cfg, *clients, *checkpoint, *interval, *hotspots, *verbose)
			name := p + "/" + m
			if res.Pass {
				fmt.Printf("PASS %-10s: %d rw + %d ro commits, %d aborts, %d retries, %d points, alarms warn=%d page=%d\n",
					name, res.CommitsRW, res.CommitsRO, res.Aborts, res.Retries, res.Points, res.AlarmsWarn, res.AlarmsPage)
			} else {
				failed = true
				fmt.Fprintf(os.Stderr, "FAIL %-10s: %v\n  timeline: %s\n", name, res.Reasons, res.Timeline)
				if res.Bundle != "" {
					fmt.Fprintf(os.Stderr, "  postmortem: mvinspect -bundle %s\n", res.Bundle)
				}
			}
			v.Configs = append(v.Configs, res)
		}
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

func selectProtocols(sel string) []string {
	switch sel {
	case "all", "":
		return []string{"2pl", "to", "occ"}
	case "2pl", "to", "occ":
		return []string{sel}
	}
	return nil
}

func selectModes(sel string) []string {
	switch sel {
	case "all", "":
		return []string{"strict", "epoch"}
	case "strict", "epoch":
		return []string{sel}
	}
	return nil
}

func mvdbVisibility(m string) mvdb.VisibilityMode {
	if m == "epoch" {
		return mvdb.VisibilityEpoch
	}
	return mvdb.VisibilityStrict
}

func mvdbProtocol(p string) mvdb.Protocol {
	switch p {
	case "to":
		return mvdb.TimestampOrdering
	case "occ":
		return mvdb.Optimistic
	default:
		return mvdb.TwoPhaseLocking
	}
}

func runProtocol(proto, mode, base string, budget time.Duration, cfg workload.Config,
	clients int, checkpoint, interval time.Duration, hotspots, verbose bool) protocolResult {

	res := protocolResult{Protocol: proto, Visibility: mode}
	fail := func(format string, args ...any) {
		res.Reasons = append(res.Reasons, fmt.Sprintf(format, args...))
	}
	d := filepath.Join(base, proto+"-"+mode)
	if err := os.MkdirAll(d, 0o755); err != nil {
		fail("mkdir: %v", err)
		return res
	}
	db, err := mvdb.Open(mvdb.Options{
		Protocol:       mvdbProtocol(proto),
		VisibilityMode: mvdbVisibility(mode),
		WALPath:        filepath.Join(d, "commit.log"),
		GroupCommit:    true,
		Audit:          true,
		Health:         true,
		HealthInterval: interval,
		FlightDir:      d,
		TraceSample:    0.02,
		Hotspot:        hotspots,
	})
	if err != nil {
		fail("open: %v", err)
		return res
	}
	if err := db.Bootstrap(cfg.Bootstrap()); err != nil {
		fail("bootstrap: %v", err)
		db.Close()
		return res
	}

	deadline := time.Now().Add(budget)
	done := make(chan struct{})
	var wg sync.WaitGroup
	var firstErr atomic.Value // string
	for c := 0; c < clients; c++ {
		src, err := workload.NewSource(cfg, c)
		if err != nil {
			fail("workload: %v", err)
			db.Close()
			return res
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if err := applySpec(db, src.Next()); err != nil {
					firstErr.CompareAndSwap(nil, err.Error())
					return
				}
			}
		}()
	}
	// Online checkpoints concurrent with the load — one of the paper's
	// dividends, and exactly what the timeline should show as harmless.
	if checkpoint > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk := time.NewTicker(checkpoint)
			defer tk.Stop()
			for {
				select {
				case <-done:
					return
				case <-tk.C:
					if err := db.Checkpoint(); err != nil {
						firstErr.CompareAndSwap(nil, "checkpoint: "+err.Error())
					}
				}
			}
		}()
	}
	if verbose {
		fmt.Printf("  [%s/%s] %d clients for %v in %s\n", proto, mode, clients, budget, d)
	}

	// Wait for the workload clients, then release the checkpointer.
	waitClients := make(chan struct{})
	go func() { wg.Wait(); close(waitClients) }()
	<-time.After(budget)
	close(done)
	<-waitClients

	if e, ok := firstErr.Load().(string); ok && e != "" {
		fail("workload error: %s", e)
	}

	// Oracle, part 1: the run itself. Drain the auditor so its verdict
	// covers every recorded event.
	db.Audit().Drain()
	res.AuditAlarms = db.Audit().AlarmsTotal()
	if res.AuditAlarms > 0 {
		fail("%d audit alarms", res.AuditAlarms)
	}

	mon := db.Health()
	res.AlarmsWarn, res.AlarmsPage = mon.AlarmCounts()
	res.Points = mon.PointsTotal()
	if res.AlarmsPage > 0 {
		fail("%d paging SLO alarms", res.AlarmsPage)
	}

	// Oracle, part 2: long-horizon drift over the base-resolution
	// timeline.
	pts := mon.Points(0, 0)
	res.Drift = health.CheckDrift(pts, driftChecks)
	for _, dr := range res.Drift {
		if !dr.OK {
			fail("drift: %s grew %g -> %g (bound %g)", dr.Metric, dr.FirstMean, dr.LastMean, dr.Bound)
		}
	}

	// The timeline is always written — a passing soak's shape is the
	// baseline the next failing one is compared against.
	tl := mon.Timeline(-1, 0)
	tlPath := filepath.Join(d, "health-"+proto+"-"+mode+".json")
	if data, err := json.MarshalIndent(tl, "", "  "); err == nil {
		if err := os.WriteFile(tlPath, append(data, '\n'), 0o644); err == nil {
			res.Timeline = tlPath
		}
	}

	sn := db.Stats()
	res.CommitsRW, res.CommitsRO = sn.CommitsRW, sn.CommitsRO
	res.Aborts, res.Retries = sn.AbortsTotal(), sn.Retries
	if verbose {
		fmt.Printf("  [%s/%s] log: %d appends in %d batches, %d gathers ended on the backstop\n",
			proto, mode, sn.WALAppends, sn.WALBatches, sn.WALGatherTimeouts)
	}
	if rep := db.Hotspots(); rep != nil {
		res.TopKeys = rep.HotWrites
		if len(res.TopKeys) == 0 {
			res.TopKeys = rep.HotReads
		}
		if len(res.TopKeys) > 8 {
			res.TopKeys = res.TopKeys[:8]
		}
	}

	res.Pass = len(res.Reasons) == 0
	if !res.Pass {
		if path, err := db.Flight().Trigger("soak-fail", fmt.Sprintf("%v", res.Reasons)); err == nil {
			res.Bundle = path
		}
	}
	if err := db.Close(); err != nil {
		res.Pass = false
		res.Reasons = append(res.Reasons, fmt.Sprintf("close: %v", err))
	}
	return res
}

func applySpec(db *mvdb.DB, spec workload.TxnSpec) error {
	if spec.ReadOnly {
		return db.View(func(tx *mvdb.Tx) error {
			for _, op := range spec.Ops {
				if _, err := tx.Get(op.Key); err != nil && !errors.Is(err, mvdb.ErrNotFound) {
					return err
				}
			}
			return nil
		})
	}
	return db.Update(func(tx *mvdb.Tx) error {
		for _, op := range spec.Ops {
			if op.Write {
				if err := tx.Put(op.Key, op.Value); err != nil {
					return err
				}
			} else if _, err := tx.Get(op.Key); err != nil && !errors.Is(err, mvdb.ErrNotFound) {
				return err
			}
		}
		return nil
	})
}
