// Command mvsoak is the long-horizon soak driver: it runs a steady
// mixed workload against a durable engine for hours (or a CI-sized
// smoke window), with its own sampled series as its pass/fail oracle.
// Where mvtorture asks "does the engine survive crashes", mvsoak asks
// "does the engine stay healthy over time" — no sustained breach of the
// commit-p99, abort-fraction or visibility-lag ceilings, no audit alarm,
// and no unbounded drift in heap, version chains, or retained versions
// across the run (oracle.go).
//
// Usage:
//
//	mvsoak [-duration 60s] [-protocol 2pl|to|occ|all] [-vc strict|epoch|all]
//	       [-clients N] [-keys N] [-zipf S] [-ro F] [-rmw]
//	       [-checkpoint 10s] [-interval 1s]
//	       [-dir D] [-json out.json] [-v]
//
// Each selected protocol × visibility-mode pair gets an equal share of
// the time budget and a fresh durable store. Every -interval the soak
// samples db.Stats(), the process heap, and the p99 of the commits its
// clients timed; the series is always written next to the store
// (samples-<config>.json), and on failure a flight-recorder postmortem
// bundle is written too (render with mvinspect -bundle). The
// visibility-lag ceiling holds in both modes: under the epoch watermark
// a stall in watermark advance shows up as sustained visibility lag,
// exactly like a stuck strict drain would. Exit status is 0 only if
// every configuration passes.
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
	"mvdb/internal/metrics"
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
	AuditAlarms uint64 `json:"audit_alarms"`
	Points      int    `json:"points"` // samples taken

	Timeline string `json:"timeline,omitempty"` // the sample series file
	Bundle   string `json:"bundle,omitempty"`
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
		interval   = flag.Duration("interval", time.Second, "oracle sampling period")
		dir        = flag.String("dir", "", "working directory (default: a fresh temp dir, removed on success)")
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
			res := runProtocol(p, m, base, per, cfg, *clients, *checkpoint, *interval, *verbose)
			name := p + "/" + m
			if res.Pass {
				fmt.Printf("PASS %-10s: %d rw + %d ro commits, %d aborts, %d retries, %d samples\n",
					name, res.CommitsRW, res.CommitsRO, res.Aborts, res.Retries, res.Points)
			} else {
				failed = true
				fmt.Fprintf(os.Stderr, "FAIL %-10s: %v\n  samples: %s\n", name, res.Reasons, res.Timeline)
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
	clients int, checkpoint, interval time.Duration, verbose bool) protocolResult {

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
		FlightDir:      d,
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
	var lat atomic.Pointer[metrics.Histogram]
	lat.Store(metrics.NewHistogram())
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
				if err := applySpec(db, src.Next(), &lat); err != nil {
					firstErr.CompareAndSwap(nil, err.Error())
					return
				}
			}
		}()
	}
	series := make(chan []sample, 1)
	go func() { series <- sampler(db, &lat, interval, done) }()
	// Online checkpoints concurrent with the load — one of the paper's
	// dividends, and exactly what the samples should show as harmless.
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

	// Wait for the workload clients, then release the checkpointer and
	// the sampler.
	waitClients := make(chan struct{})
	go func() { wg.Wait(); close(waitClients) }()
	<-time.After(budget)
	close(done)
	<-waitClients
	samples := <-series

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

	// Oracle, part 2: the sampled series.
	res.Points = len(samples)
	res.Reasons = append(res.Reasons, judge(samples)...)

	// The series is always written — a passing soak's shape is the
	// baseline the next failing one is compared against.
	spath := filepath.Join(d, "samples-"+proto+"-"+mode+".json")
	if data, err := json.MarshalIndent(samples, "", "  "); err == nil {
		if err := os.WriteFile(spath, append(data, '\n'), 0o644); err == nil {
			res.Timeline = spath
		}
	}

	sn := db.Stats()
	res.CommitsRW, res.CommitsRO = sn.CommitsRW, sn.CommitsRO
	res.Aborts, res.Retries = sn.AbortsTotal(), sn.Retries
	if verbose {
		fmt.Printf("  [%s/%s] log: %d appends in %d batches, %d gathers ended on the backstop\n",
			proto, mode, sn.WALAppends, sn.WALBatches, sn.WALGatherTimeouts)
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

// applySpec runs one transaction, recording a read-write one's latency,
// retries included, into the histogram lat points at.
func applySpec(db *mvdb.DB, spec workload.TxnSpec, lat *atomic.Pointer[metrics.Histogram]) error {
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
	start := time.Now()
	defer func() { lat.Load().RecordSince(start) }()
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
