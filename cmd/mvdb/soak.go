package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mvdb"
	"mvdb/internal/crashtest"
	"mvdb/internal/metrics"
	"mvdb/internal/workload"
)

// soakResult is one configuration's entry in the mvsoak-verdict/v1
// document.
type soakResult struct {
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

// soak runs a steady mixed workload against a durable engine for hours
// (or a CI-sized smoke window), with its own sampled series as its
// pass/fail oracle. Where torture asks "does the engine survive
// crashes", soak asks "does it stay healthy over time": no sustained
// breach of the commit-p99, abort-fraction or visibility-lag ceilings,
// no audit alarm, and no unbounded drift in heap, version chains,
// retained versions or the log's size across the run (oracle.go). The
// online checkpoints, several in each configuration, are what keep the
// log bounded.
//
// Each configuration gets an equal share of the time budget and a fresh
// durable store. Every -interval the soak samples db.Stats(), the
// process heap, and the p99 of the commits its clients timed; the series
// is always written next to the store (samples-<config>.json), and on
// failure a flight-recorder postmortem bundle is written too. The
// visibility-lag ceiling holds in both modes: a stalled epoch watermark
// shows up as sustained lag, as a stuck strict drain would.
func soak(args []string) int {
	fs := flags("soak", "[-duration 60s] [-protocol 2pl|to|occ|all] [-vc strict|epoch|all] [-clients N] [-keys N] [-zipf S] [-ro F] [-rmw] [-checkpoint 1s] [-interval 1s] [-dir D] [-json out.json] [-v]")
	var (
		duration   = fs.Duration("duration", 60*time.Second, "total wall-clock budget, split across protocols")
		m          = matrixFlags(fs)
		clients    = fs.Int("clients", 4, "concurrent workload clients per protocol")
		keys       = fs.Int("keys", 512, "key-space size")
		zipf       = fs.Float64("zipf", 0, "Zipf skew parameter (> 1; 0 = uniform)")
		ro         = fs.Float64("ro", 0.5, "read-only transaction fraction")
		rmw        = fs.Bool("rmw", false, "read-modify-write transaction shape (most conflict-prone)")
		checkpoint = fs.Duration("checkpoint", time.Second, "online checkpoint period (0 disables them, and the log then grows until the drift check fails)")
		interval   = fs.Duration("interval", time.Second, "oracle sampling period")
		dir        = fs.String("dir", "", "working directory (default: a fresh temp dir, removed on success)")
		seed       = fs.Int64("seed", 1, "workload seed")
		jsonOut    = fs.String("json", "", "write the machine-readable verdict to this file")
		verbose    = fs.Bool("v", false, "log progress per protocol")
	)
	fs.Parse(args)
	configs := m.configs()
	if len(configs) == 0 {
		return 2
	}
	s := soaker{
		cfg:     workload.Config{Keys: *keys, ReadOnlyFraction: *ro, ReadModifyWrite: *rmw, Zipf: *zipf, Seed: *seed},
		budget:  *duration / time.Duration(len(configs)),
		clients: *clients, checkpoint: *checkpoint, interval: *interval, verbose: *verbose,
	}
	return runMatrix("mvsoak-verdict/v1", *dir, *jsonOut, *seed, configs,
		func(_ int, c crashtest.Config, base string) (soakResult, bool) {
			res := s.run(c, base)
			name := res.Protocol + "/" + res.Visibility
			if res.Pass {
				fmt.Printf("PASS %-10s: %d rw + %d ro commits, %d aborts, %d retries, %d samples\n",
					name, res.CommitsRW, res.CommitsRO, res.Aborts, res.Retries, res.Points)
			} else {
				fmt.Fprintf(os.Stderr, "FAIL %-10s: %v\n  samples: %s\n", name, res.Reasons, res.Timeline)
				if res.Bundle != "" {
					fmt.Fprintf(os.Stderr, "  postmortem: mvdb inspect -bundle %s\n", res.Bundle)
				}
			}
			return res, res.Pass
		})
}

// soaker holds what every configuration of one soak shares.
type soaker struct {
	cfg                          workload.Config
	budget, checkpoint, interval time.Duration
	clients                      int
	verbose                      bool
}

func (s soaker) run(c crashtest.Config, base string) soakResult {
	res := soakResult{Protocol: shortName(c), Visibility: c.Visibility.String()}
	fail := func(format string, args ...any) soakResult {
		res.Reasons = append(res.Reasons, fmt.Sprintf(format, args...))
		return res
	}
	tag := res.Protocol + "-" + res.Visibility
	d, err := subdir(base, tag)
	if err != nil {
		return fail("mkdir: %v", err)
	}
	// The matrix's core values map one to one onto mvdb's.
	db, err := mvdb.Open(mvdb.Options{
		Protocol:       mvdb.Protocol(c.Protocol),
		VisibilityMode: mvdb.VisibilityMode(c.Visibility),
		WALPath:        filepath.Join(d, "commit.log"),
		Audit:          true,
		FlightDir:      d,
	})
	if err != nil {
		return fail("open: %v", err)
	}
	if err := db.Bootstrap(s.cfg.Bootstrap()); err != nil {
		db.Close()
		return fail("bootstrap: %v", err)
	}
	sources := make([]*workload.Source, s.clients)
	for i := range sources {
		if sources[i], err = workload.NewSource(s.cfg, i); err != nil {
			db.Close()
			return fail("workload: %v", err)
		}
	}

	deadline := time.Now().Add(s.budget)
	done := make(chan struct{})
	var wg sync.WaitGroup
	var firstErr atomic.Value // string
	var lat atomic.Pointer[metrics.Histogram]
	lat.Store(metrics.NewHistogram())
	for _, src := range sources {
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
	go func() { series <- sampler(db, &lat, s.interval, done) }()
	// Online checkpoints concurrent with the load — one of the paper's
	// dividends, and exactly what the samples should show as harmless.
	if s.checkpoint > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk := time.NewTicker(s.checkpoint)
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
	if s.verbose {
		fmt.Printf("  [%s/%s] %d clients for %v in %s\n", res.Protocol, res.Visibility, s.clients, s.budget, d)
	}
	time.Sleep(s.budget)
	close(done) // releases the checkpointer and the sampler
	wg.Wait()
	samples := <-series

	if e, ok := firstErr.Load().(string); ok && e != "" {
		fail("workload error: %s", e)
	}
	// Oracle, part 1: the run itself. Drain the auditor so its verdict
	// covers every recorded event.
	db.Audit().Drain()
	if res.AuditAlarms = db.Audit().AlarmsTotal(); res.AuditAlarms > 0 {
		fail("%d audit alarms", res.AuditAlarms)
	}
	// Oracle, part 2: the sampled series.
	res.Points = len(samples)
	res.Reasons = append(res.Reasons, judge(samples)...)

	// The series is always written — a passing soak's shape is the
	// baseline the next failing one is compared against.
	spath := filepath.Join(d, "samples-"+tag+".json")
	if data, err := json.MarshalIndent(samples, "", "  "); err == nil {
		if err := os.WriteFile(spath, append(data, '\n'), 0o644); err == nil {
			res.Timeline = spath
		}
	}

	sn := db.Stats()
	res.CommitsRW, res.CommitsRO = sn.CommitsRW, sn.CommitsRO
	res.Aborts, res.Retries = sn.AbortsTotal(), sn.Retries
	if s.verbose {
		fmt.Printf("  [%s/%s] log: %d appends in %d batches, %d gathers ended on the backstop\n",
			res.Protocol, res.Visibility, sn.WALAppends, sn.WALBatches, sn.WALGatherTimeouts)
	}
	if len(res.Reasons) > 0 {
		if path, err := db.Flight().Trigger("soak-fail", fmt.Sprintf("%v", res.Reasons)); err == nil {
			res.Bundle = path
		}
	}
	if err := db.Close(); err != nil {
		fail("close: %v", err)
	}
	res.Pass = len(res.Reasons) == 0
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
