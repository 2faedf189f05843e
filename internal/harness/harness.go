// Package harness drives identical workloads against any engine.Engine
// and measures what the paper claims qualitatively: per-class throughput
// and latency, abort counts by cause, and read-only blocking and
// retries. The load-driven experiments of EXPERIMENTS.md (E2, E3, E5,
// E8 in the root paper_test.go and bench_test.go) and cmd/mvbench's
// bench4 are Runs of this harness under different Configs.
package harness

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mvdb/internal/engine"
	"mvdb/internal/metrics"
	"mvdb/internal/obs"
	"mvdb/internal/workload"
)

// Config describes one harness run.
type Config struct {
	// Engine under test (required). The harness does not close it.
	Engine engine.Engine
	// Clients is the number of concurrent client goroutines (default 4).
	Clients int
	// TxnsPerClient is how many transactions each client executes
	// (default 1000). A retried transaction counts once.
	TxnsPerClient int
	// Workload shapes the generated transactions.
	Workload workload.Config
	// RetryLimit bounds retries of an aborted read-write transaction
	// before it is abandoned (default 50).
	RetryLimit int
	// OpDelay injects think time before every operation. Besides modeling
	// clients that compute between accesses, it forces transaction
	// interleaving on machines with few cores, where back-to-back
	// microsecond transactions would otherwise serialize by accident.
	OpDelay time.Duration
}

// Result is one run's measurements.
type Result struct {
	Engine  string
	Elapsed time.Duration

	CommittedRO uint64
	CommittedRW uint64
	Retries     uint64
	RORetries   uint64 // read-only aborts+retries (baselines only: the
	// paper's engines never abort a read-only transaction)
	ROAbandoned uint64 // read-only transactions starved past RetryLimit
	Abandoned   uint64 // rw transactions dropped after RetryLimit

	ROLatency metrics.Summary // per committed read-only txn
	RWLatency metrics.Summary // per committed read-write txn (incl. retries)

	Stats obs.Snapshot // engine counters after the run
}

// Throughput returns committed transactions per second.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.CommittedRO+r.CommittedRW) / r.Elapsed.Seconds()
}

// Run executes the workload and collects measurements.
func Run(cfg Config) (Result, error) {
	if cfg.Engine == nil {
		return Result{}, errors.New("harness: Engine is required")
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 4
	}
	if cfg.TxnsPerClient <= 0 {
		cfg.TxnsPerClient = 1000
	}
	if cfg.RetryLimit <= 0 {
		cfg.RetryLimit = 50
	}
	if err := cfg.Workload.Validate(); err != nil {
		return Result{}, err
	}

	roLat := metrics.NewHistogram()
	rwLat := metrics.NewHistogram()
	var committedRO, committedRW, retries, roRetries, roAbandoned, abandoned atomic.Uint64

	start := time.Now()
	var wg sync.WaitGroup
	errc := make(chan error, cfg.Clients)
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			src, err := workload.NewSource(cfg.Workload, c)
			if err != nil {
				errc <- err
				return
			}
			for i := 0; i < cfg.TxnsPerClient; i++ {
				spec := src.Next()
				t0 := time.Now()
				if spec.ReadOnly {
					ok, nRetries, err := runRO(cfg.Engine, spec, cfg.RetryLimit, cfg.OpDelay)
					if err != nil {
						errc <- err
						return
					}
					roRetries.Add(nRetries)
					if ok {
						roLat.RecordSince(t0)
						committedRO.Add(1)
					} else {
						roAbandoned.Add(1)
					}
					continue
				}
				ok, nRetries, err := runRW(cfg.Engine, spec, cfg.RetryLimit, cfg.OpDelay)
				if err != nil {
					errc <- err
					return
				}
				retries.Add(nRetries)
				if ok {
					rwLat.RecordSince(t0)
					committedRW.Add(1)
				} else {
					abandoned.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errc:
		return Result{}, err
	default:
	}

	return Result{
		Engine:      cfg.Engine.Name(),
		Elapsed:     elapsed,
		CommittedRO: committedRO.Load(),
		CommittedRW: committedRW.Load(),
		Retries:     retries.Load(),
		RORetries:   roRetries.Load(),
		ROAbandoned: roAbandoned.Load(),
		Abandoned:   abandoned.Load(),
		ROLatency:   roLat.Summarize(),
		RWLatency:   rwLat.Summarize(),
		Stats:       cfg.Engine.Stats(),
	}, nil
}

// runRO executes a read-only spec. Under the paper's engines this can
// never fail; under the baselines a read-only transaction may itself be a
// deadlock victim (single-version 2PL) and must retry — which is part of
// what the experiments measure.
func runRO(e engine.Engine, spec workload.TxnSpec, retryLimit int, delay time.Duration) (committed bool, retries uint64, err error) {
attempt:
	for a := 0; a <= retryLimit; a++ {
		tx, err := e.Begin(engine.ReadOnly)
		if err != nil {
			return false, retries, err
		}
		for _, op := range spec.Ops {
			think(delay)
			if _, gerr := tx.Get(op.Key); gerr != nil && !errors.Is(gerr, engine.ErrNotFound) {
				tx.Abort()
				if engine.Retryable(gerr) {
					retries++
					continue attempt
				}
				return false, retries, fmt.Errorf("harness: read-only Get(%s): %w", op.Key, gerr)
			}
		}
		if cerr := tx.Commit(); cerr != nil {
			if engine.Retryable(cerr) {
				retries++
				continue
			}
			return false, retries, cerr
		}
		return true, retries, nil
	}
	// Starvation is a measured outcome, not an error: single-version
	// locking can starve long read-only transactions indefinitely, which
	// is one of the phenomena the experiments exist to show.
	return false, retries, nil
}

func runRW(e engine.Engine, spec workload.TxnSpec, retryLimit int, delay time.Duration) (committed bool, retries uint64, err error) {
	for attempt := 0; attempt <= retryLimit; attempt++ {
		tx, err := e.Begin(engine.ReadWrite)
		if err != nil {
			return false, retries, err
		}
		ok, err := applyOps(tx, spec, delay)
		if err != nil {
			return false, retries, err
		}
		if !ok {
			retries++
			continue
		}
		cerr := tx.Commit()
		if cerr == nil {
			return true, retries, nil
		}
		if engine.Retryable(cerr) {
			retries++
			continue
		}
		return false, retries, cerr
	}
	return false, retries, nil
}

// applyOps runs the spec's operations; ok=false means a retryable abort.
func applyOps(tx engine.Tx, spec workload.TxnSpec, delay time.Duration) (ok bool, err error) {
	for _, op := range spec.Ops {
		think(delay)
		if op.Write {
			if werr := tx.Put(op.Key, op.Value); werr != nil {
				if engine.Retryable(werr) {
					return false, nil // engine already aborted the txn
				}
				tx.Abort()
				return false, werr
			}
			continue
		}
		if _, gerr := tx.Get(op.Key); gerr != nil {
			if errors.Is(gerr, engine.ErrNotFound) {
				continue
			}
			if engine.Retryable(gerr) {
				return false, nil
			}
			tx.Abort()
			return false, gerr
		}
	}
	return true, nil
}

// think sleeps for the configured per-op delay (yielding the processor so
// concurrent transactions interleave even on a single core).
func think(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}
