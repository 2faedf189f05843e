package crashtest

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"mvdb/internal/core"
	"mvdb/internal/engine"
	"mvdb/internal/faultfs"
	"mvdb/internal/flight"
)

// TortureOptions configures a seeded randomized torture run.
type TortureOptions struct {
	// Seed makes the fault schedule reproducible (crash points, tear
	// sizes, workload shapes). Client interleaving still varies with
	// the scheduler; the oracle must hold under every interleaving.
	Seed int64
	// Config is the engine variant under torture.
	Config Config
	// Rounds bounds the number of crash/recover rounds (0 with zero
	// Duration defaults to 8).
	Rounds int
	// Duration bounds the wall-clock time instead of (or as well as)
	// Rounds.
	Duration time.Duration
	// Clients is the number of concurrent committers (default 4).
	Clients int
	// Log, when non-nil, receives one progress line per round.
	Log func(format string, args ...any)
	// FlightDir, when non-empty, receives a flight-recorder postmortem
	// bundle (renderable with mvdb inspect -bundle) whenever an oracle
	// violation aborts the run; TortureReport.Bundle names it.
	FlightDir string
}

// TortureReport summarizes a completed torture run.
type TortureReport struct {
	Rounds      int // rounds run (each ends in a crash or a clean stop)
	Crashes     int // rounds that ended in a simulated power cut
	CleanRounds int
	Acked       int // commits acknowledged across all rounds
	Attempts    int // commit attempts across all rounds
	// Bundle is the flight postmortem written on an oracle violation
	// ("" when the run passed or TortureOptions.FlightDir was empty).
	Bundle string
}

// capturePostmortem photographs a live engine into a flight bundle when
// an oracle fires. Best-effort: postmortem failures never mask the
// violation itself.
func capturePostmortem(rep *TortureReport, dir string, e *core.Engine, detail string, logf func(string, ...any)) {
	if dir == "" || e == nil {
		return
	}
	src := flight.Sources{
		Stats:     e.Stats,
		WaitGraph: e.LockWaitGraph,
	}
	path, err := flight.Capture(src, dir, "oracle-violation", detail)
	if err != nil {
		logf("postmortem capture failed: %v", err)
		return
	}
	rep.Bundle = path
	logf("postmortem bundle: %s", path)
}

// Torture runs rounds of: recover the database in dir under a
// fault-injecting filesystem with one randomly placed power cut, audit
// the freshly recovered state against the oracle, hammer it with
// concurrent committers (plus snapshot readers and an occasional
// checkpoint under load) until the cut fires or the round's budget
// ends, then materialize the surviving bytes and go again. State and
// oracle accumulate across rounds; a final RecoverAndCheck closes the
// run. Any oracle violation aborts with a descriptive error.
func Torture(dir string, opts TortureOptions) (TortureReport, error) {
	if opts.Clients <= 0 {
		opts.Clients = 4
	}
	if opts.Rounds <= 0 && opts.Duration <= 0 {
		opts.Rounds = 8
	}
	logf := opts.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	walPath := filepath.Join(dir, "commit.log")
	o := NewOracle()
	var deadline time.Time
	if opts.Duration > 0 {
		deadline = time.Now().Add(opts.Duration)
	}
	keys := make([]string, 24)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
	}
	var rep TortureReport
	for {
		if opts.Rounds > 0 && rep.Rounds >= opts.Rounds {
			break
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			break
		}
		rep.Rounds++

		// One randomly placed power cut per round, with a random tear
		// of the in-flight bytes, sometimes garbled. A wide AtOp range
		// also leaves some rounds crash-free (clean-shutdown coverage).
		ft := faultfs.Fault{Crash: true, Torn: rng.Intn(64)}
		if rng.Intn(3) == 0 {
			ft.Corrupt = true
		}
		if rng.Intn(4) == 0 {
			ft.KeepRename = true
		}
		crashAt := 1 + rng.Intn(40+rng.Intn(400))
		fs := faultfs.New(faultfs.Plan{Rules: []faultfs.Rule{{AtOp: crashAt, Fault: ft}}})

		e, err := openEngine(fs, walPath, opts.Config, nil)
		if err != nil {
			if fs.Crashed() {
				// The cut hit recovery itself; survive it and go again.
				if aerr := fs.ApplyCrash(); aerr != nil {
					return rep, aerr
				}
				rep.Crashes++
				logf("round %d: crash during recovery at op %d", rep.Rounds, crashAt)
				continue
			}
			return rep, fmt.Errorf("round %d: recovery failed: %w", rep.Rounds, err)
		}
		// The dual oracle holds at every recovery, not just the last.
		if err := checkRecovered(walPath, e, o); err != nil {
			err = fmt.Errorf("round %d: %w", rep.Rounds, err)
			capturePostmortem(&rep, opts.FlightDir, e, err.Error(), logf)
			e.Close()
			return rep, err
		}

		budget := 60 + rng.Intn(140)
		var wg sync.WaitGroup
		for c := 0; c < opts.Clients; c++ {
			wg.Add(1)
			go func(client int, cseed int64) {
				defer wg.Done()
				crng := rand.New(rand.NewSource(cseed))
				for i := 0; i < budget && !fs.Crashed(); i++ {
					muts := make(map[string]Mut)
					for j := 0; j < 1+crng.Intn(3); j++ {
						k := keys[crng.Intn(len(keys))]
						if crng.Intn(24) == 0 {
							muts[k] = Mut{Delete: true}
						} else {
							muts[k] = Mut{Value: fmt.Sprintf("s%d.r%d.c%d.i%d.%s",
								opts.Seed, rep.Rounds, client, i, k)}
						}
					}
					if crng.Intn(2) == 0 {
						// Half the attempts extend one read-modify-write
						// chain: dependent commits racing each other into
						// the log, the oracle's clause on reads under load.
						muts["chain"] = Mut{RMW: true, Value: fmt.Sprintf("s%d.r%d.c%d.i%d.chain",
							opts.Seed, rep.Rounds, client, i)}
					}
					for try := 0; try < 32; try++ {
						if _, err := CommitAttempt(e, o, muts); err == nil || !engine.Retryable(err) {
							break
						}
					}
					if crng.Intn(8) == 0 {
						if ro, err := e.Begin(engine.ReadOnly); err == nil {
							_, _ = ro.Get(keys[crng.Intn(len(keys))])
							ro.Commit()
						}
					}
				}
			}(c, rng.Int63())
		}
		if rng.Intn(2) == 0 {
			// Checkpoint racing the committers — the snapshot writer's
			// crash windows under live load.
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = e.Checkpoint()
			}()
		}
		wg.Wait()
		e.Close()

		if fs.Crashed() {
			if err := fs.ApplyCrash(); err != nil {
				return rep, err
			}
			rep.Crashes++
			logf("round %d: crash at op %d (torn %d, corrupt %v), %d commits acked so far",
				rep.Rounds, crashAt, ft.Torn, ft.Corrupt, o.Acks())
		} else {
			rep.CleanRounds++
			logf("round %d: clean shutdown, %d commits acked so far", rep.Rounds, o.Acks())
		}
	}

	if err := RecoverAndCheck(walPath, opts.Config, o); err != nil {
		// The checking engine is gone; reopen the surviving state cleanly
		// so the bundle photographs what recovery actually produced.
		if opts.FlightDir != "" {
			if e, oerr := openEngine(faultfs.New(faultfs.Plan{}), walPath, opts.Config, nil); oerr == nil {
				capturePostmortem(&rep, opts.FlightDir, e, err.Error(), logf)
				e.Close()
			}
		}
		return rep, err
	}
	rep.Acked = o.Acks()
	rep.Attempts = o.Attempts()
	return rep, nil
}
