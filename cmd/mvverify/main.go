// Command mvverify stress-tests every engine in the repository for
// one-copy serializability: it runs randomized concurrent workloads while
// recording the history (which version every transaction read and wrote),
// then builds the multiversion serialization graph of Bernstein & Goodman
// and checks it is acyclic (paper Section 3.2) — plus a domain invariant
// (bank-balance conservation) as a second, independent oracle.
//
// Usage:
//
//	mvverify [-rounds 3] [-clients 8] [-txns 200] [-keys 16] [-seed 1]
//	         [-engines all] [-dot dir] [-audit] [-audit-window n]
//
// With -audit, the online auditor (internal/audit) runs alongside the
// offline checker over the same event stream and the two verdicts must
// agree; two deliberately broken engines (the core ablations A1 and A2)
// are added to the run and must trip a live MVSG-cycle alarm.
//
// Exit status 0 means every engine passed every round. With -dot, a
// failing round's multiversion serialization graph is written as Graphviz
// DOT into the given directory for inspection.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"mvdb/internal/audit"
	"mvdb/internal/baseline"
	"mvdb/internal/core"
	"mvdb/internal/dist"
	"mvdb/internal/engine"
	"mvdb/internal/history"
	"mvdb/internal/lock"
)

type bootstrapper interface {
	Bootstrap(map[string][]byte) error
}

func mkEngine(name string, rec engine.Recorder) (engine.Engine, error) {
	switch name {
	case "vc+2pl":
		return core.New(core.Options{Protocol: core.TwoPhaseLocking, Recorder: rec}), nil
	case "vc+2pl/woundwait":
		return core.New(core.Options{Protocol: core.TwoPhaseLocking, LockPolicy: lock.WoundWait, Recorder: rec}), nil
	case "vc+2pl/timeout":
		return core.New(core.Options{Protocol: core.TwoPhaseLocking, LockPolicy: lock.TimeoutPolicy, LockTimeout: 5 * time.Millisecond, Recorder: rec}), nil
	case "vc+to":
		return core.New(core.Options{Protocol: core.TimestampOrdering, Recorder: rec}), nil
	case "vc+occ":
		return core.New(core.Options{Protocol: core.Optimistic, Recorder: rec}), nil
	case "mvto":
		return baseline.NewMVTO(0, rec), nil
	case "mv2plctl":
		return baseline.NewMV2PLCTL(0, lock.Detect, 0, rec), nil
	case "sv2pl":
		return baseline.NewSV2PL(0, lock.Detect, 0, rec), nil
	case "dist3":
		return dist.New(dist.Options{Sites: 3, Recorder: rec, LockTimeout: 10 * time.Millisecond})
	case "broken-early-register":
		return baseline.NewBrokenEarlyRegister(rec), nil
	case "broken-eager-visibility":
		return baseline.NewBrokenEagerVisibility(rec), nil
	default:
		return nil, fmt.Errorf("unknown engine %q", name)
	}
}

var allEngineNames = []string{
	"vc+2pl", "vc+2pl/woundwait", "vc+2pl/timeout", "vc+to", "vc+occ",
	"mvto", "mv2plctl", "sv2pl", "dist3",
}

// brokenEngineNames are the deliberate ablations run under -audit; they
// are expected to produce serializability violations, so a round passes
// when online and offline verdicts agree, and the engine as a whole
// passes only if at least one round tripped a live alarm.
var brokenEngineNames = []string{"broken-early-register", "broken-eager-visibility"}

func isBroken(name string) bool { return strings.HasPrefix(name, "broken-") }

func main() {
	var (
		rounds  = flag.Int("rounds", 3, "rounds per engine (different seeds)")
		clients = flag.Int("clients", 8, "concurrent clients")
		txns    = flag.Int("txns", 200, "transactions per client")
		keys    = flag.Int("keys", 16, "number of bank accounts")
		seed    = flag.Int64("seed", 1, "base seed")
		which   = flag.String("engines", "all", "comma-separated engine list or 'all'")
		dotDir  = flag.String("dot", "", "write failing histories' MVSG as DOT files into this directory")
		withAud = flag.Bool("audit", false, "run the online auditor alongside the offline checker; verdicts must agree")
		audWin  = flag.Int("audit-window", 0, "auditor MVSG window (0: cover the whole round)")
	)
	flag.Parse()

	names := allEngineNames
	if *which != "all" {
		names = strings.Split(*which, ",")
	} else if *withAud {
		// The ablations ride along only under -audit: without the online
		// auditor there is nothing live to trip.
		names = append(append([]string{}, names...), brokenEngineNames...)
	}

	failed := 0
	for _, name := range names {
		alarmedRounds := 0
		// Broken engines run hot (few accounts) so a violation is all but
		// certain within a round.
		k := *keys
		if isBroken(name) {
			k = 4
		}
		for r := 0; r < *rounds; r++ {
			alarmed, err := verifyRound(name, *seed+int64(r), *clients, *txns, k, *dotDir, *withAud, *audWin)
			if alarmed {
				alarmedRounds++
			}
			switch {
			case err != nil:
				fmt.Printf("FAIL  %-24s round %d: %v\n", name, r, err)
				failed++
			case alarmed:
				fmt.Printf("ok    %-24s round %d (violation caught live)\n", name, r)
			default:
				fmt.Printf("ok    %-24s round %d\n", name, r)
			}
		}
		if isBroken(name) && alarmedRounds == 0 {
			fmt.Printf("FAIL  %-24s: ablation never tripped a live alarm\n", name)
			failed++
		}
	}
	if failed > 0 {
		fmt.Printf("\n%d failures\n", failed)
		os.Exit(1)
	}
	if *withAud {
		fmt.Println("\nall engines one-copy serializable; online and offline verdicts agree; ablations caught live")
	} else {
		fmt.Println("\nall engines one-copy serializable")
	}
}

// verifyRound runs one randomized round. alarmed reports whether the
// online auditor raised at least one alarm (meaningful under withAudit).
func verifyRound(name string, seed int64, clients, txns, keys int, dotDir string, withAudit bool, audWindow int) (alarmed bool, err error) {
	rec := history.NewRecorder()
	var aud *audit.Auditor
	var recAll engine.Recorder = rec
	if withAudit {
		if audWindow <= 0 {
			// Cover the whole round so the online edge set matches the
			// offline batch graph exactly (nothing evicted).
			audWindow = clients*txns + 64
		}
		aud = audit.New(audit.Options{
			Window: audWindow,
			// Larger than the round can produce, so nothing is dropped
			// and the verdicts are comparable.
			Queue:  1 << 17,
			Alarms: 16,
			Logger: slog.New(slog.DiscardHandler),
		})
		defer aud.Close()
		recAll = engine.Multi(rec, aud)
	}
	e, err := mkEngine(name, recAll)
	if err != nil {
		return false, err
	}
	defer e.Close()

	const initBal = 100
	boot := make(map[string][]byte, keys)
	acct := func(i int) string { return fmt.Sprintf("acct%03d", i) }
	for i := 0; i < keys; i++ {
		boot[acct(i)] = []byte{initBal}
	}
	if err := e.(bootstrapper).Bootstrap(boot); err != nil {
		return false, err
	}

	broken := isBroken(name)
	if broken {
		// Random workloads rarely hit the narrow interleavings the
		// ablations need, so drive them deterministically (the same
		// schedules as the core ablation tests) — the point is proving
		// the auditor catches the violation live.
		if err := provoke(name, e, acct); err != nil {
			return false, err
		}
	} else {
		var wg sync.WaitGroup
		var firstErr error
		var errMu sync.Mutex
		fail := func(err error) {
			errMu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			errMu.Unlock()
		}
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed*1000 + int64(w)))
				for i := 0; i < txns; i++ {
					if rng.Intn(3) == 0 {
						if err := roAudit(e, rng, acct, keys); err != nil {
							fail(err)
							return
						}
						continue
					}
					if err := transfer(e, rng, acct, keys); err != nil {
						fail(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if firstErr != nil {
			return false, firstErr
		}
	}
	if !broken {
		// Oracle 1: domain invariant on a final snapshot. Skipped for the
		// ablations — an inconsistent snapshot is exactly what they
		// produce, and the MVSG oracles are the ones that must catch it.
		total, err := totalBalance(e, acct, keys)
		if err != nil {
			return false, err
		}
		if total != keys*initBal {
			return false, fmt.Errorf("balance not conserved: %d != %d", total, keys*initBal)
		}
	}
	// Oracle 2: MVSG acyclicity over the full recorded history.
	offlineErr := rec.Check()
	if aud != nil {
		// Oracle 3: the online auditor over the same stream. With the
		// window covering the round and nothing dropped, its verdict must
		// agree with the offline checker's.
		aud.Drain()
		alarms := aud.AlarmsTotal()
		alarmed = alarms > 0
		if dropped := aud.Dropped(); dropped > 0 {
			return alarmed, fmt.Errorf("audit queue dropped %d events; verdicts not comparable", dropped)
		}
		if alarmed != (offlineErr != nil) {
			return alarmed, fmt.Errorf("audit disagreement: online alarms=%d, offline=%v", alarms, offlineErr)
		}
	}
	if offlineErr != nil {
		if broken {
			// Expected: the ablation violated serializability and (when
			// auditing) the online pipeline caught the same thing.
			return alarmed, nil
		}
		if dotDir != "" {
			fn := filepath.Join(dotDir, fmt.Sprintf("%s-seed%d.dot",
				strings.NewReplacer("/", "_", "+", "").Replace(name), seed))
			if f, ferr := os.Create(fn); ferr == nil {
				rec.WriteDOT(f)
				f.Close()
				fmt.Printf("      MVSG written to %s\n", fn)
			}
		}
		return alarmed, offlineErr
	}
	if rec.CommittedCount() == 0 {
		return alarmed, errors.New("nothing committed; vacuous round")
	}
	return alarmed, nil
}

// provoke drives the deterministic anomaly interleavings for the broken
// engines (core ablations A1/A2): the resulting histories contain an
// MVSG cycle that both the offline checker and the live auditor must
// find.
func provoke(name string, e engine.Engine, acct func(int) string) error {
	step := func(err error) error {
		if err != nil {
			return fmt.Errorf("provoking %s: %w", name, err)
		}
		return nil
	}
	switch name {
	case "broken-early-register":
		// T1 registers at begin (tn fixed too early), T2 then writes and
		// commits x, and T1 reads T2's version and overwrites it with a
		// smaller tn; a read-only observer resolves to T2's version.
		x := acct(0)
		t1, err := e.Begin(engine.ReadWrite)
		if err != nil {
			return step(err)
		}
		t2, err := e.Begin(engine.ReadWrite)
		if err != nil {
			return step(err)
		}
		if err := t2.Put(x, []byte{1}); err != nil {
			return step(err)
		}
		if err := t2.Commit(); err != nil {
			return step(err)
		}
		if _, err := t1.Get(x); err != nil {
			return step(err)
		}
		if err := t1.Put(x, []byte{2}); err != nil {
			return step(err)
		}
		if err := t1.Commit(); err != nil {
			return step(err)
		}
		ro, err := e.Begin(engine.ReadOnly)
		if err != nil {
			return step(err)
		}
		if _, err := ro.Get(x); err != nil {
			return step(err)
		}
		return step(ro.Commit())
	case "broken-eager-visibility":
		// T1 (older) reads z and writes y; T2 (younger) overwrites z and
		// completes first; a read-only snapshot in the eager-visibility
		// gap sees T2's z but not T1's y.
		y, z := acct(0), acct(1)
		t1, err := e.Begin(engine.ReadWrite)
		if err != nil {
			return step(err)
		}
		t2, err := e.Begin(engine.ReadWrite)
		if err != nil {
			return step(err)
		}
		if _, err := t1.Get(z); err != nil {
			return step(err)
		}
		if err := t1.Put(y, []byte{1}); err != nil {
			return step(err)
		}
		if err := t2.Put(z, []byte{2}); err != nil {
			return step(err)
		}
		if err := t2.Commit(); err != nil {
			return step(err)
		}
		ro, err := e.Begin(engine.ReadOnly)
		if err != nil {
			return step(err)
		}
		if _, err := ro.Get(z); err != nil {
			return step(err)
		}
		if _, err := ro.Get(y); err != nil {
			return step(err)
		}
		if err := ro.Commit(); err != nil {
			return step(err)
		}
		return step(t1.Commit())
	default:
		return fmt.Errorf("no anomaly driver for %q", name)
	}
}

func roAudit(e engine.Engine, rng *rand.Rand, acct func(int) string, keys int) error {
	for attempt := 0; attempt < 100; attempt++ {
		tx, err := e.Begin(engine.ReadOnly)
		if err != nil {
			return err
		}
		ok := true
		for j := 0; j < 4; j++ {
			if _, err := tx.Get(acct(rng.Intn(keys))); err != nil && !errors.Is(err, engine.ErrNotFound) {
				tx.Abort()
				if engine.Retryable(err) {
					ok = false
					break
				}
				return err
			}
		}
		if !ok {
			continue
		}
		return tx.Commit()
	}
	return errors.New("read-only audit starved")
}

func transfer(e engine.Engine, rng *rand.Rand, acct func(int) string, keys int) error {
	for attempt := 0; attempt < 200; attempt++ {
		from, to := rng.Intn(keys), rng.Intn(keys)
		if from == to {
			continue
		}
		tx, err := e.Begin(engine.ReadWrite)
		if err != nil {
			return err
		}
		fv, err := tx.Get(acct(from))
		if err != nil {
			tx.Abort()
			if engine.Retryable(err) {
				continue
			}
			return err
		}
		tv, err := tx.Get(acct(to))
		if err != nil {
			tx.Abort()
			if engine.Retryable(err) {
				continue
			}
			return err
		}
		if fv[0] == 0 {
			tx.Abort()
			return nil
		}
		if err := tx.Put(acct(from), []byte{fv[0] - 1}); err != nil {
			if engine.Retryable(err) {
				continue
			}
			return err
		}
		if err := tx.Put(acct(to), []byte{tv[0] + 1}); err != nil {
			if engine.Retryable(err) {
				continue
			}
			return err
		}
		if err := tx.Commit(); err != nil {
			if engine.Retryable(err) {
				continue
			}
			return err
		}
		return nil
	}
	return nil // contention-starved transfer: harmless to skip
}

func totalBalance(e engine.Engine, acct func(int) string, keys int) (int, error) {
	for attempt := 0; attempt < 100; attempt++ {
		tx, err := e.Begin(engine.ReadOnly)
		if err != nil {
			return 0, err
		}
		total := 0
		ok := true
		for i := 0; i < keys; i++ {
			v, err := tx.Get(acct(i))
			if err != nil {
				tx.Abort()
				if engine.Retryable(err) {
					ok = false
					break
				}
				return 0, err
			}
			total += int(v[0])
		}
		if !ok {
			continue
		}
		if err := tx.Commit(); err != nil {
			if engine.Retryable(err) {
				continue
			}
			return 0, err
		}
		return total, nil
	}
	return 0, errors.New("final audit starved")
}
