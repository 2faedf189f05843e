// Package enginetest is a conformance suite for engine.Engine
// implementations: one battery of behavioral checks that every engine in
// the repository — the three version-control engines, the three
// baselines and the distributed cluster — must pass.
// Engine-specific guarantees (e.g. "read-only transactions never block")
// are deliberately NOT here; this suite pins down the common transaction
// semantics so the comparative experiments compare like with like.
package enginetest

import (
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"mvdb/internal/audit"
	"mvdb/internal/engine"
	"mvdb/internal/history"
)

// Factory builds a fresh engine wired to the given recorder. Bootstrap
// must load the data as the pre-transactional state (version 0).
type Factory func(rec engine.Recorder) Instance

// Instance is an engine under test.
type Instance interface {
	engine.Engine
	Bootstrap(map[string][]byte) error
}

// Run executes the conformance battery against the factory.
func Run(t *testing.T, mk Factory) {
	t.Helper()
	tests := []struct {
		name string
		fn   func(t *testing.T, mk Factory)
	}{
		{"ReadYourOwnWrites", testReadYourOwnWrites},
		{"CommitMakesVisible", testCommitMakesVisible},
		{"AbortDiscards", testAbortDiscards},
		{"DeleteTombstone", testDeleteTombstone},
		{"AbsentKey", testAbsentKey},
		{"ReadOnlyRejectsWrites", testReadOnlyRejectsWrites},
		{"UseAfterFinish", testUseAfterFinish},
		{"SnapshotOrLatestConsistency", testSnapshotConsistency},
		{"AtomicMultiKeyCommit", testAtomicMultiKeyCommit},
		{"ConcurrentCountersConverge", testConcurrentCounters},
		{"HistorySerializable", testHistorySerializable},
		{"StatsPresent", testStatsPresent},
		{"Lifecycle", testLifecycle},
	}
	for _, tc := range tests {
		tc := tc
		t.Run(tc.name, func(t *testing.T) { tc.fn(t, mk) })
	}
}

// retry runs fn inside a transaction of the given class, retrying
// aborts (the single-version baseline can abort its readers too).
func retry(t *testing.T, e engine.Engine, class engine.Class, fn func(tx engine.Tx) error) {
	t.Helper()
	for attempt := 0; attempt < 500; attempt++ {
		tx, err := e.Begin(class)
		if err != nil {
			t.Fatal(err)
		}
		if err := fn(tx); err != nil {
			tx.Abort()
			if engine.Retryable(err) {
				continue
			}
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			if engine.Retryable(err) {
				continue
			}
			t.Fatal(err)
		}
		return
	}
	t.Fatalf("%v transaction starved after 500 attempts", class)
}

func testReadYourOwnWrites(t *testing.T, mk Factory) {
	e := mk(nil)
	defer e.Close()
	if err := e.Bootstrap(map[string][]byte{"k": []byte("old")}); err != nil {
		t.Fatal(err)
	}
	retry(t, e, engine.ReadWrite, func(tx engine.Tx) error {
		if err := tx.Put("k", []byte("new")); err != nil {
			return err
		}
		v, err := tx.Get("k")
		if err != nil {
			return err
		}
		if string(v) != "new" {
			t.Fatalf("read-own-write = %q", v)
		}
		if err := tx.Delete("k"); err != nil {
			return err
		}
		if _, err := tx.Get("k"); !errors.Is(err, engine.ErrNotFound) {
			t.Fatalf("read-own-delete err = %v", err)
		}
		return tx.Put("k", []byte("final"))
	})
}

func testCommitMakesVisible(t *testing.T, mk Factory) {
	e := mk(nil)
	defer e.Close()
	retry(t, e, engine.ReadWrite, func(tx engine.Tx) error { return tx.Put("k", []byte("v")) })
	// A read-write reader always sees it; a snapshot reader may need a
	// fresh snapshot but must see it eventually (here: immediately, since
	// nothing is in flight).
	retry(t, e, engine.ReadWrite, func(tx engine.Tx) error {
		v, err := tx.Get("k")
		if err != nil {
			return err
		}
		if string(v) != "v" {
			t.Fatalf("rw read %q", v)
		}
		return nil
	})
	retry(t, e, engine.ReadOnly, func(tx engine.Tx) error {
		v, err := tx.Get("k")
		if err != nil {
			return err
		}
		if string(v) != "v" {
			t.Fatalf("ro read %q", v)
		}
		return nil
	})
}

func testAbortDiscards(t *testing.T, mk Factory) {
	e := mk(nil)
	defer e.Close()
	if err := e.Bootstrap(map[string][]byte{"k": []byte("keep")}); err != nil {
		t.Fatal(err)
	}
	tx, _ := e.Begin(engine.ReadWrite)
	if err := tx.Put("k", []byte("drop")); err == nil {
		tx.Abort()
	} else {
		tx.Abort()
	}
	retry(t, e, engine.ReadOnly, func(ro engine.Tx) error {
		v, err := ro.Get("k")
		if err != nil {
			return err
		}
		if string(v) != "keep" {
			t.Fatalf("aborted write leaked: %q", v)
		}
		return nil
	})
}

func testDeleteTombstone(t *testing.T, mk Factory) {
	e := mk(nil)
	defer e.Close()
	retry(t, e, engine.ReadWrite, func(tx engine.Tx) error { return tx.Put("k", []byte("v")) })
	retry(t, e, engine.ReadWrite, func(tx engine.Tx) error { return tx.Delete("k") })
	retry(t, e, engine.ReadOnly, func(ro engine.Tx) error {
		if _, err := ro.Get("k"); !errors.Is(err, engine.ErrNotFound) {
			t.Fatalf("post-delete err = %v", err)
		}
		return nil
	})
	// Recreate after delete.
	retry(t, e, engine.ReadWrite, func(tx engine.Tx) error { return tx.Put("k", []byte("again")) })
	retry(t, e, engine.ReadOnly, func(ro engine.Tx) error {
		v, err := ro.Get("k")
		if err != nil {
			return err
		}
		if string(v) != "again" {
			t.Fatalf("recreate = %q", v)
		}
		return nil
	})
}

func testAbsentKey(t *testing.T, mk Factory) {
	e := mk(nil)
	defer e.Close()
	retry(t, e, engine.ReadOnly, func(ro engine.Tx) error {
		if _, err := ro.Get("ghost"); !errors.Is(err, engine.ErrNotFound) {
			t.Fatalf("ro absent err = %v", err)
		}
		return nil
	})
	retry(t, e, engine.ReadWrite, func(tx engine.Tx) error {
		_, err := tx.Get("ghost")
		if errors.Is(err, engine.ErrNotFound) {
			return nil
		}
		if err != nil {
			return err
		}
		t.Fatal("rw absent read succeeded")
		return nil
	})
}

func testReadOnlyRejectsWrites(t *testing.T, mk Factory) {
	e := mk(nil)
	defer e.Close()
	tx, err := e.Begin(engine.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	if tx.Class() != engine.ReadOnly {
		t.Fatal("wrong class")
	}
	if err := tx.Put("a", nil); !errors.Is(err, engine.ErrReadOnly) {
		t.Fatalf("Put err = %v", err)
	}
	if err := tx.Delete("a"); !errors.Is(err, engine.ErrReadOnly) {
		t.Fatalf("Delete err = %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func testUseAfterFinish(t *testing.T, mk Factory) {
	e := mk(nil)
	defer e.Close()
	tx, _ := e.Begin(engine.ReadWrite)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Get("x"); !errors.Is(err, engine.ErrTxDone) {
		t.Fatalf("Get after commit = %v", err)
	}
	if err := tx.Put("x", nil); !errors.Is(err, engine.ErrTxDone) {
		t.Fatalf("Put after commit = %v", err)
	}
	if err := tx.Delete("x"); !errors.Is(err, engine.ErrTxDone) {
		t.Fatalf("Delete after commit = %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, engine.ErrTxDone) {
		t.Fatalf("double Commit = %v", err)
	}
	tx.Abort() // must be a no-op, not a panic

	ro, _ := e.Begin(engine.ReadOnly)
	ro.Abort()
	if _, err := ro.Get("x"); !errors.Is(err, engine.ErrTxDone) {
		t.Fatalf("ro Get after abort = %v", err)
	}
}

// Snapshot readers must never observe a torn multi-key transaction.
func testSnapshotConsistency(t *testing.T, mk Factory) {
	e := mk(nil)
	defer e.Close()
	if err := e.Bootstrap(map[string][]byte{"a": {0}, "b": {0}}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := byte(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			i++
			v := []byte{i}
			for attempt := 0; attempt < 100; attempt++ {
				tx, _ := e.Begin(engine.ReadWrite)
				if err := tx.Put("a", v); err != nil {
					if engine.Retryable(err) {
						continue
					}
					return
				}
				if err := tx.Put("b", v); err != nil {
					if engine.Retryable(err) {
						continue
					}
					return
				}
				if err := tx.Commit(); err == nil {
					break
				}
			}
		}
	}()
	for i := 0; i < 100; i++ {
		retry(t, e, engine.ReadOnly, func(ro engine.Tx) error {
			a, err := ro.Get("a")
			if err != nil {
				return err
			}
			b, err := ro.Get("b")
			if err != nil {
				return err
			}
			if a[0] != b[0] {
				t.Errorf("torn snapshot: a=%d b=%d", a[0], b[0])
			}
			return nil
		})
	}
	close(stop)
	wg.Wait()
}

func testAtomicMultiKeyCommit(t *testing.T, mk Factory) {
	e := mk(nil)
	defer e.Close()
	retry(t, e, engine.ReadWrite, func(tx engine.Tx) error {
		for i := 0; i < 8; i++ {
			if err := tx.Put(fmt.Sprintf("mk%d", i), []byte{1}); err != nil {
				return err
			}
		}
		return nil
	})
	retry(t, e, engine.ReadOnly, func(ro engine.Tx) error {
		n := 0
		for i := 0; i < 8; i++ {
			if _, err := ro.Get(fmt.Sprintf("mk%d", i)); err == nil {
				n++
			} else if !errors.Is(err, engine.ErrNotFound) {
				return err
			}
		}
		if n != 0 && n != 8 {
			t.Fatalf("torn multi-key commit: saw %d of 8", n)
		}
		return nil
	})
}

func testConcurrentCounters(t *testing.T, mk Factory) {
	e := mk(nil)
	defer e.Close()
	const nCtr = 4
	boot := map[string][]byte{}
	for i := 0; i < nCtr; i++ {
		boot[fmt.Sprintf("ctr%d", i)] = []byte{0}
	}
	if err := e.Bootstrap(boot); err != nil {
		t.Fatal(err)
	}
	const workers = 4
	const perWorker = 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := fmt.Sprintf("ctr%d", (w+i)%nCtr)
				retry(t, e, engine.ReadWrite, func(tx engine.Tx) error {
					v, err := tx.Get(key)
					if err != nil {
						return err
					}
					return tx.Put(key, []byte{v[0] + 1})
				})
			}
		}(w)
	}
	wg.Wait()
	total := 0
	retry(t, e, engine.ReadOnly, func(ro engine.Tx) error {
		total = 0
		for i := 0; i < nCtr; i++ {
			v, err := ro.Get(fmt.Sprintf("ctr%d", i))
			if err != nil {
				return err
			}
			total += int(v[0])
		}
		return nil
	})
	if total != workers*perWorker {
		t.Fatalf("counters sum to %d, want %d", total, workers*perWorker)
	}
}

// testHistorySerializable is a bank round: concurrent transfers and
// read-only audits over a few accounts, recorded for the offline MVSG
// checker and the online auditor at once. The history must be one-copy
// serializable, the two verdicts must agree with nothing dropped, and
// the money must be conserved.
func testHistorySerializable(t *testing.T, mk Factory) {
	const clients, txns, accounts, initBal = 8, 50, 16, 100
	rec := history.NewRecorder()
	aud := audit.New(audit.Options{
		Window: clients*txns + 64, // the whole round: the live graph is the offline one
		Queue:  1 << 17,           // more than the round records: nothing dropped
		Logger: slog.New(slog.DiscardHandler),
	})
	defer aud.Close()
	e := mk(engine.Multi(rec, aud))
	defer e.Close()
	acct := func(i int) string { return fmt.Sprintf("acct%02d", i) }
	boot := map[string][]byte{}
	for i := 0; i < accounts; i++ {
		boot[acct(i)] = []byte{initBal}
	}
	if err := e.Bootstrap(boot); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for i := 0; i < txns; i++ {
				if rng.Intn(3) == 0 {
					keys := []string{acct(rng.Intn(accounts)), acct(rng.Intn(accounts)), acct(rng.Intn(accounts))}
					retry(t, e, engine.ReadOnly, func(ro engine.Tx) error {
						for _, k := range keys {
							if _, err := ro.Get(k); err != nil {
								return err
							}
						}
						return nil
					})
					continue
				}
				// Each attempt picks its own pair, so that two transfers
				// that deadlock do not meet again on the retry.
				retry(t, e, engine.ReadWrite, func(tx engine.Tx) error {
					from, to := acct(rng.Intn(accounts)), acct(rng.Intn(accounts))
					if from == to {
						return nil
					}
					fv, err := tx.Get(from)
					if err != nil {
						return err
					}
					tv, err := tx.Get(to)
					if err != nil {
						return err
					}
					if fv[0] == 0 {
						return nil // nothing to move
					}
					if err := tx.Put(from, []byte{fv[0] - 1}); err != nil {
						return err
					}
					return tx.Put(to, []byte{tv[0] + 1})
				})
			}
		}(rand.New(rand.NewSource(int64(w))))
	}
	wg.Wait()
	total := 0
	retry(t, e, engine.ReadOnly, func(ro engine.Tx) error {
		total = 0
		for i := 0; i < accounts; i++ {
			v, err := ro.Get(acct(i))
			if err != nil {
				return err
			}
			total += int(v[0])
		}
		return nil
	})
	if total != accounts*initBal {
		t.Errorf("balances sum to %d, want %d", total, accounts*initBal)
	}
	offline := rec.Check()
	aud.Drain()
	if n := aud.Dropped(); n > 0 {
		t.Errorf("auditor dropped %d events; verdicts not comparable", n)
	}
	if alarms := aud.AlarmsTotal(); (alarms > 0) != (offline != nil) {
		t.Errorf("online and offline verdicts disagree: %d alarms, offline %v", alarms, offline)
	}
	if offline != nil {
		var dot strings.Builder
		rec.WriteDOT(&dot)
		t.Logf("MVSG:\n%s", dot.String())
		t.Fatalf("history not one-copy serializable: %v", offline)
	}
}

// testStatsPresent holds every engine to the one stats vocabulary: one
// read-write commit, one read-only commit and one explicit Abort show
// in the snapshot's typed counters, and no class counts more commits
// than begins (DESIGN §5 decision 8).
func testStatsPresent(t *testing.T, mk Factory) {
	e := mk(nil)
	defer e.Close()
	retry(t, e, engine.ReadWrite, func(tx engine.Tx) error { return tx.Put("k", []byte("v")) })
	retry(t, e, engine.ReadOnly, func(ro engine.Tx) error { _, err := ro.Get("k"); return err })
	tx, err := e.Begin(engine.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Put("k2", []byte("v")); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	st := e.Stats()
	if st.CommitsRW < 1 || st.CommitsRO < 1 || st.AbortsUser < 1 {
		t.Fatalf("commits rw/ro = %d/%d, user aborts = %d; want each >= 1",
			st.CommitsRW, st.CommitsRO, st.AbortsUser)
	}
	if st.CommitsRW > st.BeginsRW || st.CommitsRO > st.BeginsRO {
		t.Fatalf("commits rw/ro = %d/%d exceed begins %d/%d",
			st.CommitsRW, st.CommitsRO, st.BeginsRW, st.BeginsRO)
	}
	if e.Name() == "" {
		t.Fatal("empty engine name")
	}
}

// testLifecycle holds every engine to the rules around its transactions,
// for both classes: the first Begin seals Bootstrap, and Close refuses
// every later Begin.
func testLifecycle(t *testing.T, mk Factory) {
	for _, class := range []engine.Class{engine.ReadWrite, engine.ReadOnly} {
		e := mk(nil)
		tx, err := e.Begin(class)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := e.Bootstrap(map[string][]byte{"k": []byte("v")}); err == nil {
			t.Errorf("Bootstrap after a %v Begin succeeded", class)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		if tx, err := e.Begin(class); err == nil {
			tx.Abort()
			t.Errorf("%v Begin after Close succeeded", class)
		}
	}
}
