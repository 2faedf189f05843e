package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"mvdb/internal/engine"
	"mvdb/internal/history"
	"mvdb/internal/storage"
)

func allProtocols() []Protocol {
	return []Protocol{TwoPhaseLocking, TimestampOrdering, Optimistic}
}

func newEngine(t *testing.T, p Protocol, rec engine.Recorder) *Engine {
	t.Helper()
	e := New(Options{Protocol: p, Recorder: rec})
	t.Cleanup(func() { e.Close() })
	return e
}

func mustCommitWrite(t *testing.T, e *Engine, kv map[string]string) uint64 {
	t.Helper()
	for {
		tx, err := e.Begin(engine.ReadWrite)
		if err != nil {
			t.Fatal(err)
		}
		ok := true
		for k, v := range kv {
			if err := tx.Put(k, []byte(v)); err != nil {
				if engine.Retryable(err) {
					ok = false
					break
				}
				t.Fatal(err)
			}
		}
		if !ok {
			continue
		}
		if err := tx.Commit(); err != nil {
			if engine.Retryable(err) {
				continue
			}
			t.Fatal(err)
		}
		tn, _ := tx.SN()
		return tn
	}
}

func TestBasicReadWriteCycle(t *testing.T) {
	for _, p := range allProtocols() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			e := newEngine(t, p, nil)
			mustCommitWrite(t, e, map[string]string{"a": "1"})

			tx, err := e.Begin(engine.ReadWrite)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tx.Get("a")
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "1" {
				t.Fatalf("Get(a) = %q, want 1", got)
			}
			if err := tx.Put("a", []byte("2")); err != nil {
				t.Fatal(err)
			}
			// read-own-write
			got, err = tx.Get("a")
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "2" {
				t.Fatalf("read-own-write = %q, want 2", got)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}

			ro, err := e.Begin(engine.ReadOnly)
			if err != nil {
				t.Fatal(err)
			}
			got, err = ro.Get("a")
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "2" {
				t.Fatalf("snapshot Get(a) = %q, want 2", got)
			}
			if err := ro.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestGetAbsentKey(t *testing.T) {
	for _, p := range allProtocols() {
		t.Run(p.String(), func(t *testing.T) {
			e := newEngine(t, p, nil)
			tx, _ := e.Begin(engine.ReadWrite)
			if _, err := tx.Get("nope"); !errors.Is(err, engine.ErrNotFound) {
				t.Fatalf("err = %v, want ErrNotFound", err)
			}
			tx.Abort()
			ro, _ := e.Begin(engine.ReadOnly)
			if _, err := ro.Get("nope"); !errors.Is(err, engine.ErrNotFound) {
				t.Fatalf("ro err = %v, want ErrNotFound", err)
			}
			ro.Commit()
		})
	}
}

func TestDeleteBecomesTombstone(t *testing.T) {
	for _, p := range allProtocols() {
		t.Run(p.String(), func(t *testing.T) {
			e := newEngine(t, p, nil)
			mustCommitWrite(t, e, map[string]string{"k": "v"})
			roBefore, _ := e.Begin(engine.ReadOnly)

			tx, _ := e.Begin(engine.ReadWrite)
			if err := tx.Delete("k"); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}

			// The old snapshot still sees the value (time travel).
			if got, err := roBefore.Get("k"); err != nil || string(got) != "v" {
				t.Fatalf("old snapshot Get = (%q,%v), want v", got, err)
			}
			roBefore.Commit()

			roAfter, _ := e.Begin(engine.ReadOnly)
			if _, err := roAfter.Get("k"); !errors.Is(err, engine.ErrNotFound) {
				t.Fatalf("post-delete Get err = %v, want ErrNotFound", err)
			}
			roAfter.Commit()
		})
	}
}

func TestReadOnlyCannotWrite(t *testing.T) {
	e := newEngine(t, TwoPhaseLocking, nil)
	ro, _ := e.Begin(engine.ReadOnly)
	if err := ro.Put("a", nil); !errors.Is(err, engine.ErrReadOnly) {
		t.Fatalf("Put err = %v, want ErrReadOnly", err)
	}
	if err := ro.Delete("a"); !errors.Is(err, engine.ErrReadOnly) {
		t.Fatalf("Delete err = %v, want ErrReadOnly", err)
	}
	ro.Commit()
}

func TestUseAfterFinish(t *testing.T) {
	for _, p := range allProtocols() {
		t.Run(p.String(), func(t *testing.T) {
			e := newEngine(t, p, nil)
			tx, _ := e.Begin(engine.ReadWrite)
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Get("a"); !errors.Is(err, engine.ErrTxDone) {
				t.Fatalf("Get err = %v, want ErrTxDone", err)
			}
			if err := tx.Put("a", nil); !errors.Is(err, engine.ErrTxDone) {
				t.Fatalf("Put err = %v, want ErrTxDone", err)
			}
			if err := tx.Commit(); !errors.Is(err, engine.ErrTxDone) {
				t.Fatalf("second Commit err = %v, want ErrTxDone", err)
			}
			tx.Abort() // idempotent no-op
		})
	}
}

func TestAbortDiscardsWrites(t *testing.T) {
	for _, p := range allProtocols() {
		t.Run(p.String(), func(t *testing.T) {
			e := newEngine(t, p, nil)
			mustCommitWrite(t, e, map[string]string{"k": "old"})
			tx, _ := e.Begin(engine.ReadWrite)
			if err := tx.Put("k", []byte("new")); err != nil {
				t.Fatal(err)
			}
			tx.Abort()
			ro, _ := e.Begin(engine.ReadOnly)
			got, err := ro.Get("k")
			if err != nil || string(got) != "old" {
				t.Fatalf("Get = (%q,%v), want old", got, err)
			}
			ro.Commit()
		})
	}
}

// A read-only transaction's snapshot is fixed at begin: writes that commit
// later are invisible (repeatable reads without any locks).
func TestSnapshotStability(t *testing.T) {
	for _, p := range allProtocols() {
		t.Run(p.String(), func(t *testing.T) {
			e := newEngine(t, p, nil)
			mustCommitWrite(t, e, map[string]string{"x": "1", "y": "1"})
			ro, _ := e.Begin(engine.ReadOnly)
			if got, _ := ro.Get("x"); string(got) != "1" {
				t.Fatalf("x = %q", got)
			}
			mustCommitWrite(t, e, map[string]string{"x": "2", "y": "2"})
			// Old snapshot must keep seeing 1 for both keys.
			if got, _ := ro.Get("x"); string(got) != "1" {
				t.Fatalf("x after overwrite = %q, want 1", got)
			}
			if got, _ := ro.Get("y"); string(got) != "1" {
				t.Fatalf("y after overwrite = %q, want 1", got)
			}
			ro.Commit()
			ro2, _ := e.Begin(engine.ReadOnly)
			if got, _ := ro2.Get("x"); string(got) != "2" {
				t.Fatalf("fresh snapshot x = %q, want 2", got)
			}
			ro2.Commit()
		})
	}
}

// Delayed visibility (paper Section 6): while an older registered
// transaction is active, a younger one's commit stays invisible; the
// recency rectification (BeginReadOnlyAt) waits it out. A younger
// read-write read of the older one's key blocks on its pending write,
// and the snapshot counts that store wait.
func TestDelayedVisibilityAndRecencyRectification(t *testing.T) {
	e := newEngine(t, TimestampOrdering, nil)
	mustCommitWrite(t, e, map[string]string{"k": "0"})

	older, _ := e.Begin(engine.ReadWrite) // registers first, stays active
	if err := older.Put("unrelated", []byte("x")); err != nil {
		t.Fatal(err)
	}

	younger, _ := e.Begin(engine.ReadWrite)
	if err := younger.Put("k", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := younger.Commit(); err != nil {
		t.Fatal(err)
	}
	youngerTN, _ := younger.SN()

	// Plain read-only txn: must still see the old value.
	ro, _ := e.Begin(engine.ReadOnly)
	if got, _ := ro.Get("k"); string(got) != "0" {
		t.Fatalf("delayed visibility broken: got %q, want 0", got)
	}
	ro.Commit()
	if lag := e.VC().Lag(); lag == 0 {
		t.Fatal("expected a visibility lag while older txn active")
	}

	// A younger T/O read of "unrelated" waits on older's pending write.
	blocked := make(chan error, 1)
	go func() {
		rw, _ := e.Begin(engine.ReadWrite)
		_, err := rw.Get("unrelated")
		if err == nil {
			err = rw.Commit()
		}
		blocked <- err
	}()
	eventually(t, "the store wait", func() bool { return e.Stats().StoreWaits == 1 })

	// Recency-rectified reader blocks until the older txn resolves.
	done := make(chan string)
	go func() {
		roRecent, err := e.BeginReadOnlyAt(youngerTN)
		if err != nil {
			done <- "err:" + err.Error()
			return
		}
		got, _ := roRecent.Get("k")
		roRecent.Commit()
		done <- string(got)
	}()
	select {
	case v := <-done:
		t.Fatalf("recent reader returned %q before older txn finished", v)
	case <-time.After(20 * time.Millisecond):
	}
	if err := older.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-done:
		if v != "1" {
			t.Fatalf("recent reader saw %q, want 1", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("recent reader never unblocked")
	}
	if err := <-blocked; err != nil {
		t.Fatalf("blocked read-write transaction: %v", err)
	}
}

// The headline claim (Sections 1, 4.2): read-only transactions are never
// blocked by read-write transactions — even ones holding exclusive locks
// or pending writes on the very keys being read.
func TestReadOnlyNeverBlocks(t *testing.T) {
	for _, p := range allProtocols() {
		t.Run(p.String(), func(t *testing.T) {
			e := newEngine(t, p, nil)
			mustCommitWrite(t, e, map[string]string{"hot": "committed"})

			rw, _ := e.Begin(engine.ReadWrite)
			if err := rw.Put("hot", []byte("uncommitted")); err != nil {
				t.Fatal(err)
			}

			done := make(chan string)
			go func() {
				ro, _ := e.Begin(engine.ReadOnly)
				v, _ := ro.Get("hot")
				ro.Commit()
				done <- string(v)
			}()
			select {
			case v := <-done:
				if v != "committed" {
					t.Fatalf("ro read %q, want committed", v)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("read-only transaction blocked behind a writer")
			}
			if err := rw.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// 2PL-specific: conflicting writers deadlock and one is aborted; retry
// succeeds.
func TestTwoPhaseDeadlockVictimRetries(t *testing.T) {
	e := newEngine(t, TwoPhaseLocking, nil)
	mustCommitWrite(t, e, map[string]string{"a": "0", "b": "0"})

	var wg sync.WaitGroup
	run := func(k1, k2 string) {
		defer wg.Done()
		for {
			tx, _ := e.Begin(engine.ReadWrite)
			if err := tx.Put(k1, []byte("x")); err != nil {
				continue
			}
			time.Sleep(5 * time.Millisecond)
			if err := tx.Put(k2, []byte("y")); err != nil {
				continue
			}
			if err := tx.Commit(); err == nil {
				return
			}
		}
	}
	wg.Add(2)
	go run("a", "b")
	go run("b", "a")
	donec := make(chan struct{})
	go func() { wg.Wait(); close(donec) }()
	select {
	case <-donec:
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock not resolved")
	}
}

// T/O-specific: a write that arrives after a younger read aborts
// (write-rejection, Figure 3).
func TestTimestampWriteRejection(t *testing.T) {
	e := newEngine(t, TimestampOrdering, nil)
	mustCommitWrite(t, e, map[string]string{"k": "0"})

	older, _ := e.Begin(engine.ReadWrite)
	younger, _ := e.Begin(engine.ReadWrite)
	if _, err := younger.Get("k"); err != nil {
		t.Fatal(err)
	}
	err := older.Put("k", []byte("late"))
	if !errors.Is(err, engine.ErrConflict) {
		t.Fatalf("err = %v, want ErrConflict", err)
	}
	if err := younger.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().AbortsConflict; got != 1 {
		t.Fatalf("AbortsConflict = %d, want 1", got)
	}
}

// OCC-specific: validation fails when a read object changed.
func TestOptimisticValidationFailure(t *testing.T) {
	e := newEngine(t, Optimistic, nil)
	mustCommitWrite(t, e, map[string]string{"k": "0"})

	reader, _ := e.Begin(engine.ReadWrite)
	if _, err := reader.Get("k"); err != nil {
		t.Fatal(err)
	}
	mustCommitWrite(t, e, map[string]string{"k": "1"})
	if err := reader.Put("other", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := reader.Commit(); !errors.Is(err, engine.ErrConflict) {
		t.Fatalf("Commit err = %v, want ErrConflict", err)
	}
}

func TestBootstrapAfterBeginFails(t *testing.T) {
	e := newEngine(t, TwoPhaseLocking, nil)
	tx, _ := e.Begin(engine.ReadWrite)
	tx.Abort()
	if err := e.Bootstrap(map[string][]byte{"a": nil}); err == nil {
		t.Fatal("Bootstrap after Begin should fail")
	}
}

func TestMinActiveReadOnlySN(t *testing.T) {
	e := New(Options{Protocol: TwoPhaseLocking})
	defer e.Close()
	if _, ok := e.MinActiveReadOnlySN(); ok {
		t.Fatal("expected no active read-only txns")
	}
	mustCommitWrite(t, e, map[string]string{"a": "1"})
	ro1, _ := e.Begin(engine.ReadOnly)
	sn1, _ := ro1.SN()
	mustCommitWrite(t, e, map[string]string{"a": "2"})
	ro2, _ := e.Begin(engine.ReadOnly)
	min, ok := e.MinActiveReadOnlySN()
	if !ok || min != sn1 {
		t.Fatalf("min = (%d,%v), want (%d,true)", min, ok, sn1)
	}
	ro1.Commit()
	sn2, _ := ro2.SN()
	min, ok = e.MinActiveReadOnlySN()
	if !ok || min != sn2 {
		t.Fatalf("min = (%d,%v), want (%d,true)", min, ok, sn2)
	}
	ro2.Abort()
	if _, ok := e.MinActiveReadOnlySN(); ok {
		t.Fatal("registry not drained")
	}
}

// --- Ablation A1: registering 2PL transactions before the lock-point is
// incorrect, and the history checker proves it on a deterministic
// interleaving (DESIGN.md experiment A1).
func TestAblationEarlyRegister2PL(t *testing.T) {
	rec := history.NewRecorder()
	e := New(Options{Protocol: TwoPhaseLocking, Recorder: rec, UnsafeEarlyRegister2PL: true})
	defer e.Close()
	mustCommitWrite(t, e, map[string]string{"x": "0"})

	t1, _ := e.Begin(engine.ReadWrite) // registers now: tn fixed too early
	t2, _ := e.Begin(engine.ReadWrite)
	if err := t2.Put("x", []byte("t2")); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	// T1 now reads T2's write and overwrites it — with a SMALLER tn.
	if _, err := t1.Get("x"); err != nil {
		t.Fatal(err)
	}
	if err := t1.Put("x", []byte("t1")); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	// A read-only observer: with T1 registered early, tn(T1) < tn(T2), so
	// the snapshot resolves to T2's version even though T1 overwrote it —
	// its read closes the MVSG cycle.
	obs, _ := e.Begin(engine.ReadOnly)
	if got, _ := obs.Get("x"); string(got) != "t2" {
		t.Fatalf("ablated engine snapshot = %q; expected the anomalous t2", got)
	}
	obs.Commit()
	if err := rec.Check(); err == nil {
		t.Fatal("checker accepted the early-register history; expected an MVSG cycle")
	} else {
		t.Logf("checker correctly rejected: %v", err)
	}

	// Control: same interleaving on the correct engine is accepted.
	rec2 := history.NewRecorder()
	e2 := New(Options{Protocol: TwoPhaseLocking, Recorder: rec2})
	defer e2.Close()
	mustCommitWrite(t, e2, map[string]string{"x": "0"})
	u1, _ := e2.Begin(engine.ReadWrite)
	u2, _ := e2.Begin(engine.ReadWrite)
	if err := u2.Put("x", []byte("t2")); err != nil {
		t.Fatal(err)
	}
	if err := u2.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := u1.Get("x"); err != nil {
		t.Fatal(err)
	}
	if err := u1.Put("x", []byte("t1")); err != nil {
		t.Fatal(err)
	}
	if err := u1.Commit(); err != nil {
		t.Fatal(err)
	}
	obs2, _ := e2.Begin(engine.ReadOnly)
	if got, _ := obs2.Get("x"); string(got) != "t1" {
		t.Fatalf("correct engine snapshot = %q, want t1", got)
	}
	obs2.Commit()
	if err := rec2.Check(); err != nil {
		t.Fatalf("correct engine produced a bad history: %v", err)
	}
}

// --- Ablation A2: advancing vtnc in completion order exposes an
// inconsistent snapshot to read-only transactions (DESIGN.md A2).
func TestAblationEagerVisibility(t *testing.T) {
	rec := history.NewRecorder()
	e := New(Options{Protocol: TimestampOrdering, Recorder: rec, UnsafeEagerVisibility: true})
	defer e.Close()
	e.Bootstrap(map[string][]byte{"y": []byte("0"), "z": []byte("0")})

	// T1 (older) reads z and writes y; T2 (younger) overwrites z and
	// completes first. The anti-dependency T1 -> T2 on z, combined with an
	// eager snapshot that sees T2's z but not T1's y, is non-serializable.
	t1, _ := e.Begin(engine.ReadWrite)
	t2, _ := e.Begin(engine.ReadWrite)
	if _, err := t1.Get("z"); err != nil {
		t.Fatal(err)
	}
	if err := t1.Put("y", []byte("t1")); err != nil {
		t.Fatal(err)
	}
	if err := t2.Put("z", []byte("t2")); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	ro, _ := e.Begin(engine.ReadOnly)
	if got, _ := ro.Get("z"); string(got) != "t2" {
		t.Fatalf("ablated engine hid t2's write (got %q); test setup broken", got)
	}
	if got, _ := ro.Get("y"); string(got) != "0" {
		t.Fatalf("ro saw y=%q, want bootstrap 0", got)
	}
	ro.Commit()
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Check(); err == nil {
		t.Fatal("checker accepted the eager-visibility history; expected an MVSG cycle")
	} else {
		t.Logf("checker correctly rejected: %v", err)
	}
}

// Randomized concurrent stress for every protocol, validated by the MVSG
// checker and a bank-style conservation invariant.
func TestStressSerializability(t *testing.T) {
	const (
		nKeys    = 16
		nWorkers = 8
		nTxns    = 120
		initBal  = 100
	)
	for _, p := range allProtocols() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			rec := history.NewRecorder()
			e := New(Options{Protocol: p, Recorder: rec})
			defer e.Close()

			boot := make(map[string][]byte)
			for i := 0; i < nKeys; i++ {
				boot[fmt.Sprintf("acct%02d", i)] = []byte{initBal}
			}
			if err := e.Bootstrap(boot); err != nil {
				t.Fatal(err)
			}

			var wg sync.WaitGroup
			for w := 0; w < nWorkers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < nTxns; i++ {
						if rng.Intn(3) == 0 {
							// read-only audit of a few accounts
							ro, _ := e.Begin(engine.ReadOnly)
							for j := 0; j < 3; j++ {
								k := fmt.Sprintf("acct%02d", rng.Intn(nKeys))
								if _, err := ro.Get(k); err != nil && !errors.Is(err, engine.ErrNotFound) {
									t.Errorf("ro get: %v", err)
								}
							}
							ro.Commit()
							continue
						}
						// transfer 1 unit between two random accounts
						for attempt := 0; attempt < 50; attempt++ {
							from := fmt.Sprintf("acct%02d", rng.Intn(nKeys))
							to := fmt.Sprintf("acct%02d", rng.Intn(nKeys))
							if from == to {
								continue
							}
							tx, _ := e.Begin(engine.ReadWrite)
							fv, err := tx.Get(from)
							if err != nil {
								tx.Abort()
								continue
							}
							tv, err := tx.Get(to)
							if err != nil {
								tx.Abort()
								continue
							}
							if fv[0] == 0 {
								tx.Abort()
								break
							}
							if err := tx.Put(from, []byte{fv[0] - 1}); err != nil {
								continue
							}
							if err := tx.Put(to, []byte{tv[0] + 1}); err != nil {
								continue
							}
							if err := tx.Commit(); err == nil {
								break
							}
						}
					}
				}(w)
			}
			wg.Wait()

			// Conservation: total balance unchanged.
			ro, _ := e.Begin(engine.ReadOnly)
			total := 0
			for i := 0; i < nKeys; i++ {
				v, err := ro.Get(fmt.Sprintf("acct%02d", i))
				if err != nil {
					t.Fatal(err)
				}
				total += int(v[0])
			}
			ro.Commit()
			if total != nKeys*initBal {
				t.Fatalf("balance not conserved: %d != %d", total, nKeys*initBal)
			}

			if err := rec.Check(); err != nil {
				t.Fatalf("history not one-copy serializable: %v", err)
			}
			if got := e.Stats().RWAbortsByRO; got != 0 {
				t.Fatalf("VC engine recorded %d rw aborts caused by read-only txns; paper says 0", got)
			}
			if n := rec.CommittedCount(); n < nWorkers*nTxns/2 {
				t.Fatalf("suspiciously few commits: %d", n)
			}
			if err := e.VC().CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestKeyLongerThanTheStoreHoldsIsRefused: a write or a Bootstrap of a
// key longer than storage.MaxKey returns an error before the key reaches
// the log or the store (whose key table panics on it), under every
// protocol.
func TestKeyLongerThanTheStoreHoldsIsRefused(t *testing.T) {
	long := string(make([]byte, storage.MaxKey+1))
	for _, p := range allProtocols() {
		e := newEngine(t, p, nil)
		if err := e.Bootstrap(map[string][]byte{"a": nil, long: nil}); err == nil {
			t.Errorf("%v: Bootstrap took a key longer than MaxKey", p)
		}
		tx, err := e.Begin(engine.ReadWrite)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Put(long, []byte("v")); err == nil || engine.Retryable(err) {
			t.Errorf("%v: Put of a long key = %v; want a non-retryable error", p, err)
		}
		if err := tx.Delete(long); err == nil {
			t.Errorf("%v: Delete of a long key took it", p)
		}
		if err := tx.Put("a", []byte("v")); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if n := e.Store().Len(); n != 1 {
			t.Errorf("%v: the store holds %d keys; want 1", p, n)
		}
	}
}
