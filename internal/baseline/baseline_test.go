package baseline

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvdb/internal/engine"
	"mvdb/internal/history"
)

func engines(rec engine.Recorder) map[string]engine.Engine {
	return map[string]engine.Engine{
		"mvto":  NewMVTO(rec),
		"mv2pl": NewMV2PLCTL(rec),
		"sv2pl": NewSV2PL(rec),
	}
}

type bootstrapper interface {
	Bootstrap(map[string][]byte) error
}

func boot(t *testing.T, e engine.Engine, kv map[string]string) {
	t.Helper()
	m := make(map[string][]byte, len(kv))
	for k, v := range kv {
		m[k] = []byte(v)
	}
	if err := e.(bootstrapper).Bootstrap(m); err != nil {
		t.Fatal(err)
	}
}

func commitWrite(t *testing.T, e engine.Engine, kv map[string]string) {
	t.Helper()
	for {
		tx, err := e.Begin(engine.ReadWrite)
		if err != nil {
			t.Fatal(err)
		}
		retry := false
		for k, v := range kv {
			if err := tx.Put(k, []byte(v)); err != nil {
				if engine.Retryable(err) {
					retry = true
					break
				}
				t.Fatal(err)
			}
		}
		if retry {
			continue
		}
		if err := tx.Commit(); err != nil {
			if engine.Retryable(err) {
				continue
			}
			t.Fatal(err)
		}
		return
	}
}

func TestBasicSemanticsAllBaselines(t *testing.T) {
	for name, e := range engines(nil) {
		name, e := name, e
		t.Run(name, func(t *testing.T) {
			defer e.Close()
			boot(t, e, map[string]string{"a": "0"})
			commitWrite(t, e, map[string]string{"a": "1", "b": "2"})

			ro, _ := e.Begin(engine.ReadOnly)
			if got, err := ro.Get("a"); err != nil || string(got) != "1" {
				t.Fatalf("Get(a) = (%q,%v)", got, err)
			}
			if err := ro.Put("x", nil); !errors.Is(err, engine.ErrReadOnly) {
				t.Fatalf("Put err = %v", err)
			}
			if _, err := ro.Get("absent"); !errors.Is(err, engine.ErrNotFound) {
				t.Fatalf("Get(absent) err = %v", err)
			}
			if err := ro.Commit(); err != nil {
				t.Fatal(err)
			}

			// tombstones
			commitWrite(t, e, nil)
			tx, _ := e.Begin(engine.ReadWrite)
			if err := tx.Delete("b"); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			ro2, _ := e.Begin(engine.ReadOnly)
			if _, err := ro2.Get("b"); !errors.Is(err, engine.ErrNotFound) {
				t.Fatalf("post-delete Get err = %v", err)
			}
			ro2.Commit()
		})
	}
}

// The paper, Section 2, on Reed's MVTO: "read operations issued by
// read-only transactions ... may be blocked due to a pending write".
func TestMVTOReadOnlyBlocksOnPendingWrite(t *testing.T) {
	e := NewMVTO(nil)
	defer e.Close()
	boot(t, e, map[string]string{"k": "old"})

	rw, _ := e.Begin(engine.ReadWrite)
	if err := rw.Put("k", []byte("new")); err != nil {
		t.Fatal(err)
	}
	done := make(chan string)
	go func() {
		ro, _ := e.Begin(engine.ReadOnly) // younger ts than rw
		v, _ := ro.Get("k")
		ro.Commit()
		done <- string(v)
	}()
	select {
	case v := <-done:
		t.Fatalf("MVTO read-only returned %q without blocking", v)
	case <-time.After(20 * time.Millisecond):
	}
	if err := rw.Commit(); err != nil {
		t.Fatal(err)
	}
	if v := <-done; v != "new" {
		t.Fatalf("ro read %q, want new", v)
	}
	if e.Stats().ROBlocked == 0 {
		t.Fatal("ROBlocked not counted")
	}
}

// The paper, Section 2: in MVTO a read-only transaction "may also result
// in a read-only transaction causing an abort of a read-write
// transaction". Structural in Reed, impossible in the VC engines.
func TestMVTOReadOnlyCausesWriteAbort(t *testing.T) {
	e := NewMVTO(nil)
	defer e.Close()
	boot(t, e, map[string]string{"k": "0"})

	rw, _ := e.Begin(engine.ReadWrite) // older
	ro, _ := e.Begin(engine.ReadOnly)  // younger ts
	if _, err := ro.Get("k"); err != nil {
		t.Fatal(err)
	}
	ro.Commit()
	err := rw.Put("k", []byte("x"))
	if !errors.Is(err, engine.ErrConflict) {
		t.Fatalf("Put err = %v, want ErrConflict", err)
	}
	if got := e.Stats().RWAbortsByRO; got != 1 {
		t.Fatalf("RWAbortsByRO = %d, want 1", got)
	}
}

// Chan-style read-only transactions must skip versions of transactions
// that committed after the CTL copy was taken, yielding a consistent (if
// stale) snapshot.
func TestMV2PLCTLSnapshotSkipsUnlistedCreators(t *testing.T) {
	e := NewMV2PLCTL(nil)
	defer e.Close()
	boot(t, e, map[string]string{"x": "0"})
	commitWrite(t, e, map[string]string{"x": "1"})

	ro, _ := e.Begin(engine.ReadOnly) // CTL copy taken now
	commitWrite(t, e, map[string]string{"x": "2"})
	if got, err := ro.Get("x"); err != nil || string(got) != "1" {
		t.Fatalf("Get(x) = (%q,%v), want 1", got, err)
	}
	ro.Commit()
	if e.CTLCopied() == 0 {
		t.Fatal("CTLCopied not counted")
	}
	if e.CTLProbes() == 0 {
		t.Fatal("CTLProbes not counted")
	}
}

// A long-running read-write transaction inflates the CTL tail: later
// committers pile up out-of-order because the lock-point numbers have a
// hole (E4's mechanism).
func TestMV2PLCTLTailGrowsBehindStraggler(t *testing.T) {
	e := NewMV2PLCTL(nil)
	defer e.Close()
	boot(t, e, map[string]string{"slow": "0"})

	straggler, _ := e.Begin(engine.ReadWrite)
	if err := straggler.Put("slow", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// straggler holds no lock-point number yet; but tn is taken at commit
	// in this implementation, so holes come from interleaved commits. Use
	// many concurrent committers finishing in scrambled order instead.
	var wg sync.WaitGroup
	hold := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tx, _ := e.Begin(engine.ReadWrite)
			if err := tx.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
				return
			}
			<-hold
			tx.Commit()
		}(i)
	}
	close(hold)
	wg.Wait()
	if err := straggler.Commit(); err != nil {
		t.Fatal(err)
	}
	ro, _ := e.Begin(engine.ReadOnly)
	if _, err := ro.Get("slow"); err != nil {
		t.Fatal(err)
	}
	ro.Commit()
}

// Single-version 2PL: a read-only transaction blocks behind a writer —
// the interference multiversioning removes.
func TestSV2PLReadOnlyBlocksBehindWriter(t *testing.T) {
	e := NewSV2PL(nil)
	defer e.Close()
	boot(t, e, map[string]string{"k": "old"})

	rw, _ := e.Begin(engine.ReadWrite)
	if err := rw.Put("k", []byte("new")); err != nil {
		t.Fatal(err)
	}
	done := make(chan string)
	go func() {
		ro, _ := e.Begin(engine.ReadOnly)
		v, _ := ro.Get("k")
		ro.Commit()
		done <- string(v)
	}()
	select {
	case v := <-done:
		t.Fatalf("SV2PL reader got %q without blocking", v)
	case <-time.After(20 * time.Millisecond):
	}
	if err := rw.Commit(); err != nil {
		t.Fatal(err)
	}
	if v := <-done; v != "new" {
		t.Fatalf("reader got %q, want new", v)
	}
	if got := e.Stats().ROBlocked; got != 1 {
		t.Fatalf("ROBlocked = %d, want 1", got)
	}
}

// A read-only read counts as blocked only when its own lock request
// waited: writers queueing on a key no reader touches must not show up
// in ROBlocked. Each writer holds the hot lock across a yield, so the
// others queue behind it, and the readers keep going until the writers
// have waited minWaits times: the writers' waits overlap the readers'
// requests by construction, not by the scheduler's leave.
func TestSV2PLROBlockedCountsOnlyTheReadersWaits(t *testing.T) {
	const minWaits = 100
	e := NewSV2PL(nil)
	defer e.Close()
	boot(t, e, map[string]string{"hot": "0", "r0": "0", "r1": "0", "r2": "0", "r3": "0"})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	stopWriters := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopWriters()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx, err := e.Begin(engine.ReadWrite)
				if err != nil {
					t.Error(err)
					return
				}
				if err := tx.Put("hot", []byte("w")); err != nil {
					continue // a deadlock victim has already aborted
				}
				runtime.Gosched()
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; i < 2000 || e.locks.Waits() < minWaits; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("the writers waited %d times in 30 s, want %d: the test shows nothing", e.locks.Waits(), minWaits)
		}
		ro, err := e.Begin(engine.ReadOnly)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 4; k++ {
			if _, err := ro.Get(fmt.Sprintf("r%d", k)); err != nil {
				t.Fatal(err)
			}
		}
		if err := ro.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	stopWriters()
	st := e.Stats()
	if st.ROBlocked != 0 {
		t.Fatalf("ROBlocked = %d, want 0 (lock waits %d, all writers')", st.ROBlocked, st.LockWaits)
	}
	if st.LockWaits < minWaits {
		t.Fatalf("the writers waited %d times, want at least %d: the test shows nothing", st.LockWaits, minWaits)
	}
}

// And the dual: a writer blocks behind a read-only transaction.
func TestSV2PLWriterBlocksBehindReader(t *testing.T) {
	e := NewSV2PL(nil)
	defer e.Close()
	boot(t, e, map[string]string{"k": "v"})

	ro, _ := e.Begin(engine.ReadOnly)
	if _, err := ro.Get("k"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error)
	go func() {
		rw, _ := e.Begin(engine.ReadWrite)
		err := rw.Put("k", []byte("w"))
		if err == nil {
			err = rw.Commit()
		}
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("writer finished (%v) while reader held lock", err)
	case <-time.After(20 * time.Millisecond):
	}
	ro.Commit()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// All baselines must still be one-copy serializable — the paper's
// complaint is overhead and interference, not incorrectness. A
// single-version 2PL reader takes shared locks, so it can be chosen as a
// deadlock victim: that abort is the interference the paper complains
// of, and is counted, not failed, so long as most readers commit. The
// multiversion baselines' readers take no locks and must never abort.
func TestStressSerializabilityBaselines(t *testing.T) {
	const (
		nKeys    = 12
		nWorkers = 6
		nTxns    = 80
	)
	for _, name := range []string{"mvto", "mv2pl", "sv2pl"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rec := history.NewRecorder()
			e := engines(rec)[name]
			defer e.Close()

			bootKV := make(map[string][]byte)
			for i := 0; i < nKeys; i++ {
				bootKV[fmt.Sprintf("acct%02d", i)] = []byte{100}
			}
			if err := e.(bootstrapper).Bootstrap(bootKV); err != nil {
				t.Fatal(err)
			}

			var wg sync.WaitGroup
			var readerAborts, readerCommits atomic.Int64
			for w := 0; w < nWorkers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < nTxns; i++ {
						if rng.Intn(3) == 0 {
							ro, _ := e.Begin(engine.ReadOnly)
							victim := false
							for j := 0; j < 3 && !victim; j++ {
								k := fmt.Sprintf("acct%02d", rng.Intn(nKeys))
								_, err := ro.Get(k)
								switch {
								case engine.Retryable(err):
									victim = true
								case err != nil && !errors.Is(err, engine.ErrNotFound):
									t.Errorf("ro get: %v", err)
								}
							}
							if victim {
								readerAborts.Add(1)
								ro.Abort()
							} else if ro.Commit() == nil {
								readerCommits.Add(1)
							}
							continue
						}
						for attempt := 0; attempt < 100; attempt++ {
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
			aborts, commits := readerAborts.Load(), readerCommits.Load()
			if aborts > 0 && name != "sv2pl" {
				t.Errorf("%d read-only transactions aborted, want 0", aborts)
			}
			if commits <= aborts {
				t.Errorf("%d read-only transactions committed and %d aborted, want most to commit", commits, aborts)
			}

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
			if total != nKeys*100 {
				t.Fatalf("balance not conserved: %d", total)
			}
			if err := rec.Check(); err != nil {
				t.Fatalf("%s history not 1SR: %v", name, err)
			}
		})
	}
}

func TestMVTOReadOwnPendingWrite(t *testing.T) {
	e := NewMVTO(nil)
	defer e.Close()
	boot(t, e, map[string]string{"k": "old"})
	tx, _ := e.Begin(engine.ReadWrite)
	if err := tx.Put("k", []byte("mine")); err != nil {
		t.Fatal(err)
	}
	if v, err := tx.Get("k"); err != nil || string(v) != "mine" {
		t.Fatalf("read-own-write = (%q,%v)", v, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestMV2PLCTLDeadlockAborts(t *testing.T) {
	e := NewMV2PLCTL(nil)
	defer e.Close()
	boot(t, e, map[string]string{"a": "0", "b": "0"})
	t1, _ := e.Begin(engine.ReadWrite)
	t2, _ := e.Begin(engine.ReadWrite)
	if err := t1.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := t2.Put("b", []byte("2")); err != nil {
		t.Fatal(err)
	}
	done := make(chan error)
	go func() { done <- t1.Put("b", []byte("x")) }()
	time.Sleep(10 * time.Millisecond)
	err := t2.Put("a", []byte("y"))
	if !engine.Retryable(err) {
		t.Fatalf("err = %v, want retryable deadlock", err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().AbortsDeadlock; got != 1 {
		t.Fatalf("AbortsDeadlock = %d", got)
	}
}

func TestSV2PLReadOnlyDeadlockVictim(t *testing.T) {
	e := NewSV2PL(nil)
	defer e.Close()
	boot(t, e, map[string]string{"a": "0", "b": "0"})
	// rw holds X(a), waits for X(b); ro holds S(b), requests S(a): cycle.
	rw, _ := e.Begin(engine.ReadWrite)
	if err := rw.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	ro, _ := e.Begin(engine.ReadOnly)
	if _, err := ro.Get("b"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error)
	go func() { done <- rw.Put("b", []byte("2")) }()
	time.Sleep(10 * time.Millisecond)
	_, err := ro.Get("a")
	if !engine.Retryable(err) {
		t.Fatalf("read-only Get err = %v, want retryable (deadlock victim)", err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := rw.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestBaselineDoubleFinish(t *testing.T) {
	for name, e := range engines(nil) {
		t.Run(name, func(t *testing.T) {
			defer e.Close()
			tx, _ := e.Begin(engine.ReadWrite)
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); !errors.Is(err, engine.ErrTxDone) {
				t.Fatalf("double commit = %v", err)
			}
			tx.Abort()
			ro, _ := e.Begin(engine.ReadOnly)
			ro.Abort()
			if err := ro.Commit(); !errors.Is(err, engine.ErrTxDone) {
				t.Fatalf("commit after abort = %v", err)
			}
		})
	}
}

func TestSV2PLSingleVersionInvariant(t *testing.T) {
	e := NewSV2PL(nil)
	defer e.Close()
	for i := 0; i < 20; i++ {
		commitWrite(t, e, map[string]string{"k": fmt.Sprintf("v%d", i)})
	}
	if got := e.Store().Get("k").VersionCount(); got != 1 {
		t.Fatalf("sv2pl retained %d versions, want 1", got)
	}
}
