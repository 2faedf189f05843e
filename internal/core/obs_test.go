package core

import (
	"sync"
	"testing"
	"time"

	"mvdb/internal/engine"
)

// TestSnapshotFields checks the engine-level snapshot assembly: counter
// registry, protocol name, vc gauges and storage-shape gauges.
func TestSnapshotFields(t *testing.T) {
	e := newEngine(t, TimestampOrdering, nil)
	mustCommitWrite(t, e, map[string]string{"a": "1", "b": "1"})
	mustCommitWrite(t, e, map[string]string{"a": "2"})
	ro, _ := e.Begin(engine.ReadOnly)
	ro.Get("a")
	ro.Commit()

	sn := e.Stats()
	if sn.Protocol != "vc+to" {
		t.Fatalf("protocol = %q", sn.Protocol)
	}
	if sn.CommitsRW != 2 || sn.BeginsRW != 2 || sn.CommitsRO != 1 || sn.BeginsRO != 1 {
		t.Fatalf("lifecycle counters = %+v", sn)
	}
	if sn.VTNC != sn.TNC-1 || sn.VisibilityLag != 0 {
		t.Fatalf("vc gauges = tnc=%d vtnc=%d lag=%d", sn.TNC, sn.VTNC, sn.VisibilityLag)
	}
	if sn.Keys != 2 || sn.Versions != 3 || sn.MaxVersionChain != 2 {
		t.Fatalf("storage gauges = keys=%d versions=%d max=%d", sn.Keys, sn.Versions, sn.MaxVersionChain)
	}
	if sn.MeanVersionChain != 1.5 {
		t.Fatalf("mean chain = %v", sn.MeanVersionChain)
	}
}

// TestLockWaitHistogram makes one transaction block behind another and
// checks the wait lands in the snapshot's lock-wait summary.
func TestLockWaitHistogram(t *testing.T) {
	e := newEngine(t, TwoPhaseLocking, nil)
	tx1, _ := e.Begin(engine.ReadWrite)
	if err := tx1.Put("x", []byte("1")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tx2, _ := e.Begin(engine.ReadWrite)
		if err := tx2.Put("x", []byte("2")); err != nil {
			t.Error(err)
			return
		}
		tx2.Commit()
	}()
	time.Sleep(20 * time.Millisecond) // let tx2 block on x
	tx1.Commit()
	wg.Wait()
	sn := e.Stats()
	if sn.LockWait.Count == 0 {
		t.Fatal("no lock waits recorded in histogram")
	}
	if sn.LockWait.Max < (10 * time.Millisecond).Nanoseconds() {
		t.Fatalf("max lock wait %s implausibly small for a 20ms hold", time.Duration(sn.LockWait.Max))
	}
	if sn.LockWaits == 0 {
		t.Fatal("lock manager wait counter is zero")
	}
}

// TestAbortCauseCounters: each abort cause increments its own counter —
// including the timeout split (previously folded into deadlocks), which
// a cluster site's lock timeout makes.
func TestAbortCauseCounters(t *testing.T) {
	e := New(ClusterSite(Options{Protocol: TwoPhaseLocking}, 0, 2, new(Registry), 5*time.Millisecond))
	defer e.Close()
	tx1, _ := e.Begin(engine.ReadWrite)
	tx1.Put("x", []byte("1"))
	tx2, _ := e.Begin(engine.ReadWrite)
	if err := tx2.Put("x", []byte("2")); err == nil {
		t.Fatal("expected a lock timeout")
	}
	tx1.Commit()
	sn := e.Stats()
	if sn.AbortsTimeout != 1 {
		t.Fatalf("aborts.timeout = %d, want 1", sn.AbortsTimeout)
	}
	if sn.AbortsDeadlock != 0 {
		t.Fatalf("timeout abort leaked into aborts.deadlock (%d)", sn.AbortsDeadlock)
	}
}
