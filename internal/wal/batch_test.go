package wal

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func rec(tn uint64, key, val string) Record {
	return Record{TN: tn, Writes: []Write{{Key: key, Value: []byte(val)}}}
}

// TestSyncBatchRoundTrip checks that records appended under group commit
// replay identically to SyncEveryCommit ones, and that every record is
// durable (fsync-covered) by the time its Append returned.
func TestSyncBatchRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := CreateWith(path, Options{Policy: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.Append(rec(uint64(i+1), fmt.Sprintf("k%d", i), "v"))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	appends, fsyncs, _ := w.Counters()
	if appends != n {
		t.Fatalf("appends = %d, want %d", appends, n)
	}
	if fsyncs == 0 || fsyncs > n {
		t.Fatalf("fsyncs = %d, want in [1,%d]", fsyncs, n)
	}
	// Durability contract: everything acknowledged is already on disk,
	// BEFORE Close. Replay must see all n records.
	seen := make(map[uint64]bool)
	if _, err := Replay(path, func(r Record) error { seen[r.TN] = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("replayed %d records before Close, want %d", len(seen), n)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := w.Batches(); got == 0 {
		t.Fatal("no batches counted")
	}
}

// TestSyncBatchAmortizes drives concurrent committers and requires that
// group commit actually grouped: strictly fewer fsyncs than appends.
func TestSyncBatchAmortizes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := CreateWith(path, Options{Policy: SyncBatch, BatchMaxDelay: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var total atomic.Int64
	var batches atomic.Int64
	w.SetBatchObserver(func(n int) {
		batches.Add(1)
		total.Add(int64(n))
	})
	const workers, per = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := w.Append(rec(uint64(g*per+i+1), "k", "v")); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// The flusher reports a batch after releasing its waiters; Close
	// waits for the flusher, so the observer has seen every batch.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	appends, fsyncs, _ := w.Counters()
	if appends != workers*per {
		t.Fatalf("appends = %d", appends)
	}
	if fsyncs >= appends {
		t.Fatalf("no amortization: fsyncs %d >= appends %d", fsyncs, appends)
	}
	if total.Load() != int64(appends) {
		t.Fatalf("batch observer saw %d records, want %d", total.Load(), appends)
	}
	if batches.Load() != int64(w.Batches()) {
		t.Fatalf("observer batches %d != counter %d", batches.Load(), w.Batches())
	}
}

// TestSyncBatchDelayGathers checks the tunables: with a long gathering
// delay, sequentially issued concurrent appends land in one batch.
func TestSyncBatchDelayGathers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := CreateWith(path, Options{Policy: SyncBatch, BatchMaxDelay: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const n = 10
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			if err := w.Append(rec(uint64(i+1), "k", "v")); err != nil {
				t.Error(err)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	if _, fsyncs, _ := w.Counters(); fsyncs > 3 {
		t.Fatalf("gathering delay did not gather: %d fsyncs for %d appends", fsyncs, n)
	}
}

// TestSyncBatchMaxRecordsCutsDelayShort: with BatchMaxRecords=1 the
// flusher must not sit out its delay once a record is pending.
func TestSyncBatchMaxRecordsCutsDelayShort(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := CreateWith(path, Options{
		Policy: SyncBatch, BatchMaxRecords: 1, BatchMaxDelay: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	done := make(chan error, 1)
	go func() { done <- w.Append(rec(1, "k", "v")) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Append sat out a 10s gathering delay despite BatchMaxRecords=1")
	}
}

// TestSyncBatchCloseDrains: Close must not return until every
// acknowledged record is synced, and late Appends fail cleanly.
func TestSyncBatchCloseDrains(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := CreateWith(path, Options{Policy: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.Append(rec(uint64(i+1), "k", "v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(rec(99, "k", "v")); err == nil {
		t.Fatal("Append after Close succeeded")
	}
	count := 0
	if _, err := Replay(path, func(Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("replayed %d, want 10", count)
	}
}

// TestSyncBatchStickyError: after the underlying file is closed out from
// under the writer, the batch fsync fails, the waiter gets the error, and
// every later Append reports the writer broken rather than hanging.
func TestSyncBatchStickyError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := CreateWith(path, Options{Policy: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	w.f.Close() // sabotage: flusher's Flush/Sync will fail
	if err := w.Append(rec(1, "k", "v")); err == nil {
		t.Fatal("Append acknowledged a record the flusher could not sync")
	}
	if err := w.Append(rec(2, "k", "v")); err == nil {
		t.Fatal("Append after sticky error succeeded")
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close after sticky error reported success")
	}
}

// TestOpenAppendWithBatch: group commit composes with recovery — append
// to a recovered log under SyncBatch and replay the union.
func TestOpenAppendWithBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := Create(path, SyncEveryCommit)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(rec(1, "a", "1")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	validLen, err := Replay(path, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	w2, err := OpenAppendWith(path, validLen, Options{Policy: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(rec(2, "b", "2")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	var tns []uint64
	if _, err := Replay(path, func(r Record) error { tns = append(tns, r.TN); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(tns) != 2 || tns[0] != 1 || tns[1] != 2 {
		t.Fatalf("replayed %v, want [1 2]", tns)
	}
}
