package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"mvdb/internal/faultfs"
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

// gateFS is the real filesystem with a log fsync a test can hold: while
// armed, every Sync announces itself on entered and then blocks until
// the test sends on release. What is enqueued while an fsync is held is
// exactly the next batch, so a batch of N is a fact, not a timing.
type gateFS struct {
	faultfs.FS
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func newGateFS() *gateFS {
	g := &gateFS{FS: faultfs.OS, entered: make(chan struct{}), release: make(chan struct{})}
	g.armed.Store(true)
	return g
}

func (g *gateFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, g: g}, nil
}

type gateFile struct {
	faultfs.File
	g *gateFS
}

func (f *gateFile) Sync() error {
	if f.g.armed.Load() {
		f.g.entered <- struct{}{}
		<-f.g.release
	}
	return f.File.Sync()
}

// openHeld opens a SyncBatch writer, enqueues record 1 and returns once
// the flusher is inside the fsync that covers it alone. open releases
// that fsync and lets every later one through.
func openHeld(t *testing.T) (w *Writer, first Ticket, open func()) {
	t.Helper()
	g := newGateFS()
	w, err := CreateWith(filepath.Join(t.TempDir(), "wal"), Options{Policy: SyncBatch, FS: g})
	if err != nil {
		t.Fatal(err)
	}
	if first, err = w.Enqueue(rec(1, "k", "v")); err != nil {
		t.Fatal(err)
	}
	<-g.entered
	return w, first, func() {
		g.armed.Store(false)
		g.release <- struct{}{}
	}
}

// TestSyncBatchAmortizes requires that group commit groups: eight
// committers that arrive while an fsync is in flight share the next one.
func TestSyncBatchAmortizes(t *testing.T) {
	w, _, open := openHeld(t)
	var total, batches atomic.Int64
	w.SetBatchObserver(func(n int) {
		batches.Add(1)
		total.Add(int64(n))
	})
	const workers = 8
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if err := w.Append(rec(uint64(g+2), "k", "v")); err != nil {
				t.Error(err)
			}
		}(g)
	}
	for {
		if appends, _, _ := w.Counters(); appends == workers+1 {
			break
		}
		runtime.Gosched()
	}
	open()
	wg.Wait()
	// The flusher reports a batch after releasing its waiters; Close
	// waits for the flusher, so the observer has seen every batch.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Close's own flush is the third fsync; it covers nothing new.
	if appends, fsyncs, _ := w.Counters(); appends != workers+1 || fsyncs != 3 {
		t.Fatalf("appends %d fsyncs %d, want %d and 3", appends, fsyncs, workers+1)
	}
	if total.Load() != workers+1 || batches.Load() != 2 || w.Batches() != 2 {
		t.Fatalf("observer saw %d records in %d batches (counter %d), want %d in 2",
			total.Load(), batches.Load(), w.Batches(), workers+1)
	}
}

// TestSyncBatchDelayGathers checks the provenance of a gathered batch:
// ten records enqueued behind a held fsync all report the one batch that
// carried them, led by the first of them.
func TestSyncBatchDelayGathers(t *testing.T) {
	w, first, open := openHeld(t)
	defer w.Close()
	const n = 10
	var tickets [n]Ticket
	for i := range tickets {
		var err error
		if tickets[i], err = w.Enqueue(rec(uint64(i+2), "k", "v")); err != nil {
			t.Fatal(err)
		}
	}
	open()
	if bi, err := w.Wait(first); err != nil || bi != (BatchInfo{Batch: 1, LeaderTN: 1, Records: 1}) {
		t.Fatalf("held record rode %+v, %v", bi, err)
	}
	for _, tk := range tickets {
		if bi, err := w.Wait(tk); err != nil || bi != (BatchInfo{Batch: 2, LeaderTN: 2, Records: n}) {
			t.Fatalf("ticket %d rode %+v, %v; want batch 2 led by tn 2 with %d records", tk, bi, err, n)
		}
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
