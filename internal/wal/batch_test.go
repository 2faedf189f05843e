package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvdb/internal/faultfs"
)

func rec(tn uint64, key, val string) Record {
	return Record{TN: tn, Writes: []Write{{Key: key, Value: []byte(val)}}}
}

// replayed is OpenAppendWith's replay for a log the test already
// replayed to validLen.
func replayed(validLen int64) func() (int64, error) {
	return func() (int64, error) { return validLen, nil }
}

// TestSyncBatchRoundTrip checks that records appended concurrently under
// group commit all replay, and that every record is durable
// (fsync-covered) by the time its Append returned.
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
	if _, err := ReplayFS(faultfs.OS, path, func(r Record) error { seen[r.TN] = true; return nil }); err != nil {
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

// batchSizes is the size of every batch a writer opened by openGate has
// completed, in order, as its batch observer reported them.
type batchSizes struct {
	mu    sync.Mutex
	cond  sync.Cond
	sizes []int
}

var observed sync.Map // *Writer → *batchSizes

func (b *batchSizes) add(n int) {
	b.mu.Lock()
	b.sizes = append(b.sizes, n)
	b.mu.Unlock()
	b.cond.Broadcast()
}

// first returns the sizes of the first n batches once the observer has
// reported them: it runs after the batch's waiters are released.
func (b *batchSizes) first(n uint64) []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	for uint64(len(b.sizes)) < n {
		b.cond.Wait()
	}
	return append([]int(nil), b.sizes[:n]...)
}

// openGate opens a SyncBatch writer on an armed gate: every fsync waits
// for the test until it disarms the gate. The writer records its batch
// sizes for rode and is closed with the test.
func openGate(t *testing.T) (*Writer, *gateFS, string) {
	t.Helper()
	g := newGateFS()
	path := filepath.Join(t.TempDir(), "wal")
	w, err := CreateWith(path, Options{Policy: SyncBatch, FS: g})
	if err != nil {
		t.Fatal(err)
	}
	bs := new(batchSizes)
	bs.cond.L = &bs.mu
	observed.Store(w, bs)
	w.SetBatchObserver(bs.add)
	t.Cleanup(func() {
		observed.Delete(w)
		g.armed.Store(false)
		w.Close()
	})
	return w, g, path
}

func enqueue(t *testing.T, w *Writer, tn uint64) Ticket {
	t.Helper()
	tk, err := w.Enqueue(rec(tn, "k", "v"))
	if err != nil {
		t.Fatal(err)
	}
	return tk
}

// openHeld opens a SyncBatch writer, enqueues record 1 and returns once
// the flusher is inside the fsync that covers it alone. open releases
// that fsync and lets every later one through.
func openHeld(t *testing.T) (w *Writer, first Ticket, open func()) {
	t.Helper()
	w, g, _ := openGate(t)
	first = enqueue(t, w, 1)
	<-g.entered
	return w, first, func() {
		g.armed.Store(false)
		g.release <- struct{}{}
	}
}

// TestZeroPolicyIsDurable: a writer opened without naming a policy must
// be a durable one — its Append may not return before the fsync that
// covers it does.
func TestZeroPolicyIsDurable(t *testing.T) {
	g := newGateFS()
	w, err := CreateWith(filepath.Join(t.TempDir(), "wal"), Options{FS: g})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		g.armed.Store(false)
		w.Close()
	}()
	done := make(chan error, 1)
	go func() { done <- w.Append(rec(1, "k", "v")) }()
	select {
	case <-g.entered:
	case err := <-done:
		t.Fatalf("Append returned (%v) without an fsync: the zero SyncPolicy is not durable", err)
	}
	select {
	case err := <-done:
		t.Fatalf("Append returned (%v) while its fsync was held", err)
	case <-time.After(gatherPause):
	}
	g.release <- struct{}{}
	if err := <-done; err != nil {
		t.Fatal(err)
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
	// Close's own flush covers nothing new, so it issues no fsync.
	if appends, fsyncs, _ := w.Counters(); appends != workers+1 || fsyncs != 2 {
		t.Fatalf("appends %d fsyncs %d, want %d and 2", appends, fsyncs, workers+1)
	}
	if total.Load() != workers+1 || batches.Load() != 2 || w.Batches() != 2 {
		t.Fatalf("observer saw %d records in %d batches (counter %d), want %d in 2",
			total.Load(), batches.Load(), w.Batches(), workers+1)
	}
}

// TestSyncBatchDelayGathers checks the provenance of a gathered batch:
// ten records enqueued behind a held fsync all ride the one batch that
// carried them.
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
	rode(t, w, first, 1, 1)
	for _, tk := range tickets {
		rode(t, w, tk, 2, n)
	}
}

// gatherHold is how long the gather tests hold the fsync whose measured
// duration sets the flusher's backstop: an eighth of it (40 ms) is long
// against a scheduling hiccup of the test goroutine, and a quarter of
// that is long enough for the flusher to have parked in its gather.
const (
	gatherHold  = 320 * time.Millisecond
	gatherPause = gatherHold / 32
)

// pass lets the fsync the flusher enters next through.
func (g *gateFS) pass() {
	<-g.entered
	g.release <- struct{}{}
}

// quiet fails the test if the flusher reaches an fsync within
// gatherPause: it is parked in its gather, well inside the backstop.
func (g *gateFS) quiet(t *testing.T, why string) {
	t.Helper()
	select {
	case <-g.entered:
		g.release <- struct{}{}
		t.Fatalf("flusher fsynced %s", why)
	case <-time.After(gatherPause):
	}
}

// rode waits for ticket tk and checks that batch number batch, of
// records records, covered it; batch 0 means no batch did (an inline
// Flush got there first). Tickets count records and each batch covers
// the ones after the last, so a ticket rode the first batch whose
// running total of sizes reaches it. A writer opened by openGate only.
func rode(t *testing.T, w *Writer, tk Ticket, batch uint64, records int) {
	t.Helper()
	if err := w.Wait(tk); err != nil {
		t.Fatalf("ticket %d: %v", tk, err)
	}
	bs, _ := observed.Load(w)
	var covered uint64
	for i, n := range bs.(*batchSizes).first(w.Batches()) {
		if covered += uint64(n); uint64(tk) <= covered {
			if uint64(i+1) != batch || n != records {
				t.Fatalf("ticket %d rode batch %d of %d records; want batch %d of %d", tk, i+1, n, batch, records)
			}
			return
		}
	}
	if batch != 0 {
		t.Fatalf("ticket %d rode no batch; want batch %d of %d records", tk, batch, records)
	}
}

// openPair returns a writer whose flusher last fsynced two records
// together (2 and 3, batch 2) and took gatherHold over it: it now
// expects two committers and waits at least gatherHold/8 for the second.
// The gather that preceded that fsync expected a third record behind a
// near-instant fsync, so it may have ended on the backstop; tests
// compare GatherTimeouts against its value on return.
func openPair(t *testing.T) (*Writer, *gateFS, string) {
	t.Helper()
	w, g, path := openGate(t)
	first := enqueue(t, w, 1)
	<-g.entered // a writer's first fsync never waits: it covers record 1 alone
	pair := [2]Ticket{enqueue(t, w, 2), enqueue(t, w, 3)}
	g.release <- struct{}{}
	rode(t, w, first, 1, 1)
	<-g.entered
	time.Sleep(gatherHold)
	g.release <- struct{}{}
	for _, tk := range pair {
		rode(t, w, tk, 2, 2)
	}
	return w, g, path
}

// TestGatherWaitsForReleasedCommitter: of two committers that shared an
// fsync, the first one back does not get the next fsync to itself — the
// flusher waits for the second.
func TestGatherWaitsForReleasedCommitter(t *testing.T) {
	w, g, _ := openPair(t)
	timeouts := w.GatherTimeouts()
	a := enqueue(t, w, 4)
	g.quiet(t, "for the first committer back, without waiting for the second")
	b := enqueue(t, w, 5)
	g.pass()
	rode(t, w, a, 3, 2)
	rode(t, w, b, 3, 2)
	if got := w.GatherTimeouts(); got != timeouts {
		t.Fatalf("gather timeouts %d → %d: the gather ended on the count", timeouts, got)
	}
}

// TestGatherHealsAlternation: one record covered and one enqueued while
// the fsync ran is the alternating regime (every fsync end finds exactly
// one pending record). The next fsync waits for the committer just
// released and covers two.
func TestGatherHealsAlternation(t *testing.T) {
	w, g, _ := openGate(t)
	a := enqueue(t, w, 1)
	<-g.entered
	b := enqueue(t, w, 2)
	time.Sleep(gatherHold)
	g.release <- struct{}{}
	rode(t, w, a, 1, 1)
	g.quiet(t, "for the record enqueued behind it, without waiting for the committer it released")
	a = enqueue(t, w, 3)
	g.pass()
	rode(t, w, b, 2, 2)
	rode(t, w, a, 2, 2)
	if got := w.GatherTimeouts(); got != 0 {
		t.Fatalf("gather timeouts = %d, want 0", got)
	}
}

// TestGatherMissingCommitterCostsOneBound: a committer that never
// returns delays one fsync by an eighth of the last one and is then
// forgotten.
func TestGatherMissingCommitterCostsOneBound(t *testing.T) {
	w, g, _ := openPair(t)
	timeouts := w.GatherTimeouts()
	start := time.Now()
	a := enqueue(t, w, 4)
	<-g.entered
	waited := time.Since(start)
	g.release <- struct{}{}
	if waited < gatherHold/8 || waited > gatherHold/2 {
		t.Fatalf("lone record fsynced after %v, want the backstop (%v, an eighth of the %v fsync before it)",
			waited, gatherHold/8, gatherHold)
	}
	rode(t, w, a, 3, 1)
	if got := w.GatherTimeouts(); got != timeouts+1 {
		t.Fatalf("gather timeouts %d → %d, want one more", timeouts, got)
	}
	// The expectation is what arrived: one committer, so no gather.
	a = enqueue(t, w, 5)
	g.pass()
	rode(t, w, a, 4, 1)
	if got := w.GatherTimeouts(); got != timeouts+1 {
		t.Fatalf("gather timeouts %d → %d: the next lone record waited too", timeouts+1, got)
	}
}

// TestGatherSingleCommitterNeverWaits: a writer's first fsync and a
// lone closed-loop committer's fsyncs start at once, however long the
// previous one took — a gather with nobody to arrive could only have
// ended on the backstop.
func TestGatherSingleCommitterNeverWaits(t *testing.T) {
	w, g, _ := openGate(t)
	for tn := uint64(1); tn <= 4; tn++ {
		tk := enqueue(t, w, tn)
		<-g.entered
		if tn == 1 {
			time.Sleep(gatherHold) // a backstop of gatherHold/8 for whoever would wait
		}
		g.release <- struct{}{}
		rode(t, w, tk, tn, 1)
	}
	if got := w.GatherTimeouts(); got != 0 {
		t.Fatalf("gather timeouts = %d, want 0", got)
	}
}

// TestGatherCloseEndsGather: Close does not sit out a gather's backstop,
// still drains what is pending, and leaves the timer stopped.
func TestGatherCloseEndsGather(t *testing.T) {
	w, g, path := openPair(t)
	timeouts := w.GatherTimeouts()
	a := enqueue(t, w, 4)
	g.quiet(t, "for the first committer back, without waiting for the second")
	g.armed.Store(false)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := w.GatherTimeouts(); got != timeouts {
		t.Fatalf("gather timeouts %d → %d: Close sat out the backstop", timeouts, got)
	}
	if w.gatherTimer.Stop() {
		t.Fatal("Close left the gather timer armed")
	}
	rode(t, w, a, 3, 1)
	var tns []uint64
	if _, err := ReplayFS(faultfs.OS, path, func(r Record) error { tns = append(tns, r.TN); return nil }); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(tns) != "[1 2 3 4]" {
		t.Fatalf("replayed %v, want [1 2 3 4]", tns)
	}
}

// TestGatherStickyErrorEndsGather: a writer that breaks while the
// flusher is gathering releases the waiter with the error at once, and
// the flusher exits.
func TestGatherStickyErrorEndsGather(t *testing.T) {
	w, g, _ := openPair(t)
	timeouts := w.GatherTimeouts()
	a := enqueue(t, w, 4)
	g.quiet(t, "for the first committer back, without waiting for the second")
	g.armed.Store(false)
	w.f.Close() // sabotage, raised by the inline Flush below
	if err := w.Flush(); err == nil {
		t.Fatal("Flush succeeded on a closed file")
	}
	if err := w.Wait(a); err == nil {
		t.Fatal("Wait acknowledged a record the log could not sync")
	}
	<-w.flusherDone
	if got := w.GatherTimeouts(); got != timeouts {
		t.Fatalf("gather timeouts %d → %d: the flusher sat out the backstop on a broken writer", timeouts, got)
	}
	if w.gatherTimer.Stop() {
		t.Fatal("the flusher exited with the gather timer armed")
	}
}

// TestFsyncsCountsOvertakenSync: Counters' fsyncs are fsyncs issued,
// Batches the ones that covered something. An inline Flush that
// overtakes a held flusher fsync leaves the flusher's covering nothing
// new; it was issued all the same.
func TestFsyncsCountsOvertakenSync(t *testing.T) {
	w, g, _ := openGate(t)
	a := enqueue(t, w, 1)
	<-g.entered
	g.armed.Store(false) // only the flusher's fsync is held
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rode(t, w, a, 0, 0) // the inline fsync covered it: no batch
	g.release <- struct{}{}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// The flusher's and Flush's; Close's flush covers nothing and
	// issues none.
	if _, fsyncs, _ := w.Counters(); fsyncs != 2 || w.Batches() != 0 {
		t.Fatalf("fsyncs %d batches %d, want 2 and 0", fsyncs, w.Batches())
	}
}

// TestEnqueueAllocatesNothing: Enqueue encodes into the open batch's
// buffer — here the two-write record the benchmark's durable workloads
// log. Under SyncNever the buffer grows past maxBuffered and stays; under
// SyncBatch each Append is a batch of its own, and once the first has
// sized the buffer every later one reuses it, the flusher's write and
// fsync included.
func TestEnqueueAllocatesNothing(t *testing.T) {
	r := Record{TN: 1, Writes: []Write{
		{Key: "key-00000001", Value: make([]byte, 64)},
		{Key: "key-00000002", Value: make([]byte, 64)},
	}}
	for _, tc := range []struct {
		name   string
		policy SyncPolicy
	}{{"SyncNever", SyncNever}, {"SyncBatch", SyncBatch}} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := CreateWith(filepath.Join(t.TempDir(), "wal"), Options{Policy: tc.policy})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			// Past the buffer's growth: under SyncNever, two writes of it.
			for tc.policy == SyncNever && w.Size() < 2*maxBuffered {
				if err := w.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			if n := testing.AllocsPerRun(200, func() {
				if err := w.Append(r); err != nil {
					t.Fatal(err)
				}
			}); n > 0 {
				t.Fatalf("Append allocates %v times per record, want 0", n)
			}
		})
	}
}

// TestBufferFollowsTheBatch: the writer keeps a buffer only as large as
// the batches it writes. A bulk load's 40 kB record grows it; the small
// batches after it let it go, and it settles at their size.
func TestBufferFollowsTheBatch(t *testing.T) {
	w, err := CreateWith(filepath.Join(t.TempDir(), "wal"), Options{Policy: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(Record{TN: 1, Writes: []Write{{Key: "bulk", Value: make([]byte, 40<<10)}}}); err != nil {
		t.Fatal(err)
	}
	for i := range 100 {
		if err := w.Append(rec(uint64(i+2), "k", "v")); err != nil {
			t.Fatal(err)
		}
	}
	if c := w.bufferCap(); c > 4<<10 {
		t.Fatalf("after 100 small batches the writer holds a %d-byte buffer, want at most 4 KiB", c)
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
	if _, err := ReplayFS(faultfs.OS, path, func(Record) error { count++; return nil }); err != nil {
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
	w, err := CreateWith(path, Options{Policy: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(rec(1, "a", "1")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenAppendWith(path, Options{Policy: SyncBatch}, func() (int64, error) {
		return ReplayFS(faultfs.OS, path, func(Record) error { return nil })
	})
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
	if _, err := ReplayFS(faultfs.OS, path, func(r Record) error { tns = append(tns, r.TN); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(tns) != 2 || tns[0] != 1 || tns[1] != 2 {
		t.Fatalf("replayed %v, want [1 2]", tns)
	}
}
