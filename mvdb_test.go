package mvdb

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvdb/internal/faultfs"
)

func allProtocols() []Protocol {
	return []Protocol{TwoPhaseLocking, TimestampOrdering, Optimistic}
}

func TestOpenCloseAllProtocols(t *testing.T) {
	for _, p := range allProtocols() {
		db, err := Open(Options{Protocol: p})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err) // idempotent
		}
	}
}

func TestUpdateAndView(t *testing.T) {
	for _, p := range allProtocols() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			db, err := Open(Options{Protocol: p})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()

			if err := db.Update(func(tx *Tx) error {
				return tx.PutString("k", "v1")
			}); err != nil {
				t.Fatal(err)
			}
			var got string
			if err := db.View(func(tx *Tx) error {
				var err error
				got, err = tx.GetString("k")
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if got != "v1" {
				t.Fatalf("got %q", got)
			}
		})
	}
}

func TestViewErrorAborts(t *testing.T) {
	db, _ := Open(Options{})
	defer db.Close()
	sentinel := errors.New("boom")
	if err := db.View(func(*Tx) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
}

// A panic in fn aborts the transaction on the panic's way out. Without
// that, a panicking Update left 2PL's lock or T/O's pending version on
// the key it wrote, and the next Update of that key waited forever; a
// panicking View left its snapshot published, holding collection at it
// for good.
func TestPanicInFnAbortsTheTransaction(t *testing.T) {
	for _, p := range allProtocols() {
		t.Run(p.String(), func(t *testing.T) {
			db, err := Open(Options{Protocol: p})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			mustPanic := func(what string, run func()) {
				t.Helper()
				defer func() {
					if r := recover(); r != "boom" {
						t.Fatalf("%s: recovered %v, want the panic of fn", what, r)
					}
				}()
				run()
			}
			mustPanic("Update", func() {
				db.Update(func(tx *Tx) error {
					if err := tx.PutString("k", "1"); err != nil {
						return err
					}
					panic("boom")
				})
			})
			mustPanic("View", func() {
				db.View(func(tx *Tx) error {
					tx.Get("k")
					panic("boom")
				})
			})
			done := make(chan error, 1)
			go func() { done <- db.Update(func(tx *Tx) error { return tx.PutString("k", "2") }) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("an Update of the key a panicking Update wrote is still waiting after 5s")
			}
			if sn, open := db.eng.MinActiveReadOnlySN(); open {
				t.Fatalf("a snapshot at %d is still published after the panicking View", sn)
			}
		})
	}
}

// View recycles its transaction object; the Begin* methods' handles are
// never recycled, so one that was committed still says so after many
// Views have come and gone.
func TestBeginReadOnlyHandleOutlivesRecycledViews(t *testing.T) {
	db, _ := Open(Options{})
	defer db.Close()
	if err := db.Update(func(tx *Tx) error { return tx.PutString("k", "v") }); err != nil {
		t.Fatal(err)
	}
	begins := map[string]func() (*Tx, error){
		"BeginReadOnly":       db.BeginReadOnly,
		"BeginReadOnlyRecent": db.BeginReadOnlyRecent,
		"BeginReadOnlyAt":     func() (*Tx, error) { return db.BeginReadOnlyAt(1) },
	}
	for name, begin := range begins {
		ro, err := begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := ro.Commit(); err != nil {
			t.Fatal(err)
		}
		for range 1000 {
			if err := db.View(func(tx *Tx) error { _, err := tx.Get("k"); return err }); err != nil {
				t.Fatal(err)
			}
		}
		if err := ro.Commit(); !errors.Is(err, ErrTxDone) {
			t.Errorf("%s: second Commit after 1000 Views = %v, want ErrTxDone", name, err)
		}
		if _, err := ro.Get("k"); !errors.Is(err, ErrTxDone) {
			t.Errorf("%s: Get after Commit and 1000 Views = %v, want ErrTxDone", name, err)
		}
	}
}

// The Update twin of TestPanicInFnAbortsTheTransaction: a panicking fn's
// transaction is aborted on the panic's way out and its struct dropped,
// not recycled. A caller that recovers may still hold it: it stays done,
// and no later Update begins in it.
func TestPanicInUpdateDropsItsTransaction(t *testing.T) {
	for _, p := range allProtocols() {
		t.Run(p.String(), func(t *testing.T) {
			db, err := Open(Options{Protocol: p})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			var panicked *Tx
			func() {
				defer func() {
					if r := recover(); r != "boom" {
						t.Fatalf("recovered %v, want the panic of fn", r)
					}
				}()
				db.Update(func(tx *Tx) error {
					panicked = tx
					if err := tx.PutString("k", "1"); err != nil {
						return err
					}
					panic("boom")
				})
			}()
			for range 1000 {
				if err := db.Update(func(tx *Tx) error {
					if tx == panicked {
						return errors.New("an Update began in the transaction a panicking fn left")
					}
					return tx.PutString("k", "2")
				}); err != nil {
					t.Fatal(err)
				}
			}
			if err := panicked.Commit(); !errors.Is(err, ErrTxDone) {
				t.Errorf("Commit of the panicked transaction after 1000 Updates = %v, want ErrTxDone", err)
			}
			if _, err := panicked.Get("k"); !errors.Is(err, ErrTxDone) {
				t.Errorf("Get on the panicked transaction after 1000 Updates = %v, want ErrTxDone", err)
			}
		})
	}
}

// The Update twin of TestBeginReadOnlyHandleOutlivesRecycledViews: Update
// recycles its transaction struct, Begin's handles are never recycled, so
// one that was committed still says so after many Updates have come and
// gone, and no Update begins in it.
func TestBeginHandleOutlivesRecycledUpdates(t *testing.T) {
	for _, p := range allProtocols() {
		t.Run(p.String(), func(t *testing.T) {
			db, err := Open(Options{Protocol: p})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			rw, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := rw.PutString("k", "v"); err != nil {
				t.Fatal(err)
			}
			if err := rw.Commit(); err != nil {
				t.Fatal(err)
			}
			for range 1000 {
				if err := db.Update(func(tx *Tx) error {
					if tx == rw {
						return errors.New("an Update began in a Begin handle")
					}
					return tx.PutString("k", "w")
				}); err != nil {
					t.Fatal(err)
				}
			}
			if err := rw.Commit(); !errors.Is(err, ErrTxDone) {
				t.Errorf("second Commit after 1000 Updates = %v, want ErrTxDone", err)
			}
			if _, err := rw.Get("k"); !errors.Is(err, ErrTxDone) {
				t.Errorf("Get after Commit and 1000 Updates = %v, want ErrTxDone", err)
			}
		})
	}
}

// A View whose fn fails is recycled like one that succeeds: were it not,
// each would allocate its transaction.
func TestViewRecycledAfterError(t *testing.T) {
	db, _ := Open(Options{})
	defer db.Close()
	sentinel := errors.New("no")
	if n := testing.AllocsPerRun(200, func() {
		if err := db.View(func(*Tx) error { return sentinel }); err != sentinel {
			t.Fatalf("View = %v, want fn's error", err)
		}
	}); n != 0 {
		t.Errorf("failing View allocs/op = %.1f, want 0", n)
	}
	if sn, open := db.eng.MinActiveReadOnlySN(); open {
		t.Fatalf("a snapshot at %d is still published", sn)
	}
}

// A recycled View starts afresh: it reads at vtnc as of its begin,
// publishes that number while it runs, and sees the last commit — never
// its previous use's snapshot.
func TestRecycledViewReadsItsOwnSnapshot(t *testing.T) {
	for _, p := range allProtocols() {
		t.Run(p.String(), func(t *testing.T) {
			db, _ := Open(Options{Protocol: p})
			defer db.Close()
			for i := range 100 {
				want := fmt.Sprint(i)
				if err := db.Update(func(tx *Tx) error { return tx.PutString("k", want) }); err != nil {
					t.Fatal(err)
				}
				vtnc := db.eng.VTNC() // strict: the Update above is visible on return
				err := db.View(func(tx *Tx) error {
					if tn, ok := tx.TN(); !ok || tn != vtnc {
						return fmt.Errorf("TN() = (%d, %v), want vtnc %d", tn, ok, vtnc)
					}
					if sn, open := db.eng.MinActiveReadOnlySN(); !open || sn != vtnc {
						return fmt.Errorf("published (%d, %v), want %d", sn, open, vtnc)
					}
					if got, err := tx.GetString("k"); err != nil || got != want {
						return fmt.Errorf("Get = (%q, %v), want %q", got, err, want)
					}
					return nil
				})
				if err != nil {
					t.Fatalf("View %d: %v", i, err)
				}
			}
		})
	}
}

// Views recycled across goroutines race collection — installs,
// CollectGarbage passes and checkpoints — and must each read one
// consistent snapshot no older than the last one their goroutine read.
func TestViewsRaceCollectionAndCheckpoint(t *testing.T) {
	db, err := Open(Options{WALPath: filepath.Join(t.TempDir(), "db.log")})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	write := func(i int) error {
		return db.Update(func(tx *Tx) error {
			if err := tx.PutString("a", fmt.Sprint(i)); err != nil {
				return err
			}
			return tx.PutString("b", fmt.Sprint(i))
		})
	}
	if err := write(0); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var bg sync.WaitGroup
	var checkpoints atomic.Int64
	bg.Add(2)
	go func() {
		defer bg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := write(i); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			db.CollectGarbage()
			if err := db.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
			checkpoints.Add(1)
		}
	}()
	var readers sync.WaitGroup
	for range 4 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last uint64
			for i := 0; i < 200 || (checkpoints.Load() < 3 && !t.Failed()); i++ {
				err := db.View(func(tx *Tx) error {
					sn, _ := tx.TN()
					if sn < last {
						return fmt.Errorf("snapshot %d after %d", sn, last)
					}
					last = sn
					a, err := tx.GetString("a")
					if err != nil {
						return err
					}
					runtime.Gosched()
					b, err := tx.GetString("b")
					if err != nil {
						return err
					}
					if a != b {
						return fmt.Errorf("torn snapshot %d: a=%s b=%s", sn, a, b)
					}
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	bg.Wait()
	if sn, open := db.eng.MinActiveReadOnlySN(); open {
		t.Fatalf("a snapshot at %d is still published", sn)
	}
}

func TestUpdateRetriesConflicts(t *testing.T) {
	db, err := Open(Options{Protocol: TimestampOrdering})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Update(func(tx *Tx) error { return tx.PutString("n", "0") }); err != nil {
		t.Fatal(err)
	}

	// Counter increments from many goroutines: timestamp ordering aborts
	// late writers constantly; Update must retry them to completion.
	const workers, each = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				err := db.Update(func(tx *Tx) error {
					v, err := tx.Get("n")
					if err != nil {
						return err
					}
					return tx.Put("n", []byte(fmt.Sprintf("%d", mustAtoi(v)+1)))
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	var final string
	db.View(func(tx *Tx) error { final, _ = tx.GetString("n"); return nil })
	if final != fmt.Sprintf("%d", workers*each) {
		t.Fatalf("counter = %s, want %d", final, workers*each)
	}
}

func mustAtoi(b []byte) int {
	n := 0
	for _, c := range b {
		n = n*10 + int(c-'0')
	}
	return n
}

func TestDeleteAndNotFound(t *testing.T) {
	db, _ := Open(Options{})
	defer db.Close()
	if err := db.View(func(tx *Tx) error {
		_, err := tx.Get("missing")
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("err = %v", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	db.Update(func(tx *Tx) error { return tx.PutString("k", "v") })
	db.Update(func(tx *Tx) error { return tx.Delete("k") })
	db.View(func(tx *Tx) error {
		if _, err := tx.Get("k"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("post-delete err = %v", err)
		}
		return nil
	})
}

func TestReadOnlyTxRejectsWrites(t *testing.T) {
	db, _ := Open(Options{})
	defer db.Close()
	tx, _ := db.BeginReadOnly()
	if !tx.ReadOnly() {
		t.Fatal("ReadOnly() = false")
	}
	if err := tx.PutString("a", "b"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("err = %v", err)
	}
	tx.Commit()
}

func TestReadYourWritesViaTN(t *testing.T) {
	db, _ := Open(Options{Protocol: TwoPhaseLocking})
	defer db.Close()
	tx, _ := db.Begin()
	tx.PutString("mine", "yes")
	if _, ok := tx.TN(); ok {
		t.Fatal("2PL tx has TN before commit")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tn, ok := tx.TN()
	if !ok {
		t.Fatal("no TN after commit")
	}
	ro, err := db.BeginReadOnlyAt(tn)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := ro.GetString("mine"); err != nil || v != "yes" {
		t.Fatalf("read-your-writes got (%q,%v)", v, err)
	}
	ro.Commit()
}

func TestBeginReadOnlyRecent(t *testing.T) {
	db, _ := Open(Options{})
	defer db.Close()
	db.Update(func(tx *Tx) error { return tx.PutString("x", "1") })
	ro, err := db.BeginReadOnlyRecent()
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := ro.GetString("x"); v != "1" {
		t.Fatalf("recent snapshot got %q", v)
	}
	ro.Commit()
}

func TestDurabilityAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.log")
	db, err := Open(Options{WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := db.Update(func(tx *Tx) error {
			return tx.PutString("k", fmt.Sprintf("v%d", i))
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	var got string
	db2.View(func(tx *Tx) error { got, _ = tx.GetString("k"); return nil })
	if got != "v4" {
		t.Fatalf("recovered %q, want v4", got)
	}
	// And it keeps accepting writes.
	if err := db2.Update(func(tx *Tx) error { return tx.PutString("k", "v5") }); err != nil {
		t.Fatal(err)
	}
}

// A database with a WALPath acknowledges a commit only once an fsync
// covers its record: a power cut right after Update returns loses
// nothing. Before, a WALPath alone logged under wal.SyncNever, and the
// cut took every commit with it.
func TestWALPathAloneIsDurable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "commit.log")
	cut := filepath.Join(dir, "power-cut")
	fs := faultfs.New(faultfs.Plan{Rules: []faultfs.Rule{{Op: faultfs.OpCreate, Path: cut, Fault: faultfs.Fault{Crash: true}}}})
	db, err := Open(Options{WALPath: path, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 3 {
		if err := db.Update(func(tx *Tx) error { return tx.PutString("k", fmt.Sprint(i)) }); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fs.OpenFile(cut, os.O_CREATE|os.O_WRONLY, 0o644); !errors.Is(err, faultfs.ErrCrashed) {
		t.Fatalf("power cut: %v, want ErrCrashed", err)
	}
	db.Close() // the log fails: the filesystem is gone
	if err := fs.ApplyCrash(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(Options{WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.View(func(tx *Tx) error {
		if v, err := tx.GetString("k"); err != nil || v != "2" {
			t.Fatalf("after the power cut k = (%q, %v), want the last acknowledged 2", v, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// gateFS is the real filesystem with an fsync a test can hold (the
// pattern of internal/core/pipeline_test.go): once armed, every Sync
// announces itself on entered and blocks until the test sends on release.
// Commit records enqueued while the log's fsync is held share the next
// one, so a multi-record group-commit batch is a fact, not a timing.
type gateFS struct {
	faultfs.FS
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func newGateFS() *gateFS {
	return &gateFS{FS: faultfs.OS, entered: make(chan struct{}), release: make(chan struct{})}
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

// pileUp waits for the log fsync the armed gate is holding, keeps it held
// until n commit records are in the log, then lets it and every later
// fsync through.
func (g *gateFS) pileUp(db *DB, n int64) {
	<-g.entered
	for {
		if db.Stats().WALAppends >= n {
			break
		}
		runtime.Gosched()
	}
	g.armed.Store(false)
	g.release <- struct{}{}
}

func TestGroupCommitEndToEnd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.log")
	gate := newGateFS()
	db, err := Open(Options{
		WALPath: path,
		FS:      gate,
	})
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 20
	gate.armed.Store(true)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := fmt.Sprintf("k%d", (w*per+i)%32)
				if err := db.Update(func(tx *Tx) error {
					return tx.PutString(key, fmt.Sprintf("%d-%d", w, i))
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Every worker's first commit is in the log before the first fsync
	// returns: at most two fsyncs cover those eight records.
	gate.pileUp(db, workers)
	wg.Wait()
	st := db.Stats()
	if st.WALAppends != workers*per {
		t.Fatalf("wal appends = %d, want %d", st.WALAppends, workers*per)
	}
	if st.WALFsyncs >= st.WALAppends {
		t.Fatalf("group commit did not amortize: %d fsyncs for %d appends", st.WALFsyncs, st.WALAppends)
	}
	if st.WALBatches == 0 || st.WALBatchSize.Count == 0 {
		t.Fatalf("batch gauges empty: batches=%d sizes=%d", st.WALBatches, st.WALBatchSize.Count)
	}
	if st.WALFsyncPerAppend <= 0 || st.WALFsyncPerAppend >= 1 {
		t.Fatalf("fsync/append ratio = %v, want in (0,1)", st.WALFsyncPerAppend)
	}
	if st.LockStripes != 32 {
		t.Fatalf("lock stripes = %d, want the default 32", st.LockStripes)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Every acknowledged commit must survive reopen.
	db2, err := Open(Options{WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	count := 0
	db2.View(func(tx *Tx) error {
		return tx.Scan("k", func(string, []byte) bool { count++; return true })
	})
	if count != 32 {
		t.Fatalf("recovered %d keys, want 32", count)
	}
}

// Commits collect as they install, without a pass, but never a version
// an open snapshot reads; what they drop counts as reclaimed.
func TestGCKeepsSnapshotsReadable(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	db.Update(func(tx *Tx) error { return tx.PutString("k", "first") })
	old, _ := db.BeginReadOnly()
	for i := 0; i < 200; i++ {
		db.Update(func(tx *Tx) error { return tx.PutString("k", fmt.Sprintf("v%d", i)) })
	}
	if v, err := old.GetString("k"); err != nil || v != "first" {
		t.Fatalf("old snapshot got (%q,%v), want first", v, err)
	}
	old.Commit()
	for i := 200; i < 400; i++ {
		db.Update(func(tx *Tx) error { return tx.PutString("k", fmt.Sprintf("v%d", i)) })
	}
	st := db.Stats()
	if st.GCPasses != 0 || st.GCReclaimed < 200 {
		t.Fatalf("after 400 commits and no pass: %d passes, %d reclaimed; want 0 and >= 200", st.GCPasses, st.GCReclaimed)
	}
	if st.Versions > 200 {
		t.Fatalf("%d versions retained of one key", st.Versions)
	}
	db.CollectGarbage()
	db.View(func(tx *Tx) error {
		if v, _ := tx.GetString("k"); v != "v399" {
			t.Fatalf("latest = %q", v)
		}
		return nil
	})
}

// An open View holds collection off what it reads, under every protocol:
// a CollectGarbage pass and the installs of later commits both leave it
// its old value.
func TestOpenSnapshotSurvivesCollection(t *testing.T) {
	for _, p := range allProtocols() {
		t.Run(p.String(), func(t *testing.T) {
			db, _ := Open(Options{Protocol: p})
			defer db.Close()
			db.Update(func(tx *Tx) error { return tx.PutString("x", "old") })
			read := func(tx *Tx, where string) {
				t.Helper()
				if v, err := tx.GetString("x"); err != nil || v != "old" {
					t.Fatalf("Get %s = (%q, %v), want old", where, v, err)
				}
				n := 0
				if err := tx.Scan("", func(string, []byte) bool { n++; return true }); err != nil || n != 1 {
					t.Fatalf("Scan %s = (%d keys, %v), want 1 key", where, n, err)
				}
			}
			err := db.View(func(tx *Tx) error {
				db.Update(func(tx *Tx) error { return tx.PutString("x", "new") })
				if n := db.CollectGarbage(); n != 0 {
					t.Fatalf("CollectGarbage = %d under an open snapshot, want 0", n)
				}
				read(tx, "after CollectGarbage")
				for i := 0; i < 64; i++ {
					db.Update(func(tx *Tx) error { return tx.PutString("x", fmt.Sprint(i)) })
				}
				read(tx, "after 64 installs")
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if n := db.CollectGarbage(); n != 65 {
				t.Fatalf("CollectGarbage after the View = %d, want 65", n)
			}
			db.View(func(tx *Tx) error {
				if v, err := tx.GetString("x"); err != nil || v != "63" {
					t.Fatalf("fresh snapshot got (%q, %v), want 63", v, err)
				}
				return nil
			})
		})
	}
}

// A snapshot pinned below what collection already dropped reads
// ErrSnapshotTooOld, while a key nothing was dropped of still reads at
// that position.
func TestBeginReadOnlyAtBelowPrunedHorizon(t *testing.T) {
	db, _ := Open(Options{})
	defer db.Close()
	var first uint64
	for _, v := range []string{"v1", "v2", "v3"} {
		tx, _ := db.Begin()
		tx.PutString("x", v)
		if v == "v1" {
			tx.PutString("y", "only")
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if first == 0 {
			first, _ = tx.TN()
		}
	}
	// x's array held two versions when v3 came: that install dropped v1,
	// and the pass v2.
	if n := db.CollectGarbage(); n != 1 {
		t.Fatalf("CollectGarbage = %d, want 1", n)
	}
	if n := db.Stats().GCReclaimed; n != 2 {
		t.Fatalf("GCReclaimed = %d, want 2", n)
	}
	ro, err := db.BeginReadOnlyAt(first)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Commit()
	if v, err := ro.GetString("x"); !errors.Is(err, ErrSnapshotTooOld) {
		t.Fatalf("Get(x) at %d = (%q, %v), want ErrSnapshotTooOld", first, v, err)
	}
	if err := ro.Scan("", func(string, []byte) bool { return true }); !errors.Is(err, ErrSnapshotTooOld) {
		t.Fatalf("Scan at %d = %v, want ErrSnapshotTooOld", first, err)
	}
	if IsRetryable(ErrSnapshotTooOld) {
		t.Fatal("ErrSnapshotTooOld is retryable")
	}
	if v, err := ro.GetString("y"); err != nil || v != "only" {
		t.Fatalf("Get(y) at %d = (%q, %v), want only", first, v, err)
	}
}

func TestSnapshotIsolationUnderConcurrentWrites(t *testing.T) {
	for _, p := range allProtocols() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			db, _ := Open(Options{Protocol: p})
			defer db.Close()
			db.Update(func(tx *Tx) error {
				tx.PutString("a", "0")
				return tx.PutString("b", "0")
			})
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				i := 0
				for {
					select {
					case <-stop:
						return
					default:
					}
					i++
					v := fmt.Sprintf("%d", i)
					db.Update(func(tx *Tx) error {
						if err := tx.PutString("a", v); err != nil {
							return err
						}
						return tx.PutString("b", v)
					})
				}
			}()
			// Snapshot readers must always see a == b.
			for i := 0; i < 300; i++ {
				db.View(func(tx *Tx) error {
					a, _ := tx.GetString("a")
					b, _ := tx.GetString("b")
					if a != b {
						t.Errorf("torn snapshot: a=%q b=%q", a, b)
					}
					return nil
				})
			}
			close(stop)
			wg.Wait()
		})
	}
}

func TestVisibilityLagExposed(t *testing.T) {
	db, _ := Open(Options{Protocol: TimestampOrdering})
	defer db.Close()
	if db.VisibilityLag() != 0 {
		t.Fatal("fresh db has lag")
	}
	tx, _ := db.Begin() // registers at begin under T/O
	tx.PutString("x", "1")
	if db.VisibilityLag() == 0 {
		t.Fatal("active registered txn should create lag")
	}
	tx.Commit()
	if db.VisibilityLag() != 0 {
		t.Fatal("lag after commit")
	}
}

func TestStatsVocabulary(t *testing.T) {
	db, _ := Open(Options{})
	defer db.Close()
	db.Update(func(tx *Tx) error { return tx.PutString("k", "v") })
	db.View(func(tx *Tx) error { _, err := tx.Get("k"); return err })
	st := db.Stats()
	if st.CommitsRW != 1 || st.CommitsRO != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestScanSnapshot(t *testing.T) {
	db, _ := Open(Options{})
	defer db.Close()
	db.Update(func(tx *Tx) error {
		for i := 0; i < 10; i++ {
			if err := tx.PutString(fmt.Sprintf("user/%02d", i), fmt.Sprintf("u%d", i)); err != nil {
				return err
			}
		}
		return tx.PutString("other/x", "nope")
	})
	db.Update(func(tx *Tx) error { return tx.Delete("user/03") })

	ro, _ := db.BeginReadOnly()
	var keys []string
	if err := ro.Scan("user/", func(k string, v []byte) bool {
		keys = append(keys, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	ro.Commit()
	if len(keys) != 9 {
		t.Fatalf("scanned %d keys, want 9 (tombstone skipped): %v", len(keys), keys)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("scan not ordered: %v", keys)
		}
	}

	// Scans are snapshot-stable: concurrent writes do not appear.
	ro2, _ := db.BeginReadOnly()
	db.Update(func(tx *Tx) error { return tx.PutString("user/99", "late") })
	n := 0
	ro2.Scan("user/", func(string, []byte) bool { n++; return true })
	ro2.Commit()
	if n != 9 {
		t.Fatalf("snapshot scan saw %d keys, want 9", n)
	}

	// Early stop.
	ro3, _ := db.BeginReadOnly()
	n = 0
	ro3.Scan("user/", func(string, []byte) bool { n++; return n < 3 })
	ro3.Commit()
	if n != 3 {
		t.Fatalf("early stop visited %d", n)
	}

	// Read-write transactions do not support Scan.
	rw, _ := db.Begin()
	if err := rw.Scan("user/", func(string, []byte) bool { return true }); err == nil {
		t.Fatal("rw Scan succeeded")
	}
	rw.Abort()
}

// TestDurableUpdateAllocations is the allocation budget of the
// benchmark's transaction shape, a two-key read-modify-write made durable
// by group commit: the two values it writes and nothing else — not the
// transaction, which Update recycles (TestDisabledZeroOverhead), nothing
// per lock, nothing for the write set or its log record, and nothing for
// the version chains of its two keys, which collection at install keeps
// in the arrays they have. (19 in all before the lock table, the write
// set and Enqueue stopped allocating per key; 6 before a transaction
// became one object; 3 before Update recycled it; 2 measured now.)
func TestDurableUpdateAllocations(t *testing.T) {
	db, err := Open(Options{WALPath: filepath.Join(t.TempDir(), "wal")})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	keys := [2]string{"key-00000001", "key-00000002"}
	rmw := func(tx *Tx) error {
		for _, k := range keys {
			old, err := tx.Get(k)
			if err != nil && !errors.Is(err, ErrNotFound) {
				return err
			}
			val := make([]byte, 64)
			copy(val, old)
			val[0]++
			if err := tx.Put(k, val); err != nil {
				return err
			}
		}
		return nil
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := db.Update(rmw); err != nil {
			t.Fatal(err)
		}
	}); n > 0+2 {
		t.Errorf("durable 2-key RMW Update allocs/op = %.1f, want <= its 2 values", n)
	}
}

// TestDisabledZeroOverhead is the alloc guard for every optional
// observability layer at once: with phase timing, tracing and the
// auditor all off (the default), each hook in the transaction paths must
// reduce to one pointer test, every accessor must report the layer
// absent, and Update/View must allocate no more than this workload
// measures (EXPERIMENTS.md P7–P8; the seed's 2PL figure was 12 and 2).
// The debug endpoint only serves what the engine already counts, so the
// debug/ cases hold a database with DebugAddr set to the same budgets,
// and every case runs under both visibility modes. A read-write
// transaction is one object under every protocol — the public Tx is its
// header, and 2PL's lock state, the version-control entry and OCC's read
// set live inside it — so swapping the concurrency control for locking
// costs nothing over timestamp ordering. Neither an Update nor a View —
// a read and a prefixed scan — allocates: the engine recycles the
// transaction when each returns.
func TestDisabledZeroOverhead(t *testing.T) {
	const update, view = 0, 0
	measured := map[VisibilityMode]map[Protocol]float64{}
	defer func() {
		for mode, m := range measured {
			if lock, to := m[TwoPhaseLocking], m[TimestampOrdering]; lock != to {
				t.Errorf("%v: 2PL Update allocs/op = %.1f, T/O %.1f: want the same", mode, lock, to)
			}
		}
	}()
	for _, debugAddr := range []string{"", "127.0.0.1:0"} {
		for _, protocol := range []Protocol{TwoPhaseLocking, TimestampOrdering, Optimistic} {
			name := protocol.String()
			if debugAddr != "" {
				name = "debug/" + name
			}
			t.Run(name, func(t *testing.T) {
				for _, mode := range []VisibilityMode{VisibilityStrict, VisibilityEpoch} {
					t.Run(mode.String(), func(t *testing.T) {
						db, err := Open(Options{Protocol: protocol, VisibilityMode: mode, DebugAddr: debugAddr})
						if err != nil {
							t.Fatal(err)
						}
						defer db.Close()
						if db.Stats().Phases != nil {
							t.Error("Phases non-nil with PhaseTiming off")
						}
						if db.Audit() != nil {
							t.Error("Options{} created an auditor")
						}
						val := []byte("v")
						u := testing.AllocsPerRun(200, func() {
							if err := db.Update(func(tx *Tx) error {
								return tx.Put("k", val)
							}); err != nil {
								t.Fatal(err)
							}
						})
						if debugAddr == "" {
							if measured[mode] == nil {
								measured[mode] = map[Protocol]float64{}
							}
							measured[mode][protocol] = u
						}
						if u > update {
							t.Errorf("Update allocs/op = %.1f, want <= %d", u, update)
						}
						v := testing.AllocsPerRun(200, func() {
							if err := db.View(func(tx *Tx) error {
								if _, err := tx.Get("k"); err != nil {
									return err
								}
								return tx.Scan("k01", func(string, []byte) bool { return true })
							}); err != nil {
								t.Fatal(err)
							}
						})
						if v > view {
							t.Errorf("View allocs/op = %.1f, want <= %d", v, view)
						}
					})
				}
			})
		}
	}
}

// Transfers between random accounts, the bank example's shape, under the
// default options: each reads both accounts, then writes both, so under
// 2PL two transfers over one pair upgrade their shared locks into a
// deadlock, and their victims retry into the same cycle unless the
// retries are spread out. Every transfer must commit within Update's
// default retry budget, and the money must be conserved.
func TestContendedTransfersCommit(t *testing.T) {
	const accounts, workers, transfers, initial = 64, 8, 2000, 1000
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	acct := func(i int) string { return fmt.Sprintf("acct/%04d", i) }
	boot := make(map[string][]byte, accounts)
	for i := range accounts {
		boot[acct(i)] = []byte(strconv.Itoa(initial))
	}
	if err := db.Bootstrap(boot); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for range transfers {
				from, to, amount := rng.Intn(accounts), rng.Intn(accounts), 1+rng.Intn(10)
				if from == to {
					continue
				}
				err := db.Update(func(tx *Tx) error {
					f, err := tx.GetString(acct(from))
					if err != nil {
						return err
					}
					g, err := tx.GetString(acct(to))
					if err != nil {
						return err
					}
					fb, _ := strconv.Atoi(f)
					gb, _ := strconv.Atoi(g)
					if fb < amount {
						return nil
					}
					if err := tx.PutString(acct(from), strconv.Itoa(fb-amount)); err != nil {
						return err
					}
					return tx.PutString(acct(to), strconv.Itoa(gb+amount))
				})
				if err != nil {
					t.Errorf("transfer: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	total := 0
	if err := db.View(func(tx *Tx) error {
		return tx.Scan("acct/", func(_ string, v []byte) bool {
			b, _ := strconv.Atoi(string(v))
			total += b
			return true
		})
	}); err != nil {
		t.Fatal(err)
	}
	if total != accounts*initial {
		t.Fatalf("total balance %d, want %d", total, accounts*initial)
	}
}
