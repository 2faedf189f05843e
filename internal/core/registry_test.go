package core

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"mvdb/internal/engine"
	"mvdb/internal/storage"
	"mvdb/internal/vc"
)

// A transaction is one allocation, header and all; each stays in the
// allocator size class it was measured in, so a field added later cannot
// silently push it into the next one. A View's is 48 bytes, where it was
// a 16-byte public handle plus a 48-byte roTx; the registry slot rides in
// txObs's tail padding to keep it there.
func TestTxSizeClasses(t *testing.T) {
	for _, c := range []struct {
		name  string
		size  uintptr
		class uintptr
	}{
		{"roTx", unsafe.Sizeof(roTx{}), 48},
		{"tsoTx", unsafe.Sizeof(tsoTx{}), 208},
		{"occTx", unsafe.Sizeof(occTx{}), 288},
		{"twoPhaseTx", unsafe.Sizeof(twoPhaseTx{}), 320},
	} {
		if c.size > c.class {
			t.Errorf("sizeof(%s) = %d, want <= %d", c.name, c.size, c.class)
		}
	}
}

// The counter every begin writes (ids) is the last field, at least a
// cache line past the last byte of bootstrapSealed, so wherever the
// engine is allocated no field a transaction reads shares its line.
// Before the pad, ids and closed shared a line in most engines built.
func TestEngineCountersOwnTheirLine(t *testing.T) {
	var e Engine
	flags := unsafe.Offsetof(e.bootstrapSealed) + unsafe.Sizeof(e.bootstrapSealed)
	if ids := unsafe.Offsetof(e.ids); ids < flags+64 {
		t.Errorf("ids at %d, the flags end at %d: want ids at least 64 bytes past them", ids, flags)
	}
	if ids := unsafe.Offsetof(e.ids); ids+8 != unsafe.Sizeof(e) {
		t.Errorf("ids at %d: want it last in a %d-byte Engine", ids, unsafe.Sizeof(e))
	}
}

// With every slot taken, a further snapshot overflows: it still never
// blocks, collection holds at 0 until it closes, and no open snapshot
// loses what it reads.
func TestRegistryOverflow(t *testing.T) {
	e := New(Options{})
	defer e.Close()
	var open []engine.Tx
	for i := 0; i < roSlots+3; i++ {
		mustCommitWrite(t, e, map[string]string{"k": fmt.Sprint(i)})
		tx, _ := e.Begin(engine.ReadOnly)
		open = append(open, tx)
	}
	if n := e.roActive.overflow.Load(); n != 3 {
		t.Fatalf("overflow = %d, want 3", n)
	}
	if m, ok := e.MinActiveReadOnlySN(); !ok || m != 0 {
		t.Fatalf("min = (%d, %v) while overflowed, want (0, true)", m, ok)
	}
	for i := 0; i < 2*roSlots; i++ {
		mustCommitWrite(t, e, map[string]string{"k": "later"})
	}
	read := func(txs []engine.Tx, from int) {
		t.Helper()
		for i, tx := range txs {
			if v, err := tx.Get("k"); err != nil || string(v) != fmt.Sprint(from+i) {
				t.Fatalf("snapshot %d read (%q, %v), want %d", from+i, v, err, from+i)
			}
		}
	}
	read(open, 0)
	for _, tx := range open[roSlots:] {
		tx.Commit()
	}
	first, _ := open[0].SN()
	if m, ok := e.MinActiveReadOnlySN(); !ok || m != first {
		t.Fatalf("min = (%d, %v) after the overflow closed, want (%d, true)", m, ok, first)
	}
	mustCommitWrite(t, e, map[string]string{"k": "last"})
	read(open[:roSlots], 0)
	for _, tx := range open[:roSlots] {
		tx.Commit()
	}
	if _, ok := e.MinActiveReadOnlySN(); ok {
		t.Fatal("registry not drained")
	}
}

// A pinned snapshot publishes its pin, and holds collection there.
func TestRegistryPinnedSnapshot(t *testing.T) {
	e := New(Options{})
	defer e.Close()
	hold, _ := e.Begin(engine.ReadOnly) // nothing is collected before the pin
	for i := 1; i <= 5; i++ {
		mustCommitWrite(t, e, map[string]string{"k": fmt.Sprint(i)})
	}
	tx, err := e.BeginReadOnlyAt(2)
	if err != nil {
		t.Fatal(err)
	}
	hold.Commit()
	if m, ok := e.MinActiveReadOnlySN(); !ok || m != 2 {
		t.Fatalf("min = (%d, %v), want (2, true)", m, ok)
	}
	for i := 0; i < 20; i++ {
		mustCommitWrite(t, e, map[string]string{"k": "later"})
	}
	e.store.Get("k").Prune(e.watermark())
	if v, err := tx.Get("k"); err != nil || string(v) != "2" {
		t.Fatalf("pinned read (%q, %v), want 2", v, err)
	}
	if f := e.store.Get("k").Floor(); f != 2 {
		t.Fatalf("floor = %d, want 2", f)
	}
	tx.Commit()
	if _, ok := e.MinActiveReadOnlySN(); ok {
		t.Fatal("registry not drained")
	}
}

// A snapshot publishes before it reads vtnc, so neither a pass nor an
// install that collects concurrently takes a version it reads — also
// while more snapshots are open than there are slots.
func TestRegistryRacesCollection(t *testing.T) {
	e := New(Options{})
	defer e.Close()
	mustCommitWrite(t, e, map[string]string{"k": "0"})
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	go func() { // every install may collect
		defer bg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tx, _ := e.Begin(engine.ReadWrite)
			tx.Put("k", []byte(fmt.Sprint(i)))
			if err := tx.Commit(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // passes
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			w := e.watermark()
			e.store.Range(func(_ string, o *storage.Object) bool { o.Prune(w); return true })
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < roSlots+8; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 50; i++ {
				tx, _ := e.Begin(engine.ReadOnly)
				a, err := tx.Get("k")
				runtime.Gosched()
				b, err2 := tx.Get("k")
				tx.Commit()
				if err != nil || err2 != nil || string(a) != string(b) {
					t.Errorf("snapshot read (%q, %v) then (%q, %v)", a, err, b, err2)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	bg.Wait()
}

// BeginReadOnlyRecent publishes before it waits for its pin to become
// visible: under group commit vtnc trails tnc - 1 by a batch, and the
// commits that finish the wait go on collecting the hot key meanwhile.
// A reader that waited unpublished would find its pin collected.
func TestRecentSnapshotRacesCollection(t *testing.T) {
	for _, p := range []Protocol{TwoPhaseLocking, TimestampOrdering, Optimistic} {
		for _, mode := range []vc.Mode{vc.ModeStrict, vc.ModeEpoch} {
			t.Run(fmt.Sprintf("%v/%v", p, mode), func(t *testing.T) {
				e, err := OpenDurable(filepath.Join(t.TempDir(), "commit.log"), Options{Protocol: p, Visibility: mode}, DurableOptions{})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				mustCommitWrite(t, e, map[string]string{"k": "0"})
				stop := make(chan struct{})
				var writers sync.WaitGroup
				for range 3 {
					writers.Add(1)
					go func() {
						defer writers.Done()
						for {
							select {
							case <-stop:
								return
							default:
							}
							tx, _ := e.Begin(engine.ReadWrite)
							tx.Put("k", []byte("v"))
							tx.Commit() // conflicts abort; only the commits matter
						}
					}()
				}
				var readers sync.WaitGroup
				for range 3 {
					readers.Add(1)
					go func() {
						defer readers.Done()
						for range 40 {
							tx, err := e.BeginReadOnlyRecent()
							if err == nil {
								_, err = tx.Get("k")
								tx.Commit()
							}
							if err != nil {
								t.Errorf("recent snapshot: %v", err)
								return
							}
						}
					}()
				}
				readers.Wait()
				close(stop)
				writers.Wait()
			})
		}
	}
}
