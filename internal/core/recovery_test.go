package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mvdb/internal/engine"
	"mvdb/internal/wal"
)

// Commit through the WAL, "crash" (drop the engine without closing), and
// recover: every committed transaction must be visible, with the version
// control module resuming past the recovered horizon.
func TestWALRecoveryRoundTrip(t *testing.T) {
	for _, p := range allProtocols() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "commit.log")
			w, err := wal.Create(path, wal.SyncBatch)
			if err != nil {
				t.Fatal(err)
			}
			e := New(Options{Protocol: p, WAL: w})
			for i := 0; i < 10; i++ {
				mustCommitWrite(t, e, map[string]string{
					"k":                     fmt.Sprintf("v%d", i),
					fmt.Sprintf("key%d", i): "x",
				})
			}
			// Delete one key so tombstones are exercised through recovery.
			tx, _ := e.Begin(engine.ReadWrite)
			if err := tx.Delete("key3"); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			// Crash: no Close, engine dropped.

			before, _ := os.Stat(path)
			re, w2, err := OpenDurable(path, Options{Protocol: p}, DurableOptions{WAL: wal.Options{Policy: wal.SyncBatch}})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if fi, _ := os.Stat(path); fi.Size() != before.Size() {
				t.Fatalf("recovery cut the log from %d to %d bytes (it was cleanly flushed)", before.Size(), fi.Size())
			}
			ro, _ := re.Begin(engine.ReadOnly)
			if got, err := ro.Get("k"); err != nil || string(got) != "v9" {
				t.Fatalf("recovered Get(k) = (%q,%v), want v9", got, err)
			}
			if _, err := ro.Get("key3"); err != engine.ErrNotFound {
				t.Fatalf("recovered Get(key3) err = %v, want ErrNotFound", err)
			}
			if got, err := ro.Get("key7"); err != nil || string(got) != "x" {
				t.Fatalf("recovered Get(key7) = (%q,%v)", got, err)
			}
			ro.Commit()

			// New transactions must receive numbers past the recovered max.
			tx2, _ := re.Begin(engine.ReadWrite)
			if err := tx2.Put("k", []byte("post-crash")); err != nil {
				t.Fatal(err)
			}
			if err := tx2.Commit(); err != nil {
				t.Fatal(err)
			}
			tn, _ := tx2.SN()
			if tn <= 11 {
				t.Fatalf("post-recovery tn = %d, want > 11", tn)
			}
			w2.Close()
		})
	}
}

// A torn tail (partial final record) is discarded on recovery; everything
// before it survives.
func TestRecoveryTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "commit.log")
	w, err := wal.Create(path, wal.SyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{Protocol: TwoPhaseLocking, WAL: w})
	mustCommitWrite(t, e, map[string]string{"a": "1"})
	mustCommitWrite(t, e, map[string]string{"a": "2"})
	mustCommitWrite(t, e, map[string]string{"a": "torn"})
	w.Close()

	fi, _ := os.Stat(path)
	if err := os.Truncate(path, fi.Size()-2); err != nil {
		t.Fatal(err)
	}

	re, w2, err := OpenDurable(path, Options{Protocol: TwoPhaseLocking}, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	defer w2.Close()
	if cut, _ := os.Stat(path); cut.Size() >= fi.Size()-2 {
		t.Fatalf("torn tail kept: log is %d bytes, torn log was %d", cut.Size(), fi.Size()-2)
	}
	ro, _ := re.Begin(engine.ReadOnly)
	got, err := ro.Get("a")
	if err != nil || string(got) != "2" {
		t.Fatalf("Get(a) = (%q,%v), want 2 (torn commit dropped)", got, err)
	}
	ro.Commit()
}

// SetWAL is rejected once transactions have started.
func TestSetWALAfterBegin(t *testing.T) {
	e := New(Options{Protocol: TwoPhaseLocking})
	defer e.Close()
	tx, _ := e.Begin(engine.ReadWrite)
	tx.Abort()
	if err := e.SetWAL(nil); err == nil {
		t.Fatal("SetWAL after Begin succeeded")
	}
}
