package core

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mvdb/internal/engine"
	"mvdb/internal/faultfs"
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
			e, err := OpenDurable(path, Options{Protocol: p}, DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
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
			if err := e.log.Flush(); err != nil {
				t.Fatal(err)
			}
			// Crash: no Close, engine dropped.

			before, _ := os.Stat(path)
			re, err := OpenDurable(path, Options{Protocol: p}, DurableOptions{})
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
		})
	}
}

// A torn tail (partial final record) is discarded on recovery; everything
// before it survives.
func TestRecoveryTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "commit.log")
	e, err := OpenDurable(path, Options{Protocol: TwoPhaseLocking}, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustCommitWrite(t, e, map[string]string{"a": "1"})
	mustCommitWrite(t, e, map[string]string{"a": "2"})
	mustCommitWrite(t, e, map[string]string{"a": "torn"})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	fi, _ := os.Stat(path)
	if err := os.Truncate(path, fi.Size()-2); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDurable(path, Options{Protocol: TwoPhaseLocking}, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
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

// A durable engine's Close closes the log it owns and reports the log's
// error: after an fsync failure broke the writer, Close must not claim a
// clean shutdown.
func TestCloseReturnsStickyLogError(t *testing.T) {
	// The open of an empty log issues no fsync; the commit's is the
	// first.
	fs := faultfs.New(faultfs.Plan{Rules: []faultfs.Rule{
		{Op: faultfs.OpSync, Path: "commit.log", Nth: 1, Fault: faultfs.Fault{Err: true}},
	}})
	e, err := OpenDurable(filepath.Join(t.TempDir(), "commit.log"), Options{}, DurableOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := e.Begin(engine.ReadWrite)
	if err := tx.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("commit succeeded despite the failed fsync")
	}
	if err := e.Close(); err == nil {
		t.Fatal("Close returned nil over a broken log")
	}
}

// TestPowerCutAfterOpenKeepsWhatItReplayed: records that never reached
// the disk — written through the shim, never fsynced, in a file whose
// directory entry was never fsynced either — are durable once OpenDurable
// has replayed them and returned, although its fsync of the log ran
// beside the replay. A power cut at the first operation after the open
// (a checkpoint's rotation, which leaves only fsynced bytes) loses none
// of them.
func TestPowerCutAfterOpenKeepsWhatItReplayed(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "commit.log")
	fs := faultfs.New(faultfs.Plan{Rules: []faultfs.Rule{
		{Op: faultfs.OpRename, Path: ".old", Fault: faultfs.Fault{Crash: true}},
	}})
	f, err := fs.OpenFile(walPath, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(f)
	want := map[string]string{}
	for i := 1; i <= 20; i++ {
		k, v := fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i)
		if _, err := wal.WriteRecord(bw, wal.Record{TN: uint64(i), Writes: []wal.Write{{Key: k, Value: []byte(v)}}}); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	if err := bw.Flush(); err != nil { // the first write: in the page cache only
		t.Fatal(err)
	}
	f.Close()

	e := openFS(t, fs, walPath, TwoPhaseLocking)
	if err := e.Checkpoint(); err == nil {
		t.Fatal("the checkpoint after the open succeeded despite the scripted power cut")
	}
	e.Close()
	if err := fs.ApplyCrash(); err != nil {
		t.Fatal(err)
	}
	expectState(t, walPath, TwoPhaseLocking, want)
}
