package mvdb

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"mvdb/internal/core"
	"mvdb/internal/wal"
)

func TestCheckpointRequiresWAL(t *testing.T) {
	db, _ := Open(Options{})
	defer db.Close()
	if err := db.Checkpoint(); err == nil {
		t.Fatal("Checkpoint without WAL succeeded")
	}
}

func TestCheckpointRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.log")
	db, err := Open(Options{WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := db.Update(func(tx *Tx) error {
			return tx.PutString(fmt.Sprintf("k%02d", i%5), fmt.Sprintf("v%d", i))
		}); err != nil {
			t.Fatal(err)
		}
	}
	db.Update(func(tx *Tx) error { return tx.Delete("k03") })
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint writes must also survive.
	if err := db.Update(func(tx *Tx) error { return tx.PutString("k00", "post") }); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	checks := map[string]string{"k00": "post", "k01": "v16", "k02": "v17", "k04": "v19"}
	db2.View(func(tx *Tx) error {
		for k, want := range checks {
			if got, err := tx.GetString(k); err != nil || got != want {
				t.Errorf("%s = (%q,%v), want %q", k, got, err, want)
			}
		}
		if _, err := tx.Get("k03"); err != ErrNotFound {
			t.Errorf("k03 err = %v, want ErrNotFound (tombstone through checkpoint)", err)
		}
		return nil
	})
}

func TestCompactLogShrinksAndPreservesState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.log")
	db, err := Open(Options{WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := db.Update(func(tx *Tx) error {
			return tx.PutString("hot", fmt.Sprintf("v%d", i))
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Update(func(tx *Tx) error { return tx.PutString("hot", "final") }); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	before, _ := os.Stat(path)
	if err := CompactLog(path); err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Fatalf("compaction did not shrink the log: %d -> %d", before.Size(), after.Size())
	}

	db2, err := Open(Options{WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	var got string
	db2.View(func(tx *Tx) error { got, _ = tx.GetString("hot"); return nil })
	if got != "final" {
		t.Fatalf("post-compaction value = %q, want final", got)
	}
	// New transaction numbers must still advance past everything.
	if err := db2.Update(func(tx *Tx) error { return tx.PutString("hot", "newer") }); err != nil {
		t.Fatal(err)
	}
}

func TestCompactLogWithoutSnapshotIsNoop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.log")
	db, _ := Open(Options{WALPath: path})
	db.Update(func(tx *Tx) error { return tx.PutString("k", "v") })
	db.Close()
	before, _ := os.Stat(path)
	if err := CompactLog(path); err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(path)
	if after.Size() != before.Size() {
		t.Fatal("no-snapshot compaction modified the log")
	}
}

// Checkpoint is safe under concurrent write load: the snapshot is a
// consistent prefix regardless of in-flight commits.
func TestCheckpointUnderLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.log")
	db, err := Open(Options{WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			i++
			db.Update(func(tx *Tx) error {
				if err := tx.PutString("a", fmt.Sprintf("%d", i)); err != nil {
					return err
				}
				return tx.PutString("b", fmt.Sprintf("%d", i))
			})
		}
	}()
	for i := 0; i < 5; i++ {
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done
	db.Close()

	db2, err := Open(Options{WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	db2.View(func(tx *Tx) error {
		a, _ := tx.GetString("a")
		b, _ := tx.GetString("b")
		if a != b {
			t.Errorf("recovered torn state: a=%q b=%q", a, b)
		}
		return nil
	})
}

// A checkpoint is a snapshot like a View's: collection racing it — a
// CollectGarbage loop, and the installs of a writer — must leave it every
// version it still has to write. Every checkpoint must hold every key, at
// a version no newer than its horizon.
func TestCheckpointDuringCollection(t *testing.T) {
	const keys = 4000
	path := filepath.Join(t.TempDir(), "db.log")
	db, err := Open(Options{WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	key := func(i int) string { return fmt.Sprintf("k%04d", i%keys) }
	boot := make(map[string][]byte, keys)
	for i := range keys {
		boot[key(i)] = []byte("0")
	}
	if err := db.Bootstrap(boot); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i += 7919 {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.Update(func(tx *Tx) error { return tx.PutString(key(i), "v") }); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				db.CollectGarbage()
			}
		}
	}()
	defer wg.Wait()
	defer close(stop)
	for c := 0; c < 10; c++ {
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		var recs []wal.Record
		horizon, _, err := core.LoadSnapshot(nil, core.SnapPath(path), func(r wal.Record) { recs = append(recs, r) })
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != keys {
			t.Fatalf("checkpoint %d at %d holds %d of %d keys", c, horizon, len(recs), keys)
		}
		for _, r := range recs {
			if r.TN > horizon {
				t.Fatalf("checkpoint %d at %d holds version %d of %s", c, horizon, r.TN, r.Writes[0].Key)
			}
		}
	}
}

// Bootstrap on a durable database is logged like a commit: the data
// survives a reopen with no checkpoint in between, and the reopened
// database, which recovered it, refuses a second Bootstrap.
func TestBootstrapSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.log")
	db, err := Open(Options{WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Bootstrap(map[string][]byte{"a": []byte("1"), "b": []byte("2")}); err != nil {
		t.Fatal(err)
	}
	if err := db.Update(func(tx *Tx) error { return tx.PutString("b", "3") }); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	db2.View(func(tx *Tx) error {
		for k, want := range map[string]string{"a": "1", "b": "3"} {
			if got, err := tx.GetString(k); err != nil || got != want {
				t.Errorf("%s = (%q, %v) after reopen, want %q", k, got, err, want)
			}
		}
		return nil
	})
	if err := db2.Bootstrap(map[string][]byte{"c": []byte("4")}); err == nil {
		t.Error("Bootstrap accepted on a recovered database")
	}
}
