package mvdb

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mvdb/internal/core"
	"mvdb/internal/faultfs"
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

// logOnDisk is the commit log's size on disk: the live file plus the
// retired prefix a checkpoint has not yet removed.
func logOnDisk(path string) (n int64) {
	for _, p := range []string{path, core.OldPath(path)} {
		if fi, err := os.Stat(p); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// Checkpoint is what bounds the log. Two writers write continuously
// while the test checkpoints each time another MiB has been logged. A
// checkpoint moves the log aside, or deletes what an earlier one moved
// once a snapshot covers it — which a commit still in flight can put off
// to the next one — and then moves the live log aside in its place. So
// after the last checkpoint the log's files hold what was logged since
// the one before it ended, two intervals, not the run's; and the
// database reopens to the state it was closed in, and keeps numbering
// past it.
func TestCheckpointBoundsTheLog(t *testing.T) {
	const writers, interval, rounds = 2, 1 << 20, 10
	path := filepath.Join(t.TempDir(), "db.log")
	db, err := Open(Options{WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	last := make([]int, writers)
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := fmt.Sprintf("%064d", i)
				if err := db.Update(func(tx *Tx) error { return tx.PutString(fmt.Sprintf("w%d", w), v) }); err != nil {
					t.Error(err)
					return
				}
				last[w] = i
			}
		}()
	}
	var marks []int64 // bytes logged when each checkpoint started
	for mark := int64(0); len(marks) < rounds && !t.Failed(); {
		logged := db.Stats().WALBytes
		if logged < mark+interval {
			time.Sleep(time.Millisecond)
			continue
		}
		mark = logged
		marks = append(marks, mark)
		if err := db.Checkpoint(); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		db.Close()
		return
	}
	total, onDisk := db.Stats().WALBytes, logOnDisk(path)
	if since := total - marks[rounds-2]; onDisk > since {
		t.Errorf("after %d checkpoints the log holds %d bytes, more than the %d logged since the second-to-last began (%d in all)",
			rounds, onDisk, since, total)
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
		for w, i := range last {
			if got, _ := tx.GetString(fmt.Sprintf("w%d", w)); got != fmt.Sprintf("%064d", i) {
				t.Errorf("w%d = %q after reopen, want its last write %d", w, got, i)
			}
		}
		return nil
	})
	// New transaction numbers must still advance past everything.
	if err := db2.Update(func(tx *Tx) error { return tx.PutString("w0", "newer") }); err != nil {
		t.Fatal(err)
	}
	db2.View(func(tx *Tx) error {
		if got, _ := tx.GetString("w0"); got != "newer" {
			t.Errorf("w0 = %q after a write on the reopened database, want newer", got)
		}
		return nil
	})
}

// Concurrent checkpoints take turns: under write load, every one of them
// succeeds, and each database reopens to the state it was closed in.
func TestConcurrentCheckpointsUnderLoad(t *testing.T) {
	const writers, checkpointers, each = 2, 4, 5
	for round := 0; round < 5 && !t.Failed(); round++ {
		path := filepath.Join(t.TempDir(), fmt.Sprintf("db%d.log", round))
		db, err := Open(Options{WALPath: path})
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		last := make([]int, writers)
		var load, ckpt sync.WaitGroup
		for w := range writers {
			load.Add(1)
			go func() {
				defer load.Done()
				for i := 1; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if err := db.Update(func(tx *Tx) error {
						if err := tx.PutString(fmt.Sprintf("a%d", w), fmt.Sprint(i)); err != nil {
							return err
						}
						return tx.PutString(fmt.Sprintf("b%d", w), fmt.Sprint(i))
					}); err != nil {
						t.Error(err)
						return
					}
					last[w] = i
				}
			}()
		}
		for range checkpointers {
			ckpt.Add(1)
			go func() {
				defer ckpt.Done()
				for range each {
					if err := db.Checkpoint(); err != nil {
						t.Errorf("round %d: %v", round, err)
					}
				}
			}()
		}
		ckpt.Wait()
		close(stop)
		load.Wait()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db2, err := Open(Options{WALPath: path})
		if err != nil {
			t.Fatalf("round %d: reopen: %v", round, err)
		}
		db2.View(func(tx *Tx) error {
			for w, i := range last {
				a, _ := tx.GetString(fmt.Sprintf("a%d", w))
				b, _ := tx.GetString(fmt.Sprintf("b%d", w))
				if want := fmt.Sprint(i); a != want || b != want {
					t.Errorf("round %d: writer %d's keys = %q, %q after reopen, want %s", round, w, a, b, want)
				}
			}
			return nil
		})
		db2.Close()
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
		horizon, _, err := core.LoadSnapshot(faultfs.OS, core.SnapPath(path), func(r wal.Record) { recs = append(recs, r) })
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
