package core

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"mvdb/internal/engine"
	"mvdb/internal/faultfs"
)

// openFS opens an engine over dir's commit log through fsys, failing the
// test on error.
func openFS(t *testing.T, fsys faultfs.FS, walPath string, p Protocol) *Engine {
	t.Helper()
	e, err := OpenDurable(walPath, Options{Protocol: p}, DurableOptions{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// expectState recovers from walPath with a clean filesystem and asserts
// every key maps to its expected latest value.
func expectState(t *testing.T, walPath string, p Protocol, want map[string]string) {
	t.Helper()
	e, err := OpenDurable(walPath, Options{Protocol: p}, DurableOptions{FS: faultfs.New(faultfs.Plan{})})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer e.Close()
	for k, v := range want {
		ver, ok := e.Store().GetOrCreate(k).LatestCommitted()
		if !ok {
			t.Fatalf("key %q lost after recovery", k)
		}
		if string(ver.Data) != v {
			t.Fatalf("key %q = %q after recovery, want %q", k, ver.Data, v)
		}
	}
}

// Crash windows of the snapshot write: at the temp file's data write, at
// its fsync, at the rename (with and without the dirent surviving), and
// at the directory fsync after the rename. In every one, recovery must
// see the full committed state — the log still covers whatever the
// snapshot does not.
func TestWriteSnapshotCrashAtomic(t *testing.T) {
	cases := []struct {
		name string
		rule faultfs.Rule
	}{
		{"write-tmp", faultfs.Rule{Op: faultfs.OpWrite, Path: ".snap.tmp", Fault: faultfs.Fault{Crash: true}}},
		{"sync-tmp", faultfs.Rule{Op: faultfs.OpSync, Path: ".snap.tmp", Fault: faultfs.Fault{Crash: true}}},
		{"rename-lost", faultfs.Rule{Op: faultfs.OpRename, Path: ".snap", Fault: faultfs.Fault{Crash: true}}},
		{"rename-kept", faultfs.Rule{Op: faultfs.OpRename, Path: ".snap", Fault: faultfs.Fault{Crash: true, KeepRename: true}}},
		{"syncdir-after-rename", faultfs.Rule{Op: faultfs.OpSyncDir, Nth: 3, Fault: faultfs.Fault{Crash: true}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			walPath := filepath.Join(t.TempDir(), "commit.log")
			want := map[string]string{}

			// A first, fully successful checkpoint so the crash in the
			// second one must also preserve the old snapshot.
			e := openFS(t, faultfs.New(faultfs.Plan{}), walPath, TwoPhaseLocking)
			for i := 0; i < 3; i++ {
				k, v := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)
				mustCommitWrite(t, e, map[string]string{k: v})
				want[k] = v
			}
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			mustCommitWrite(t, e, map[string]string{"k1": "v1b", "extra": "x"})
			want["k1"], want["extra"] = "v1b", "x"
			e.Close()

			// The doomed checkpoint, on a fresh filesystem: the open's log
			// truncation fsyncs the directory (1), the checkpoint's log
			// rotation (2), and its snapshot rename is followed by the
			// third.
			fs := faultfs.New(faultfs.Plan{Rules: []faultfs.Rule{tc.rule}})
			e2 := openFS(t, fs, walPath, TwoPhaseLocking)
			if err := e2.Checkpoint(); err == nil {
				t.Fatal("Checkpoint succeeded despite scripted crash")
			}
			e2.Close()
			if err := fs.ApplyCrash(); err != nil {
				t.Fatal(err)
			}
			expectState(t, walPath, TwoPhaseLocking, want)
		})
	}
}

// Crash windows of the log rotation and the retire: at the rename of
// the live log to OldPath (with and without the dirent surviving), at
// the create of the fresh log, at the directory fsync after it, and at
// the removal of the retired log once the snapshot covers it. The
// after-retire cases crash the same operations of a checkpoint that
// retires a log an earlier one left (a T/O transaction held that one's
// horizon below its bound) and then rotates the live log aside. In
// every one, recovery must see the full committed state, and two
// checkpoints after it must leave no retired log behind: the first
// retires what the crash left and rotates what the live log holds, the
// second retires that.
func TestRotateCrashAtomic(t *testing.T) {
	cases := []struct {
		name string
		rule faultfs.Rule
		// afterRetire: the first engine leaves a retired log, so the
		// crashed checkpoint retires it and rotates after.
		afterRetire bool
	}{
		{"rename-lost", faultfs.Rule{Op: faultfs.OpRename, Path: ".old", Fault: faultfs.Fault{Crash: true}}, false},
		{"rename-kept", faultfs.Rule{Op: faultfs.OpRename, Path: ".old", Fault: faultfs.Fault{Crash: true, KeepRename: true}}, false},
		{"create", faultfs.Rule{Op: faultfs.OpCreate, Path: "commit.log", Fault: faultfs.Fault{Crash: true}}, false},
		{"syncdir-after-create", faultfs.Rule{Op: faultfs.OpSyncDir, Nth: 2, Fault: faultfs.Fault{Crash: true}}, false},
		{"remove", faultfs.Rule{Op: faultfs.OpRemove, Path: ".old", Fault: faultfs.Fault{Crash: true}}, false},
		// The checkpoint creates its snapshot temp, fsyncs the directory
		// after the snapshot's rename and after the retire, then rotates.
		{"after-retire/remove", faultfs.Rule{Op: faultfs.OpRemove, Path: ".old", Fault: faultfs.Fault{Crash: true}}, true},
		{"after-retire/rename-lost", faultfs.Rule{Op: faultfs.OpRename, Path: ".old", Fault: faultfs.Fault{Crash: true}}, true},
		{"after-retire/rename-kept", faultfs.Rule{Op: faultfs.OpRename, Path: ".old", Fault: faultfs.Fault{Crash: true, KeepRename: true}}, true},
		{"after-retire/create", faultfs.Rule{Op: faultfs.OpCreate, Path: "commit.log", Nth: 2, Fault: faultfs.Fault{Crash: true}}, true},
		{"after-retire/syncdir-after-create", faultfs.Rule{Op: faultfs.OpSyncDir, Nth: 4, Fault: faultfs.Fault{Crash: true}}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			walPath := filepath.Join(t.TempDir(), "commit.log")
			want := map[string]string{}

			p := TwoPhaseLocking
			if tc.afterRetire {
				p = TimestampOrdering
			}
			e := openFS(t, faultfs.New(faultfs.Plan{}), walPath, p)
			for i := 0; i < 4; i++ {
				k, v := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)
				mustCommitWrite(t, e, map[string]string{k: v})
				want[k] = v
			}
			var held engine.Tx
			if tc.afterRetire {
				var err error
				if held, err = e.Begin(engine.ReadWrite); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if held != nil {
				held.Abort()
				if _, err := os.Stat(OldPath(walPath)); err != nil {
					t.Fatalf("a held horizon did not keep the retired log: %v", err)
				}
			}
			mustCommitWrite(t, e, map[string]string{"k0": "v0b"})
			want["k0"] = "v0b"
			e.Close()

			// The open fsyncs the directory first; without a retired log
			// the first create is the rotation's.
			fs := faultfs.New(faultfs.Plan{Rules: []faultfs.Rule{tc.rule}})
			fs.EnableTrace()
			e2 := openFS(t, fs, walPath, TwoPhaseLocking)
			mustCommitWrite(t, e2, map[string]string{"k2": "v2b"})
			want["k2"] = "v2b"
			if err := e2.Checkpoint(); err == nil {
				t.Fatal("Checkpoint succeeded despite scripted crash")
			}
			// The crash hit the rule's operation, and an after-retire
			// rotation's only once the retire was done.
			trace := fs.Trace()
			last := trace[len(trace)-1]
			retired := slices.ContainsFunc(trace[:len(trace)-1], func(op faultfs.OpRecord) bool {
				return op.Op == faultfs.OpRemove && op.Path == OldPath(walPath)
			})
			if last.Op != tc.rule.Op || retired != (tc.afterRetire && tc.rule.Op != faultfs.OpRemove) {
				t.Fatalf("crashed at %s %s with the retire done %v", last.Op, last.Path, retired)
			}
			e2.Close()
			if err := fs.ApplyCrash(); err != nil {
				t.Fatal(err)
			}
			expectState(t, walPath, TwoPhaseLocking, want)

			e3 := openFS(t, faultfs.New(faultfs.Plan{}), walPath, TwoPhaseLocking)
			for range 2 {
				if err := e3.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			e3.Close()
			if _, err := os.Stat(OldPath(walPath)); !os.IsNotExist(err) {
				t.Fatalf("retired log survived two checkpoints after recovery: %v", err)
			}
			expectState(t, walPath, TwoPhaseLocking, want)
		})
	}
}

// A checkpoint whose horizon is below the retired log's bound keeps the
// file: a T/O transaction holds its number from begin, so while it is
// open vtnc stays below it. The next checkpoint, once it has committed,
// retires the file and, having not rotated at its start, rotates the
// live log into its place. A third retires that one and, with the live
// log empty, leaves no retired log.
func TestCheckpointRetiresOnceCovered(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "commit.log")
	e := openFS(t, faultfs.New(faultfs.Plan{}), walPath, TimestampOrdering)
	defer e.Close()
	mustCommitWrite(t, e, map[string]string{"a": "1"})
	held, err := e.Begin(engine.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	if err := held.Put("b", []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(OldPath(walPath)); err != nil {
		t.Fatalf("checkpoint below its bound retired the log: %v", err)
	}
	if err := held.Commit(); err != nil {
		t.Fatal(err)
	}
	live, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	old, err := os.Stat(OldPath(walPath))
	if err != nil || old.Size() != live.Size() {
		t.Fatalf("second checkpoint: retired log %v (err %v), want the %d-byte live log rotated into its place", old, err, live.Size())
	}
	if again, _ := os.Stat(walPath); again.Size() != 0 {
		t.Fatalf("second checkpoint left %d bytes in the live log, want 0", again.Size())
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(OldPath(walPath)); !os.IsNotExist(err) {
		t.Fatalf("third checkpoint over an empty live log left a retired log: %v", err)
	}
	expectState(t, walPath, TimestampOrdering, map[string]string{"a": "1", "b": "2"})
}

// A crash mid-checkpoint can leave the snapshot's temp file behind; the
// next open removes it and recovers the full state.
func TestStaleSnapshotTempRemovedAtOpen(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "commit.log")
	e := openFS(t, faultfs.New(faultfs.Plan{}), walPath, TwoPhaseLocking)
	mustCommitWrite(t, e, map[string]string{"k": "v"})
	e.Close()
	stale := tmpPath(SnapPath(walPath))
	if err := os.WriteFile(stale, []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	expectState(t, walPath, TwoPhaseLocking, map[string]string{"k": "v"})
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp %s survived open", stale)
	}
}

// A snapshot with a torn tail cannot be one of ours (they are installed
// whole, by rename); recovery must refuse it rather than restore a
// partial key set.
func TestTornSnapshotRefused(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "commit.log")
	e := openFS(t, faultfs.New(faultfs.Plan{}), walPath, TwoPhaseLocking)
	mustCommitWrite(t, e, map[string]string{"a": "1", "b": "2"})
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	e.Close()

	snap, err := os.ReadFile(SnapPath(walPath))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(SnapPath(walPath), snap[:len(snap)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenDurable(walPath, Options{}, DurableOptions{FS: faultfs.New(faultfs.Plan{})})
	if err == nil {
		t.Fatal("OpenDurable accepted a torn snapshot")
	}
}

// leafFill is the share of the key table's leaf capacity (128 keys a
// leaf) that e's keys use.
func leafFill(e *Engine) float64 {
	return float64(e.Store().Len()) / float64(e.Store().Leaves()*128)
}

// Bootstrap inserts, and logs, its keys in key order: its record is the
// same bytes every run, and the key table fills its leaves by appends,
// at the first open and at a reopen alike.
func TestBootstrapInKeyOrder(t *testing.T) {
	data := make(map[string][]byte)
	for i := range 4000 {
		data[fmt.Sprintf("key%06d", i)] = []byte(fmt.Sprint(i))
	}
	var logs [2][]byte
	for run := range logs {
		walPath := filepath.Join(t.TempDir(), "commit.log")
		e := openFS(t, nil, walPath, TwoPhaseLocking)
		if err := e.Bootstrap(data); err != nil {
			t.Fatal(err)
		}
		if fill := leafFill(e); fill < 0.9 {
			t.Fatalf("run %d: leaves %.2f full after Bootstrap, want >= 0.9", run, fill)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		e = openFS(t, nil, walPath, TwoPhaseLocking)
		if fill := leafFill(e); e.Store().Len() != len(data) || fill < 0.9 {
			t.Fatalf("run %d: %d keys, leaves %.2f full after a reopen, want %d and >= 0.9", run, e.Store().Len(), fill, len(data))
		}
		e.Close()
		var err error
		if logs[run], err = os.ReadFile(walPath); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(logs[0], logs[1]) {
		t.Fatal("two Bootstraps of the same data logged different bytes")
	}
}

// A checkpoint writes its snapshot in key order, so a reopen replays it
// by appends and fills the leaves that inserts in random order left
// about two-thirds full.
func TestCheckpointReopenFillsLeaves(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "commit.log")
	e := openFS(t, nil, walPath, TwoPhaseLocking)
	keys := rand.New(rand.NewPCG(1, 1)).Perm(4000)
	for len(keys) > 0 {
		kv := make(map[string]string)
		for _, k := range keys[:100] {
			kv[fmt.Sprintf("key%06d", k)] = "v"
		}
		keys = keys[100:]
		mustCommitWrite(t, e, kv)
	}
	before := leafFill(e)
	if before >= 0.9 {
		t.Fatalf("leaves %.2f full after inserts in random order: the test shows nothing", before)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e = openFS(t, nil, walPath, TwoPhaseLocking)
	defer e.Close()
	fill := leafFill(e)
	if e.Store().Len() != 4000 || fill < 0.9 {
		t.Fatalf("%d keys, leaves %.2f full after a reopen from the checkpoint, want 4000 and >= 0.9", e.Store().Len(), fill)
	}
	t.Logf("leaves %.2f full after inserts in random order, %.2f after the reopen", before, fill)
}
