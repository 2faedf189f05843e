package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mvdb/internal/faultfs"
	"mvdb/internal/wal"
)

// openFS opens an engine over dir's commit log through fsys, failing the
// test on error.
func openFS(t *testing.T, fsys faultfs.FS, walPath string, p Protocol) (*Engine, *wal.Writer) {
	t.Helper()
	e, w, err := OpenDurable(walPath, Options{Protocol: p}, DurableOptions{
		FS:  fsys,
		WAL: wal.Options{Policy: wal.SyncBatch},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, w
}

// expectState recovers from walPath with a clean filesystem and asserts
// every key maps to its expected latest value.
func expectState(t *testing.T, walPath string, p Protocol, want map[string]string) {
	t.Helper()
	e, w, err := OpenDurable(walPath, Options{Protocol: p}, DurableOptions{
		FS:  faultfs.New(faultfs.Plan{}),
		WAL: wal.Options{Policy: wal.SyncBatch},
	})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer w.Close()
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
			setup := faultfs.New(faultfs.Plan{})
			e, w := openFS(t, setup, walPath, TwoPhaseLocking)
			for i := 0; i < 3; i++ {
				k, v := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)
				mustCommitWrite(t, e, map[string]string{k: v})
				want[k] = v
			}
			if err := e.WriteSnapshot(setup, walPath); err != nil {
				t.Fatal(err)
			}
			mustCommitWrite(t, e, map[string]string{"k1": "v1b", "extra": "x"})
			want["k1"], want["extra"] = "v1b", "x"
			w.Close()
			e.Close()

			// The doomed checkpoint. The syncdir rule needs Nth: the
			// sequence under a FaultFS here is tmp-create syncdir (1),
			// log-open syncdir (2) from OpenDurable... so count a fresh
			// trace instead: open + one checkpoint attempt.
			fs := faultfs.New(faultfs.Plan{Rules: []faultfs.Rule{tc.rule}})
			e2, w2 := openFS(t, fs, walPath, TwoPhaseLocking)
			err := e2.WriteSnapshot(fs, walPath)
			if err == nil {
				t.Fatal("WriteSnapshot succeeded despite scripted crash")
			}
			w2.Close()
			e2.Close()
			if err := fs.ApplyCrash(); err != nil {
				t.Fatal(err)
			}
			expectState(t, walPath, TwoPhaseLocking, want)
		})
	}
}

// Crash windows of log compaction: whichever instant the power cut
// hits, recovery sees either the full old log or the compacted one —
// both of which, combined with the snapshot, reproduce the complete
// committed state.
func TestCompactCrashAtomic(t *testing.T) {
	cases := []struct {
		name string
		rule faultfs.Rule
	}{
		{"write-tmp", faultfs.Rule{Op: faultfs.OpWrite, Path: ".compact.tmp", Fault: faultfs.Fault{Crash: true}}},
		{"rename-lost", faultfs.Rule{Op: faultfs.OpRename, Path: "commit.log", Fault: faultfs.Fault{Crash: true}}},
		{"rename-kept", faultfs.Rule{Op: faultfs.OpRename, Path: "commit.log", Fault: faultfs.Fault{Crash: true, KeepRename: true}}},
		{"syncdir-after-rename", faultfs.Rule{Op: faultfs.OpSyncDir, Nth: 2, Fault: faultfs.Fault{Crash: true}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			walPath := filepath.Join(t.TempDir(), "commit.log")
			want := map[string]string{}

			setup := faultfs.New(faultfs.Plan{})
			e, w := openFS(t, setup, walPath, TwoPhaseLocking)
			for i := 0; i < 4; i++ {
				k, v := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)
				mustCommitWrite(t, e, map[string]string{k: v})
				want[k] = v
			}
			if err := e.WriteSnapshot(setup, walPath); err != nil {
				t.Fatal(err)
			}
			// Post-snapshot suffix the compaction must keep.
			mustCommitWrite(t, e, map[string]string{"k0": "v0b"})
			want["k0"] = "v0b"
			w.Close()
			e.Close()

			fs := faultfs.New(faultfs.Plan{Rules: []faultfs.Rule{tc.rule}})
			if err := Compact(fs, walPath); err == nil {
				t.Fatal("Compact succeeded despite scripted crash")
			}
			if err := fs.ApplyCrash(); err != nil {
				t.Fatal(err)
			}
			expectState(t, walPath, TwoPhaseLocking, want)
		})
	}
}

// A completed compaction followed by recovery reproduces the exact
// pre-compaction state, and a crash mid-compaction leaves a stale temp
// file that the next open removes.
func TestCompactAndStaleTempCleanup(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "commit.log")
	want := map[string]string{}

	fsys := faultfs.New(faultfs.Plan{})
	e, w := openFS(t, fsys, walPath, TwoPhaseLocking)
	for i := 0; i < 5; i++ {
		k, v := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)
		mustCommitWrite(t, e, map[string]string{k: v})
		want[k] = v
	}
	if err := e.WriteSnapshot(fsys, walPath); err != nil {
		t.Fatal(err)
	}
	w.Close()
	e.Close()
	if err := Compact(fsys, walPath); err != nil {
		t.Fatal(err)
	}
	expectState(t, walPath, TwoPhaseLocking, want)

	// Plant stale temp files as an interrupted checkpoint/compaction
	// would leave them; the next open must remove both.
	for _, tmp := range []string{snapTmpPath(walPath), compactTmpPath(walPath)} {
		if err := os.WriteFile(tmp, []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	e2, w2 := openFS(t, faultfs.New(faultfs.Plan{}), walPath, TwoPhaseLocking)
	w2.Close()
	e2.Close()
	for _, tmp := range []string{snapTmpPath(walPath), compactTmpPath(walPath)} {
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Fatalf("stale temp %s survived open", tmp)
		}
	}
}

// A snapshot with a torn tail cannot be one of ours (they are installed
// whole, by rename); recovery must refuse it rather than restore a
// partial key set.
func TestTornSnapshotRefused(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "commit.log")
	fsys := faultfs.New(faultfs.Plan{})
	e, w := openFS(t, fsys, walPath, TwoPhaseLocking)
	mustCommitWrite(t, e, map[string]string{"a": "1", "b": "2"})
	if err := e.WriteSnapshot(fsys, walPath); err != nil {
		t.Fatal(err)
	}
	w.Close()
	e.Close()

	snap, err := os.ReadFile(SnapPath(walPath))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(SnapPath(walPath), snap[:len(snap)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = OpenDurable(walPath, Options{}, DurableOptions{FS: faultfs.New(faultfs.Plan{})})
	if err == nil {
		t.Fatal("OpenDurable accepted a torn snapshot")
	}
}
