package faultfs

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func writeAll(t *testing.T, f File, p []byte) {
	t.Helper()
	if _, err := f.Write(p); err != nil {
		t.Fatal(err)
	}
}

func content(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	return b
}

// Unsynced bytes do not survive a crash; synced bytes do.
func TestCrashLosesUnsyncedTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log")
	fs := New(Plan{Rules: []Rule{{Op: OpSync, Nth: 2, Fault: Fault{Crash: true}}}})
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	writeAll(t, f, []byte("durable:"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	writeAll(t, f, []byte("lost"))
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("sync err = %v, want ErrCrashed", err)
	}
	if !fs.Crashed() {
		t.Fatal("not crashed")
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash write err = %v", err)
	}
	if err := fs.ApplyCrash(); err != nil {
		t.Fatal(err)
	}
	if got := string(content(t, path)); got != "durable:" {
		t.Fatalf("surviving content = %q, want %q", got, "durable:")
	}
}

// A torn write leaves exactly the scripted prefix of the interrupted
// write.
func TestTornWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log")
	fs := New(Plan{Rules: []Rule{{Op: OpWrite, Nth: 2, Fault: Fault{Crash: true, Torn: 3}}}})
	f, _ := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	fs.SyncDir(dir)
	writeAll(t, f, []byte("base."))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("abcdef")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write err = %v, want ErrCrashed", err)
	}
	if err := fs.ApplyCrash(); err != nil {
		t.Fatal(err)
	}
	if got := string(content(t, path)); got != "base.abc" {
		t.Fatalf("surviving content = %q, want %q", got, "base.abc")
	}
}

// Corrupt garbles the surviving torn bytes but never the durable prefix.
func TestTornCorrupt(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log")
	fs := New(Plan{Rules: []Rule{{Op: OpSync, Nth: 2, Fault: Fault{Crash: true, Torn: 4, Corrupt: true}}}})
	f, _ := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	fs.SyncDir(dir)
	writeAll(t, f, []byte("keep"))
	f.Sync()
	writeAll(t, f, []byte("0123456789"))
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatal(err)
	}
	if err := fs.ApplyCrash(); err != nil {
		t.Fatal(err)
	}
	got := content(t, path)
	if len(got) != 8 {
		t.Fatalf("surviving length = %d, want 8", len(got))
	}
	if string(got[:4]) != "keep" {
		t.Fatalf("durable prefix corrupted: %q", got)
	}
	if string(got[4:]) == "0123" {
		t.Fatal("torn bytes not garbled")
	}
}

// A rename not followed by SyncDir rolls back on crash: the old
// destination content returns and the temp file reappears.
func TestRenameRollback(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, "snap.tmp")
	snap := filepath.Join(dir, "snap")
	if err := os.WriteFile(snap, []byte("old-snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs := New(Plan{Rules: []Rule{{Op: OpSyncDir, Nth: 2, Fault: Fault{Crash: true}}}})
	f, _ := fs.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	fs.SyncDir(dir) // durabilize the temp file's creation
	writeAll(t, f, []byte("new-snapshot"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(tmp, snap); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(dir); !errors.Is(err, ErrCrashed) {
		t.Fatalf("syncdir err = %v, want ErrCrashed", err)
	}
	if err := fs.ApplyCrash(); err != nil {
		t.Fatal(err)
	}
	if got := string(content(t, snap)); got != "old-snapshot" {
		t.Fatalf("snap = %q, want rollback to old-snapshot", got)
	}
	if got := string(content(t, tmp)); got != "new-snapshot" {
		t.Fatalf("tmp = %q, want new-snapshot restored", got)
	}
}

// A rename followed by SyncDir survives the crash.
func TestRenameDurableAfterSyncDir(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, "snap.tmp")
	snap := filepath.Join(dir, "snap")
	os.WriteFile(snap, []byte("old"), 0o644)
	fs := New(Plan{Rules: []Rule{{Op: OpSync, Path: "other", Fault: Fault{Crash: true}}}})
	f, _ := fs.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	fs.SyncDir(dir)
	writeAll(t, f, []byte("new"))
	f.Sync()
	if err := fs.Rename(tmp, snap); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	other, _ := fs.OpenFile(filepath.Join(dir, "other"), os.O_CREATE|os.O_WRONLY, 0o644)
	other.Write([]byte("x"))
	if err := other.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatal(err)
	}
	if err := fs.ApplyCrash(); err != nil {
		t.Fatal(err)
	}
	if got := string(content(t, snap)); got != "new" {
		t.Fatalf("snap = %q, want new (rename was durable)", got)
	}
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("tmp still exists after durable rename")
	}
}

// KeepRename: the crash hits at the rename but the dirent survives.
func TestRenameKeep(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, "snap.tmp")
	snap := filepath.Join(dir, "snap")
	os.WriteFile(snap, []byte("old"), 0o644)
	fs := New(Plan{Rules: []Rule{{Op: OpRename, Fault: Fault{Crash: true, KeepRename: true}}}})
	f, _ := fs.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	fs.SyncDir(dir)
	writeAll(t, f, []byte("new"))
	f.Sync()
	if err := fs.Rename(tmp, snap); !errors.Is(err, ErrCrashed) {
		t.Fatalf("rename err = %v, want ErrCrashed", err)
	}
	if err := fs.ApplyCrash(); err != nil {
		t.Fatal(err)
	}
	if got := string(content(t, snap)); got != "new" {
		t.Fatalf("snap = %q, want new (rename kept)", got)
	}
}

// A file created but never dir-synced vanishes on crash.
func TestCreateNotDurableWithoutSyncDir(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "newlog")
	fs := New(Plan{Rules: []Rule{{Op: OpSync, Nth: 2, Fault: Fault{Crash: true}}}})
	f, _ := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	writeAll(t, f, []byte("data"))
	f.Sync() // data fsync alone does not durabilize the dirent
	f.Sync()
	if err := fs.ApplyCrash(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("file created without SyncDir survived the crash")
	}
}

// Pending creates and renames undo from one journal, newest first. An
// atomic replace cut before its directory fsync leaves the old final
// file and no temp; a log renamed aside and recreated under its name,
// cut the same way, comes back whole at its name.
func TestApplyCrashUndoesDirentsNewestFirst(t *testing.T) {
	crashAtSyncDir := func(t *testing.T, dir, final, gone string, steps func(fs *FaultFS)) {
		t.Helper()
		if err := os.WriteFile(final, []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}
		fs := New(Plan{Rules: []Rule{{Op: OpSyncDir, Fault: Fault{Crash: true}}}})
		steps(fs)
		if err := fs.SyncDir(dir); !errors.Is(err, ErrCrashed) {
			t.Fatalf("syncdir err = %v, want ErrCrashed", err)
		}
		if err := fs.ApplyCrash(); err != nil {
			t.Fatal(err)
		}
		if got := string(content(t, final)); got != "old" {
			t.Fatalf("%s = %q after the crash, want old", filepath.Base(final), got)
		}
		if _, err := os.Stat(gone); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s survived the crash", filepath.Base(gone))
		}
	}
	t.Run("atomic-replace", func(t *testing.T) {
		dir := t.TempDir()
		final, tmp := filepath.Join(dir, "snap"), filepath.Join(dir, "snap.tmp")
		crashAtSyncDir(t, dir, final, tmp, func(fs *FaultFS) {
			f, _ := fs.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
			writeAll(t, f, []byte("new"))
			f.Sync()
			f.Close()
			if err := fs.Rename(tmp, final); err != nil {
				t.Fatal(err)
			}
		})
	})
	t.Run("rename-then-recreate", func(t *testing.T) {
		dir := t.TempDir()
		log, old := filepath.Join(dir, "log"), filepath.Join(dir, "log.old")
		crashAtSyncDir(t, dir, log, old, func(fs *FaultFS) {
			if err := fs.Rename(log, old); err != nil {
				t.Fatal(err)
			}
			f, _ := fs.OpenFile(log, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
			writeAll(t, f, []byte("new"))
			f.Sync()
			f.Close()
		})
	})
}

// Transient injected errors fail one operation; the filesystem keeps
// working. Sticky errors keep failing.
func TestInjectedErrors(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log")
	fs := New(Plan{Rules: []Rule{
		{Op: OpSync, Nth: 1, Fault: Fault{Err: true}},
	}})
	f, _ := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	fs.SyncDir(dir)
	writeAll(t, f, []byte("x"))
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("first sync err = %v, want ErrInjected", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("second sync err = %v, want nil (transient)", err)
	}

	fs2 := New(Plan{Rules: []Rule{{Op: OpSync, Fault: Fault{Err: true, Sticky: true}}}})
	f2, _ := fs2.OpenFile(filepath.Join(dir, "log2"), os.O_CREATE|os.O_WRONLY, 0o644)
	f2.Write([]byte("x"))
	for i := 0; i < 3; i++ {
		if err := f2.Sync(); !errors.Is(err, ErrInjected) {
			t.Fatalf("sticky sync #%d err = %v, want ErrInjected", i, err)
		}
	}
}

// The trace records mutating ops with stable global indexes, and AtOp
// rules target them exactly.
func TestTraceAndAtOp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log")
	run := func(plan Plan, trace bool) *FaultFS {
		fs := New(plan)
		if trace {
			fs.EnableTrace()
		}
		f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			return fs
		}
		if err := fs.SyncDir(dir); err != nil {
			return fs
		}
		for i := 0; i < 3; i++ {
			if _, err := f.Write([]byte("record")); err != nil {
				return fs
			}
			if err := f.Sync(); err != nil {
				return fs
			}
		}
		f.Close()
		return fs
	}
	fs := run(Plan{}, true)
	tr := fs.Trace()
	if len(tr) != 8 { // create, syncdir, 3 x (write, sync)
		t.Fatalf("trace length = %d, want 8: %+v", len(tr), tr)
	}
	for i, r := range tr {
		if r.Index != i+1 {
			t.Fatalf("trace index %d = %d", i, r.Index)
		}
		if !r.Mutates() {
			t.Fatalf("op %v unexpectedly non-mutating", r.Op)
		}
	}
	// Crash exactly at the 2nd write (global op 5).
	fs2 := run(Plan{Rules: []Rule{{AtOp: 5, Fault: Fault{Crash: true}}}}, false)
	if !fs2.Crashed() {
		t.Fatal("AtOp rule did not fire")
	}
	if err := fs2.ApplyCrash(); err != nil {
		t.Fatal(err)
	}
	if got := string(content(t, path)); got != "record" {
		t.Fatalf("surviving content = %q, want one record", got)
	}
}

// OS passthrough smoke: the production FS round-trips.
func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	f, err := OS.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := OS.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := OS.Rename(path, path+"2"); err != nil {
		t.Fatal(err)
	}
	r, err := OS.Open(path + "2")
	if err != nil {
		t.Fatal(err)
	}
	fi, err := r.Stat()
	if err != nil || fi.Size() != 5 {
		t.Fatalf("stat = %v, %v", fi, err)
	}
	r.Close()
	if err := OS.Remove(path + "2"); err != nil {
		t.Fatal(err)
	}
}
