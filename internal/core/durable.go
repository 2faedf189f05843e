// Durable open/checkpoint/compaction paths: everything in this file
// replaces a precious file only by the crash-atomic sequence
//
//	write temp file -> fsync temp -> rename over final -> fsync directory
//
// and reads it back through the same faultfs shim it was written
// through, so the crash-torture harness (internal/crashtest) can cut
// power at every one of these operations and recovery still satisfies
// the dual oracle: acknowledged commits survive, recovered state is a
// committed prefix.
package core

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mvdb/internal/faultfs"
	"mvdb/internal/storage"
	"mvdb/internal/wal"
)

// SnapPath returns the snapshot file companion to a commit log.
func SnapPath(walPath string) string { return walPath + ".snap" }

// snapTmpPath and compactTmpPath are the scratch files of the two
// atomic-replace sequences; OpenDurable removes stale ones (a crash
// between their creation and the rename leaves them behind).
func snapTmpPath(walPath string) string    { return SnapPath(walPath) + ".tmp" }
func compactTmpPath(walPath string) string { return walPath + ".compact.tmp" }

// DurableOptions configures OpenDurable beyond the engine options.
type DurableOptions struct {
	// FS is the filesystem every durability-path operation goes through.
	// Nil selects the production passthrough (faultfs.OS); the crash
	// harness injects a faultfs.FaultFS.
	FS faultfs.FS
	// WAL configures the reopened commit log (sync policy, group-commit
	// batching). WAL.FS is overridden with FS above.
	WAL wal.Options
}

// OpenDurable recovers an engine from the commit log at walPath (plus
// its snapshot, if one exists) and reopens the log for appending, with
// the log writer already attached to the engine. This is the one
// recovery entry point: mvdb.Open and the crash harness both use it, so
// the code path the torture tests exercise is the production one.
//
// Recovery is idempotent: stale temp files from an interrupted
// checkpoint or compaction are removed, the torn log tail (if any) is
// truncated and the truncation fsynced before the first new append is
// accepted.
func OpenDurable(walPath string, coreOpts Options, d DurableOptions) (*Engine, *wal.Writer, error) {
	fsys := d.FS
	if fsys == nil {
		fsys = faultfs.OS
	}
	// A crash between temp-file creation and rename leaves the temp
	// behind; it is garbage by construction (the rename never happened,
	// so the final file is still authoritative).
	for _, tmp := range []string{snapTmpPath(walPath), compactTmpPath(walPath)} {
		if _, err := fsys.Stat(tmp); err == nil {
			if err := fsys.Remove(tmp); err != nil {
				return nil, nil, fmt.Errorf("core: remove stale %s: %w", tmp, err)
			}
		}
	}
	horizon, snapRecs, snap, err := LoadSnapshot(fsys, SnapPath(walPath))
	if err != nil {
		return nil, nil, fmt.Errorf("core: read snapshot: %w", err)
	}
	e, validLen, err := RestoreFS(fsys, snapRecs, horizon, snap, walPath, coreOpts)
	if err != nil {
		return nil, nil, fmt.Errorf("core: recover: %w", err)
	}
	walOpts := d.WAL
	walOpts.FS = fsys
	log, err := wal.OpenAppendWith(walPath, validLen, walOpts)
	if err != nil {
		return nil, nil, fmt.Errorf("core: open log: %w", err)
	}
	if err := e.SetWAL(log); err != nil {
		log.Close()
		return nil, nil, err
	}
	return e, log, nil
}

// LoadSnapshot reads a snapshot file through fsys (nil = faultfs.OS),
// returning its horizon and per-key versions with ok set, or ok false if
// none exists. A snapshot's horizon may be 0, covering version-0
// (bootstrap) records.
func LoadSnapshot(fsys faultfs.FS, path string) (horizon uint64, recs []wal.Record, ok bool, err error) {
	if fsys == nil {
		fsys = faultfs.OS
	}
	validLen, err := wal.ReplayFS(fsys, path, func(r wal.Record) error {
		if !ok {
			ok = true
			horizon = r.TN
			return nil
		}
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		return 0, nil, false, err
	}
	// Snapshots are only ever produced whole (temp + fsync + rename +
	// dir fsync), so a torn tail here means the file is damaged in a way
	// our own crash windows cannot produce. Refusing it is the only safe
	// answer: silently restoring a partial snapshot would drop keys the
	// compacted log no longer carries.
	if fi, serr := fsys.Stat(path); serr == nil && fi.Size() != validLen {
		return 0, nil, false, fmt.Errorf("core: snapshot %s torn or corrupt (%d of %d bytes intact)", path, validLen, fi.Size())
	}
	return horizon, recs, ok, nil
}

// RestoreFS rebuilds an engine from a base state (a checkpoint snapshot,
// if snap) plus the write-ahead log at path, read through fsys (nil =
// faultfs.OS): crash recovery replays through the same shim the writer
// wrote through. With a snapshot, log records with TN <= horizon are
// skipped, since the base already reflects them; without one, every
// record is replayed, version-0 ones included. Base records are installed
// verbatim. Version control resumes with tnc just past the largest
// recovered transaction number (everything recovered is immediately
// visible). It returns the engine and the valid log length to pass to
// wal.OpenAppendWith.
func RestoreFS(fsys faultfs.FS, base []wal.Record, horizon uint64, snap bool, path string, opts Options) (*Engine, int64, error) {
	if fsys == nil {
		fsys = faultfs.OS
	}
	e := New(opts)
	maxTN := horizon
	install := func(r wal.Record) {
		for _, w := range r.Writes {
			e.store.GetOrCreate(w.Key).InstallCommitted(storage.Version{
				TN: r.TN, Data: w.Value, Tombstone: w.Tombstone,
			})
		}
		if r.TN > maxTN {
			maxTN = r.TN
		}
	}
	for _, r := range base {
		install(r)
	}
	validLen, err := wal.ReplayFS(fsys, path, func(r wal.Record) error {
		if snap && r.TN <= horizon {
			return nil // covered by the base snapshot
		}
		install(r)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	e.vc = newController(e.opts, maxTN)
	e.observeVC() // the replaced controller needs the sinks' taps rewired
	return e, validLen, nil
}

// WriteSnapshot writes a consistent snapshot of the engine's committed
// state at the current visibility horizon (vtnc) to SnapPath(walPath),
// crash-atomically: the snapshot content is fsynced in a temp file
// before a rename installs it, and the parent directory is fsynced
// after, so at every instant exactly one intact snapshot (the old or
// the new) is durable. The horizon is a fully committed prefix of the
// serial order by the Transaction Visibility Property, so this runs
// safely under any concurrent transaction load.
func (e *Engine) WriteSnapshot(fsys faultfs.FS, walPath string) error {
	start := time.Now()
	if fsys == nil {
		fsys = faultfs.OS
	}
	if e.opts.WAL != nil {
		// The log must durably cover everything the snapshot claims
		// (records <= horizon are skipped on restore only when the
		// snapshot supplies them).
		if err := e.opts.WAL.Flush(); err != nil {
			return err
		}
	}
	// The horizon is a snapshot like a View's, and is published the same
	// way, or a concurrent collection prunes versions it still has to
	// read. A key it cannot read fails the checkpoint: skipping it would
	// write a snapshot that silently lacks the key.
	slot, sn := e.snapshot(0, 0, false)
	recs := make([]wal.Record, 0, 64)
	recs = append(recs, wal.Record{TN: sn}) // first record: the horizon
	var err error
	e.store.Range(func(key string, o *storage.Object) bool {
		v, ok, verr := visible(o, sn)
		if err = verr; !ok {
			return err == nil
		}
		recs = append(recs, wal.Record{TN: v.TN, Writes: []wal.Write{{
			Key: key, Value: v.Data, Tombstone: v.Tombstone,
		}}})
		return true
	})
	// recs holds every value it writes: collection may go on while the
	// file is written.
	e.roActive.Unpublish(slot)
	if err != nil {
		return fmt.Errorf("core: checkpoint at %d: %w", sn, err)
	}
	if err := atomicWriteLog(fsys, snapTmpPath(walPath), SnapPath(walPath), recs); err != nil {
		return err
	}
	end := time.Now()
	e.stats.CheckpointDurationNanos.Set(end.Sub(start).Nanoseconds())
	e.stats.CheckpointLastUnixNanos.Set(end.UnixNano())
	return nil
}

// Compact rewrites the commit log at walPath through fsys (nil =
// faultfs.OS), dropping every record already covered by its snapshot
// (TN <= the snapshot horizon). It must run offline — no engine open on
// the log — and is a no-op without a snapshot. The replacement is
// crash-atomic by the same temp+fsync+rename+dirsync sequence as
// WriteSnapshot: a crash anywhere leaves either the full old log or the
// compacted one, never a hybrid.
func Compact(fsys faultfs.FS, walPath string) error {
	if fsys == nil {
		fsys = faultfs.OS
	}
	horizon, _, _, err := LoadSnapshot(fsys, SnapPath(walPath))
	if err != nil {
		return fmt.Errorf("core: compact: read snapshot: %w", err)
	}
	if horizon == 0 {
		return nil
	}
	var keep []wal.Record
	if _, err := wal.ReplayFS(fsys, walPath, func(r wal.Record) error {
		if r.TN > horizon {
			keep = append(keep, r)
		}
		return nil
	}); err != nil {
		return fmt.Errorf("core: compact: read log: %w", err)
	}
	return atomicWriteLog(fsys, compactTmpPath(walPath), walPath, keep)
}

// AtomicReplace writes data to final through fsys (nil = faultfs.OS)
// via the same crash-atomic replace sequence as the checkpoint path:
// write a temp file, fsync it, rename over final, fsync the parent
// directory. At every instant either the old file or the whole new one
// is durable under the final name — never a hybrid. The flight
// recorder writes its postmortem bundles through this.
func AtomicReplace(fsys faultfs.FS, final string, data []byte) error {
	if fsys == nil {
		fsys = faultfs.OS
	}
	tmp := final + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		f.Close()
		_ = fsys.Remove(tmp)
		return err
	}
	if _, err := f.Write(data); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		_ = fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, final); err != nil {
		_ = fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(filepath.Dir(final))
}

// atomicWriteLog writes recs as a log file at final via the
// crash-atomic replace sequence: create tmp, append, fsync (the log
// writer's Close), rename over final, fsync the parent directory. On
// any error the temp file is removed best-effort.
func atomicWriteLog(fsys faultfs.FS, tmp, final string, recs []wal.Record) error {
	w, err := wal.CreateWith(tmp, wal.Options{Policy: wal.SyncNever, FS: fsys})
	if err != nil {
		return err
	}
	fail := func(err error) error {
		_ = fsys.Remove(tmp)
		return err
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			w.Close()
			return fail(err)
		}
	}
	// Close flushes and fsyncs: the content is durable before the rename
	// can make it reachable under the final name.
	if err := w.Close(); err != nil {
		return fail(err)
	}
	if err := fsys.Rename(tmp, final); err != nil {
		return fail(err)
	}
	// Without this, the rename's directory entry may not survive a power
	// cut — the file would silently revert to the old version.
	if err := fsys.SyncDir(filepath.Dir(final)); err != nil {
		return err
	}
	return nil
}
