// Durable open and checkpoint paths. A durable engine owns its commit
// log, the filesystem it goes through and the log's path: Close closes
// the log, Bootstrap and every commit append to it, and Checkpoint
// writes the snapshot beside it and is the one operation that drops the
// log's prefix. Everything in this file replaces a precious file only
// through AtomicReplace:
//
//	write <final>.tmp -> fsync it -> rename over <final> -> fsync directory
//
// retires log records only by renaming the live log aside (wal.Writer
// Rotate) and removing that file once a durable snapshot covers it, and
// reads it back through the same faultfs shim it was written
// through, so the crash-torture harness (internal/crashtest) can cut
// power at every one of these operations and recovery still satisfies
// the dual oracle: acknowledged commits survive, recovered state is a
// committed prefix.
package core

import (
	"bufio"
	"errors"
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

// OldPath returns the retired log file companion to a commit log: the
// prefix a checkpoint rotated aside and removes once its snapshot covers
// it.
func OldPath(walPath string) string { return walPath + ".old" }

// tmpPath is the scratch file AtomicReplace writes final's new content
// to. A crash between its creation and the rename leaves it behind;
// OpenDurable removes the snapshot's.
func tmpPath(final string) string { return final + ".tmp" }

// DurableOptions configures OpenDurable beyond the engine options.
type DurableOptions struct {
	// FS is the filesystem every durability-path operation goes through.
	// Nil selects the production passthrough (faultfs.OS); the crash
	// harness injects a faultfs.FaultFS.
	FS faultfs.FS
	// Policy is the commit log's sync policy; the zero value is group
	// commit (wal.SyncBatch).
	Policy wal.SyncPolicy
}

// OpenDurable recovers an engine from the commit log at walPath (plus
// its snapshot and its retired log, where they exist) and reopens the
// log for appending; the engine owns the log from then on. This is the
// one recovery entry point: mvdb.Open, the cluster's sites and the crash
// harness all use it, so the code path the torture tests exercise is the
// production one.
//
// Recovery is idempotent: a stale snapshot temp from an interrupted
// checkpoint is removed, then the live log is opened and, if it holds
// anything, fsynced while the rest runs (wal.OpenAppendWith). The
// snapshot's versions are installed as they are read, then the records
// above its horizon (all of them, version-0 bootstrap records included,
// without a snapshot) of the retired log and then of the live one. Once
// that fsync has returned, a torn tail of the live log (if any) is
// truncated and the truncation fsynced; only then is the version-control
// module built, with tnc just past the largest recovered transaction
// number, and the first append accepted: everything recovered is
// immediately visible, and durable.
func OpenDurable(walPath string, opts Options, d DurableOptions) (*Engine, error) {
	fsys := d.FS
	if fsys == nil {
		fsys = faultfs.OS
	}
	// A leftover temp is garbage by construction: the rename never
	// happened, so the final file is still authoritative.
	tmp := tmpPath(SnapPath(walPath))
	if _, err := fsys.Stat(tmp); err == nil {
		if err := fsys.Remove(tmp); err != nil {
			return nil, fmt.Errorf("core: remove stale %s: %w", tmp, err)
		}
	}
	e := newUnstarted(opts)
	var maxTN uint64
	install := func(r wal.Record) {
		for _, w := range r.Writes {
			e.store.GetOrCreate(w.Key).InstallCommitted(storage.Version{
				TN: r.TN, Data: w.Value, Tombstone: w.Tombstone,
			})
		}
		maxTN = max(maxTN, r.TN)
	}
	var err error
	e.log, err = wal.OpenAppendWith(walPath, wal.Options{Policy: d.Policy, FS: fsys}, func() (int64, error) {
		horizon, snap, err := LoadSnapshot(fsys, SnapPath(walPath), install)
		maxTN = max(maxTN, horizon)
		replay := func(r wal.Record) error {
			if !snap || r.TN > horizon { // else the snapshot already holds it
				install(r)
			}
			return nil
		}
		if err == nil {
			_, err = wal.ReplayFS(fsys, OldPath(walPath), replay)
		}
		if err != nil {
			return 0, err
		}
		return wal.ReplayFS(fsys, walPath, replay)
	})
	if err != nil {
		return nil, fmt.Errorf("core: recover: %w", err)
	}
	e.vc = newController(e.opts, maxTN)
	e.oldBound = maxTN
	if e.store.Len() > 0 {
		e.bootstrapSealed.Store(true)
	}
	e.fsys, e.walPath = fsys, walPath
	e.observeWAL(e.log)
	return e, nil
}

// LoadSnapshot reads the snapshot file at path through fsys, handing each version it holds to fn (nil: none) as it
// reads it, and returns its horizon with ok set, or ok false if none
// exists. A snapshot's horizon may be 0, covering version-0 (bootstrap)
// records.
func LoadSnapshot(fsys faultfs.FS, path string, fn func(wal.Record)) (horizon uint64, ok bool, err error) {
	validLen, err := wal.ReplayFS(fsys, path, func(r wal.Record) error {
		switch {
		case !ok:
			ok, horizon = true, r.TN
		case fn != nil:
			fn(r)
		}
		return nil
	})
	if err != nil {
		return 0, false, err
	}
	// Snapshots are only ever produced whole (AtomicReplace), so a torn
	// tail here means the file is damaged in a way our own crash windows
	// cannot produce. Refusing it is the only safe answer: restoring a
	// partial snapshot would drop keys whose records went with a retired
	// log.
	if fi, serr := fsys.Stat(path); serr == nil && fi.Size() != validLen {
		return 0, false, fmt.Errorf("core: snapshot %s torn or corrupt (%d of %d bytes intact)", path, validLen, fi.Size())
	}
	return horizon, ok, nil
}

// Checkpoint writes a consistent snapshot of the engine's committed
// state at the current visibility horizon (vtnc) to SnapPath of its log,
// through AtomicReplace, so at every instant exactly one intact snapshot
// (the old or the new) is durable, and drops the log prefix the snapshot
// covers. The horizon is a fully committed prefix of the serial order by
// the Transaction Visibility Property, so this runs safely under any
// concurrent transaction load and never waits for a transaction. Each
// key's version is written as the store walk reaches it; the horizon
// stays published in the registry until the file is in place, so
// collection keeps every version the walk has still to write.
//
// Checkpoints run one at a time. Unless an earlier one left a retired
// log (OldPath), this one first rotates the live log into it and takes
// tnc-1 as its bound: every record in it was enqueued after its
// transaction registered, so its number is at most that. Once the
// snapshot is durable, a horizon at or above the bound holds every such
// record's effect, and the retired log is removed; below it, the file
// stays for the next checkpoint to retire. A checkpoint that retires a
// file it did not rotate then rotates the live log into its place, with
// a new bound, unless the live log is empty: so the next checkpoint can
// retire it in turn, and the log never holds more than what was logged
// since the checkpoint before last ended (DESIGN §8.2).
func (e *Engine) Checkpoint() error {
	if e.log == nil {
		return errors.New("core: Checkpoint requires a commit log")
	}
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	start := time.Now()
	// Rotate and Flush both leave the log durable up to here, so the
	// snapshot never runs ahead of it.
	old := OldPath(e.walPath)
	rotate := func() (err error) {
		if err = e.log.Rotate(old); err == nil {
			e.oldBound = e.vc.TNC() - 1
		}
		return err
	}
	_, err := e.fsys.Stat(old)
	rotated := errors.Is(err, os.ErrNotExist)
	if rotated {
		err = rotate()
	} else {
		err = e.log.Flush()
	}
	if err != nil {
		return err
	}
	slot, sn := e.snapshot(0, 0, false)
	defer e.roActive.Unpublish(slot)
	err = AtomicReplace(e.fsys, SnapPath(e.walPath), func(bw *bufio.Writer) error {
		_, err := wal.WriteRecord(bw, wal.Record{TN: sn}) // first record: the horizon
		var w [1]wal.Write
		e.store.Range(func(key string, o *storage.Object) bool {
			if err != nil {
				return false
			}
			// A key the horizon cannot read fails the checkpoint:
			// skipping it would write a snapshot that silently lacks it.
			v, ok, verr := visible(o, sn)
			if err = verr; ok {
				w[0] = wal.Write{Key: key, Value: v.Data, Tombstone: v.Tombstone}
				_, err = wal.WriteRecord(bw, wal.Record{TN: v.TN, Writes: w[:]})
			}
			return err == nil
		})
		return err
	})
	if err == nil && sn >= e.oldBound {
		if err = e.fsys.Remove(old); err == nil {
			err = e.fsys.SyncDir(filepath.Dir(old))
		}
		if err == nil && !rotated && e.log.Size() > 0 {
			err = rotate()
		}
	}
	if err != nil {
		return fmt.Errorf("core: checkpoint at %d: %w", sn, err)
	}
	end := time.Now()
	e.stats.CheckpointDurationNanos.Set(end.Sub(start).Nanoseconds())
	e.stats.CheckpointLastUnixNanos.Set(end.UnixNano())
	return nil
}

// AtomicReplace replaces the file final, through fsys (nil =
// faultfs.OS), with what write puts in it: write fills tmpPath(final)
// through a buffer, which is flushed and fsynced before a rename puts
// it in final's place, and the parent directory is fsynced after, so at
// every instant either the old file or the whole new one is durable
// under the final name — never a hybrid. Without the directory fsync the
// rename's entry may not survive a power cut, and the file would
// silently revert. On any error before the rename the temp file is
// removed best-effort. Checkpoints and the flight recorder's bundles
// both go through it.
func AtomicReplace(fsys faultfs.FS, final string, write func(*bufio.Writer) error) error {
	if fsys == nil {
		fsys = faultfs.OS
	}
	tmp := tmpPath(final)
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, final)
	}
	if err != nil {
		_ = fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(filepath.Dir(final))
}
