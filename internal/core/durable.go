// Durable open/checkpoint/compaction paths. A durable engine owns its
// commit log, the filesystem it goes through and the log's path: Close
// closes the log, Bootstrap and every commit append to it, and Checkpoint
// writes the snapshot beside it. Everything in this file replaces a
// precious file only through AtomicReplace:
//
//	write <final>.tmp -> fsync it -> rename over <final> -> fsync directory
//
// and reads it back through the same faultfs shim it was written
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

// tmpPath is the scratch file AtomicReplace writes final's new content
// to. A crash between its creation and the rename leaves it behind;
// OpenDurable removes the log's and the snapshot's.
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
// its snapshot, if one exists) and reopens the log for appending; the
// engine owns the log from then on. This is the one recovery entry
// point: mvdb.Open, the cluster's sites and the crash harness all use
// it, so the code path the torture tests exercise is the production one.
//
// Recovery is idempotent: stale temp files from an interrupted
// checkpoint or compaction are removed, the torn log tail (if any) is
// truncated and the truncation fsynced before the first new append is
// accepted. The snapshot's versions are installed as they are read, then
// the log's records above its horizon (all of them, version-0 bootstrap
// records included, without a snapshot), and only then is the
// version-control module built, with tnc just past the largest recovered
// transaction number: everything recovered is immediately visible.
func OpenDurable(walPath string, opts Options, d DurableOptions) (*Engine, error) {
	fsys := d.FS
	if fsys == nil {
		fsys = faultfs.OS
	}
	// A leftover temp is garbage by construction: the rename never
	// happened, so the final file is still authoritative.
	for _, tmp := range []string{tmpPath(SnapPath(walPath)), tmpPath(walPath)} {
		if _, err := fsys.Stat(tmp); err == nil {
			if err := fsys.Remove(tmp); err != nil {
				return nil, fmt.Errorf("core: remove stale %s: %w", tmp, err)
			}
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
	horizon, snap, err := LoadSnapshot(fsys, SnapPath(walPath), install)
	if err != nil {
		return nil, fmt.Errorf("core: read snapshot: %w", err)
	}
	maxTN = max(maxTN, horizon)
	validLen, err := wal.ReplayFS(fsys, walPath, func(r wal.Record) error {
		if !snap || r.TN > horizon { // else the snapshot already holds it
			install(r)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: recover: %w", err)
	}
	e.startVC(maxTN)
	if e.store.Len() > 0 {
		e.bootstrapSealed.Store(true)
	}
	if e.log, err = wal.OpenAppendWith(walPath, validLen, wal.Options{Policy: d.Policy, FS: fsys}); err != nil {
		return nil, fmt.Errorf("core: open log: %w", err)
	}
	e.fsys, e.walPath = fsys, walPath
	e.observeWAL(e.log)
	return e, nil
}

// LoadSnapshot reads the snapshot file at path through fsys (nil =
// faultfs.OS), handing each version it holds to fn (nil: none) as it
// reads it, and returns its horizon with ok set, or ok false if none
// exists. A snapshot's horizon may be 0, covering version-0 (bootstrap)
// records.
func LoadSnapshot(fsys faultfs.FS, path string, fn func(wal.Record)) (horizon uint64, ok bool, err error) {
	if fsys == nil {
		fsys = faultfs.OS
	}
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
	// partial snapshot would drop keys the compacted log no longer
	// carries.
	if fi, serr := fsys.Stat(path); serr == nil && fi.Size() != validLen {
		return 0, false, fmt.Errorf("core: snapshot %s torn or corrupt (%d of %d bytes intact)", path, validLen, fi.Size())
	}
	return horizon, ok, nil
}

// Checkpoint writes a consistent snapshot of the engine's committed
// state at the current visibility horizon (vtnc) to SnapPath of its log,
// through AtomicReplace, so at every instant exactly one intact snapshot
// (the old or the new) is durable. The horizon is a fully committed
// prefix of the serial order by the Transaction Visibility Property, so
// this runs safely under any concurrent transaction load. Each key's
// version is written as the store walk reaches it; the horizon stays
// published in the registry until the file is in place, so collection
// keeps every version the walk has still to write.
func (e *Engine) Checkpoint() error {
	if e.log == nil {
		return errors.New("core: Checkpoint requires a commit log")
	}
	start := time.Now()
	// The log must durably cover everything the snapshot claims (records
	// <= horizon are skipped on restore only when the snapshot supplies
	// them).
	if err := e.log.Flush(); err != nil {
		return err
	}
	slot, sn := e.snapshot(0, 0, false)
	defer e.roActive.Unpublish(slot)
	err := AtomicReplace(e.fsys, SnapPath(e.walPath), func(bw *bufio.Writer) error {
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
	if err != nil {
		return fmt.Errorf("core: checkpoint at %d: %w", sn, err)
	}
	end := time.Now()
	e.stats.CheckpointDurationNanos.Set(end.Sub(start).Nanoseconds())
	e.stats.CheckpointLastUnixNanos.Set(end.UnixNano())
	return nil
}

// Compact rewrites the commit log at walPath through fsys (nil =
// faultfs.OS), dropping every record already covered by its snapshot
// (TN <= the snapshot horizon) and streaming the rest into the new log.
// It must run offline — no engine open on the log — and is a no-op
// without a snapshot. The replacement goes through AtomicReplace: a
// crash anywhere leaves either the full old log or the compacted one,
// never a hybrid.
func Compact(fsys faultfs.FS, walPath string) error {
	if fsys == nil {
		fsys = faultfs.OS
	}
	horizon, _, err := LoadSnapshot(fsys, SnapPath(walPath), nil)
	if err != nil {
		return fmt.Errorf("core: compact: read snapshot: %w", err)
	}
	if horizon == 0 {
		return nil
	}
	return AtomicReplace(fsys, walPath, func(bw *bufio.Writer) error {
		_, err := wal.ReplayFS(fsys, walPath, func(r wal.Record) error {
			if r.TN <= horizon {
				return nil
			}
			_, err := wal.WriteRecord(bw, r)
			return err
		})
		return err
	})
}

// AtomicReplace replaces the file final, through fsys (nil =
// faultfs.OS), with what write puts in it: write fills tmpPath(final)
// through a buffer, which is flushed and fsynced before a rename puts
// it in final's place, and the parent directory is fsynced after, so at
// every instant either the old file or the whole new one is durable
// under the final name — never a hybrid. Without the directory fsync the
// rename's entry may not survive a power cut, and the file would
// silently revert. On any error before the rename the temp file is
// removed best-effort. Checkpoints, log compaction and the flight
// recorder's bundles all go through it.
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
