package dist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"mvdb/internal/lock"
	"mvdb/internal/storage"
	"mvdb/internal/vc"
	"mvdb/internal/wal"
)

// Per-site durability: when Options.WALDir is set, every site appends one
// commit record per transaction it participates in — including an empty
// record when the transaction wrote nothing locally, because the record
// also persists the consumption of the transaction number, which must
// never be handed out again after a restart. Bootstrap data is logged as
// version-0 records. CrashSite/RecoverSite then model a fail-stop site:
// all in-memory state (store, counters, queue, locks) is discarded and
// rebuilt from the log.
//
// Model limits, stated honestly: crashes are taken at quiescent points
// (no transaction in flight at the crashing site). Crash-during-2PC needs
// a coordinator log and presumed-abort machinery that reference [3] might
// have specified but Section 6 does not sketch; it is out of scope and
// guarded against in tests rather than handled.

// siteLogPath names a site's commit log.
func siteLogPath(dir string, site int) string {
	return filepath.Join(dir, fmt.Sprintf("site-%d.log", site))
}

// openSiteLog attaches (creating or resuming) the log for one site.
func (c *Cluster) openSiteLog(s *Site) error {
	path := siteLogPath(c.opts.WALDir, s.id)
	validLen, err := replaySiteLog(path, nil)
	if err != nil {
		return err
	}
	w, err := wal.OpenAppend(path, validLen, wal.SyncNever)
	if err != nil {
		return err
	}
	s.wal = w
	return nil
}

// replaySiteLog replays the site log, invoking apply per record when it
// is non-nil, and returns the valid length.
func replaySiteLog(path string, apply func(wal.Record)) (int64, error) {
	return wal.Replay(path, func(r wal.Record) error {
		if apply != nil {
			apply(r)
		}
		return nil
	})
}

// logCommit appends a site-local commit record (possibly with an empty
// write set: the number consumption itself must be durable).
func (s *Site) logCommit(tn uint64, writes map[string]bufWrite) error {
	if s.wal == nil {
		return nil
	}
	rec := wal.Record{TN: tn, Writes: make([]wal.Write, 0, len(writes))}
	for k, w := range writes {
		rec.Writes = append(rec.Writes, wal.Write{Key: k, Value: w.data, Tombstone: w.tombstone})
	}
	return s.wal.Append(rec)
}

// logBootstrap persists a site's bootstrap key as a version-0 record.
func (s *Site) logBootstrap(key string, value []byte) error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Append(wal.Record{TN: 0, Writes: []wal.Write{{Key: key, Value: value}}})
}

// CrashSite models a fail-stop crash of one site: its volatile state is
// destroyed. The site rejects work until RecoverSite. It is the caller's
// responsibility that no transaction is in flight at the site (see the
// model limits above).
func (c *Cluster) CrashSite(id int) error {
	if c.opts.WALDir == "" {
		return errors.New("dist: CrashSite requires Options.WALDir (durable sites)")
	}
	if id < 0 || id >= len(c.sites) {
		return fmt.Errorf("dist: no site %d", id)
	}
	s := c.sites[id]
	s.regMu.Lock()
	defer s.regMu.Unlock()
	if s.wal != nil {
		s.wal.Close() // flush, then "lose power"
		s.wal = nil
	}
	s.store = nil
	s.vc = nil
	s.locks = nil
	s.crashed.Store(true)
	return nil
}

// RecoverSite rebuilds a crashed site from its commit log: every logged
// version is reinstalled and the version-control counters resume past the
// largest logged transaction number, so no number is ever reissued.
func (c *Cluster) RecoverSite(id int) error {
	if id < 0 || id >= len(c.sites) {
		return fmt.Errorf("dist: no site %d", id)
	}
	s := c.sites[id]
	s.regMu.Lock()
	defer s.regMu.Unlock()
	if !s.crashed.Load() {
		return fmt.Errorf("dist: site %d is not crashed", id)
	}
	store := storage.NewStore(0)
	var maxTN uint64
	path := siteLogPath(c.opts.WALDir, id)
	validLen, err := replaySiteLog(path, func(r wal.Record) {
		for _, w := range r.Writes {
			store.GetOrCreate(w.Key).InstallCommitted(storage.Version{
				TN: r.TN, Data: w.Value, Tombstone: w.Tombstone,
			})
		}
		if r.TN > maxTN {
			maxTN = r.TN
		}
	})
	if err != nil {
		return err
	}
	w, err := wal.OpenAppend(path, validLen, wal.SyncNever)
	if err != nil {
		return err
	}
	s.store = store
	s.vc = vc.NewStrided(maxTN, uint64(id), uint64(len(c.sites)))
	s.locks = lock.NewManager(lock.TimeoutPolicy, c.opts.LockTimeout)
	s.wal = w
	s.crashed.Store(false)
	return nil
}

// ensureWALDir prepares the durability directory.
func ensureWALDir(dir string) error {
	if dir == "" {
		return nil
	}
	return os.MkdirAll(dir, 0o755)
}
