package dist

import (
	"errors"
	"fmt"
	"path/filepath"
)

// Per-site durability: with Options.WALDir set, core.OpenDurable opens
// each site on its own commit log, and the site commits through the log
// the way a standalone durable engine does — group commit under the
// default durable policy, so a site acknowledges its part of a commit
// only once the record is fsynced. A part that wrote nothing still logs
// a record: it persists the consumption of the transaction number, which
// must never be handed out again after a restart. Bootstrap data goes
// through the same log, as a version-0 record (core.Engine.Bootstrap).
// CrashSite/RecoverSite model a fail-stop site: its engine — store,
// counters, queue, locks, log — is discarded, and OpenDurable rebuilds it
// from the log.
//
// What is still out of reach: crashes are taken at quiescent points (no
// transaction in flight at the crashing site). A crash, or a failed log
// write, between a transaction's vote and the last of its parts' commits
// can leave it committed at some sites only; surviving one needs the
// coordinator to log its decision, and a recovering site to hold an
// in-doubt part's locks until it learns the outcome (presumed abort). That
// is the second half of ROADMAP.md's item 9; until then a part that fails
// to commit stops the process.

// siteLogPath names a site's commit log.
func siteLogPath(dir string, site int) string {
	return filepath.Join(dir, fmt.Sprintf("site-%d.log", site))
}

// CrashSite models a fail-stop crash of one site: its engine is
// destroyed. The site rejects work until RecoverSite. It is the caller's
// responsibility that no transaction is in flight at the site (see the
// model limits above), so every record the site acknowledged is already
// durable and closing its log only gives back the file.
func (c *Cluster) CrashSite(id int) error {
	if c.opts.WALDir == "" {
		return errors.New("dist: CrashSite requires Options.WALDir (durable sites)")
	}
	if id < 0 || id >= len(c.sites) {
		return fmt.Errorf("dist: no site %d", id)
	}
	s := c.sites[id]
	s.gate.Lock()
	defer s.gate.Unlock()
	e := s.Engine()
	if e == nil {
		return fmt.Errorf("dist: site %d is already crashed", id)
	}
	_ = e.Close() // whatever its log would report is lost with the site
	s.e.Store(nil)
	return nil
}

// RecoverSite rebuilds a crashed site from its commit log through
// core.OpenDurable: every logged version is reinstalled and the
// version-control counters resume past the largest logged transaction
// number, so no number is ever reissued. A filler then takes the site's
// horizon to the high-water mark or past it: fillers that had taken it
// further before the crash were never logged, and the other sites may
// have collected up to the mark, which a snapshot anchored here must not
// read below.
func (c *Cluster) RecoverSite(id int) error {
	if id < 0 || id >= len(c.sites) {
		return fmt.Errorf("dist: no site %d", id)
	}
	s := c.sites[id]
	s.gate.Lock()
	defer s.gate.Unlock()
	if s.Engine() != nil {
		return fmt.Errorf("dist: site %d is not crashed", id)
	}
	if err := c.open(s); err != nil {
		return err
	}
	s.fill(max(c.hwm.Load(), s.strict().Reserve()))
	c.hold()
	return nil
}
