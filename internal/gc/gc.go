// Package gc implements garbage collection of old versions, following the
// paper's Section 6: "the only restriction the version control mechanism
// imposes on the garbage collection scheme is that it must not discard any
// version of objects as young as or younger than vtnc" — refined here, as
// the paper suggests, by also keeping everything an active read-only
// transaction can still reach.
//
// Most collection happens in commits: once a logged engine commit
// completes it drops the versions it superseded that no snapshot can
// reach, and any commit that finds a version chain's array full first
// drops them too (storage.Object.Install). A Collector pass is the sweep
// for what those leave: keys nobody writes again.
//
// The collector is deliberately independent of the concurrency control
// component (it only consults the version control module and the read-only
// registry), which is exactly the separation the paper calls "quite
// elegant and desirable": the concurrency control component is not
// overloaded with auxiliary functions, and the garbage collection scheme
// never interacts with read-write transactions.
package gc

import (
	"time"

	"mvdb/internal/storage"
)

// Source is what the collector needs from an engine: the store, the
// current visibility horizon, and the oldest snapshot still in use.
type Source interface {
	// Store returns the version store to prune.
	Store() *storage.Store
	// VC is not required directly; the horizon is.
	// VTNC returns the current visible transaction number counter.
	VTNC() uint64
	// MinActiveReadOnlySN returns the smallest start number among active
	// read-only transactions, and whether any are active.
	MinActiveReadOnlySN() (uint64, bool)
}

// Collector prunes unreachable versions. It keeps no counters: callers
// count passes and reclaimed versions from Collect's return value.
type Collector struct {
	src Source
}

// New creates a collector. The interval is unused: there is no
// background loop, collection runs in commits and in Collect.
func New(src Source, interval time.Duration) *Collector {
	return &Collector{src: src}
}

// Watermark computes the highest transaction number below which old
// versions are unreachable: the minimum of vtnc and the oldest active
// read-only start number. For every object the newest version <= the
// watermark is kept (some snapshot at the watermark may read it);
// everything older is discarded.
//
// vtnc is read BEFORE the registry is scanned, and a read-only begin
// publishes itself BEFORE it takes its snapshot (core's snapshot).
// Together: a transaction the scan misses published after the scan, so
// took its snapshot after it too, at a vtnc no older than the one read
// here — the watermark never exceeds the snapshot of a transaction it
// did not see.
func (c *Collector) Watermark() uint64 {
	w := c.src.VTNC()
	if sn, ok := c.src.MinActiveReadOnlySN(); ok && sn < w {
		w = sn
	}
	return w
}

// Collect performs one pruning pass and returns the number of versions
// discarded.
func (c *Collector) Collect() int {
	w := c.Watermark()
	n := 0
	c.src.Store().Range(func(_ string, o *storage.Object) bool {
		n += o.Prune(w)
		return true
	})
	return n
}
