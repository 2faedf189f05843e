// Package gc implements garbage collection of old versions, following the
// paper's Section 6: "the only restriction the version control mechanism
// imposes on the garbage collection scheme is that it must not discard any
// version of objects as young as or younger than vtnc" — refined here, as
// the paper suggests, by also keeping everything an active read-only
// transaction can still reach.
//
// The collector is deliberately independent of the concurrency control
// component (it only consults the version control module and the read-only
// registry), which is exactly the separation the paper calls "quite
// elegant and desirable": the concurrency control component is not
// overloaded with auxiliary functions, and the garbage collection scheme
// never interacts with read-write transactions.
package gc

import (
	"sync"
	"sync/atomic"
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

// Collector prunes unreachable versions.
type Collector struct {
	src      Source
	interval time.Duration

	mu      sync.Mutex
	stop    chan struct{}
	done    chan struct{}
	running bool

	pruned atomic.Uint64
	passes atomic.Uint64

	// onPass observes completed collection passes; see SetOnPass.
	onPass func(reclaimed int, watermark uint64, elapsed time.Duration)
	// onChain observes per-object version-chain lengths; see
	// SetChainObserver.
	onChain func(depth int)
}

// SetOnPass installs fn, invoked after every collection pass with the
// number of versions reclaimed, the watermark used, and the pass
// duration — the observability hook that feeds GC counters and trace
// events. Set it before Start; it runs on the collector goroutine (or
// the caller of Collect).
func (c *Collector) SetOnPass(fn func(reclaimed int, watermark uint64, elapsed time.Duration)) {
	c.onPass = fn
}

// SetChainObserver installs fn, invoked once per object per collection
// pass with the object's version-chain length as GC found it (before
// pruning). It feeds the chain-length histogram: the distribution of
// retained-version depth the collector is actually walking, which is the
// leading indicator of GC falling behind the update rate. Set it before
// Start; it runs on the collector goroutine with no store locks beyond
// the object's own.
func (c *Collector) SetChainObserver(fn func(depth int)) {
	c.onChain = fn
}

// New creates a collector. interval is the background period for Start
// (zero selects 10ms; Collect can always be called manually).
func New(src Source, interval time.Duration) *Collector {
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	return &Collector{src: src, interval: interval}
}

// Watermark computes the highest transaction number below which old
// versions are unreachable: the minimum of vtnc and the oldest active
// read-only start number. For every object the newest version <= the
// watermark is kept (some snapshot at the watermark may read it);
// everything older is discarded.
//
// vtnc is read BEFORE the registry is scanned, and a read-only begin
// publishes itself BEFORE it takes its snapshot (core.beginReadOnly).
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
	start := time.Now()
	w := c.Watermark()
	n := 0
	c.src.Store().Range(func(_ string, o *storage.Object) bool {
		if c.onChain != nil {
			c.onChain(o.VersionCount())
		}
		n += o.Prune(w)
		return true
	})
	c.pruned.Add(uint64(n))
	c.passes.Add(1)
	if c.onPass != nil {
		c.onPass(n, w, time.Since(start))
	}
	return n
}

// Start launches the background collection loop. It is a no-op if the
// collector is already running.
func (c *Collector) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.running {
		return
	}
	c.running = true
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		t := time.NewTicker(c.interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				c.Collect()
			}
		}
	}(c.stop, c.done)
}

// Stop halts the background loop and waits for it to exit.
func (c *Collector) Stop() {
	c.mu.Lock()
	if !c.running {
		c.mu.Unlock()
		return
	}
	c.running = false
	stop, done := c.stop, c.done
	c.mu.Unlock()
	close(stop)
	<-done
}

// Pruned returns the total number of versions discarded.
func (c *Collector) Pruned() uint64 { return c.pruned.Load() }

// Passes returns the number of collection passes performed.
func (c *Collector) Passes() uint64 { return c.passes.Load() }
