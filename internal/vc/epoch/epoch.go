// Package epoch implements the Version Control module's contract
// (internal/vc.Controller) with decentralized, batched visibility, after
// the epoch/watermark designs of Faleiro & Abadi ("Rethinking
// serializable multiversion concurrency control") and "Decentralizing
// Multiversion Concurrency Control by Leveraging Visibility".
//
// The strict controller funnels every register, complete, and discard
// through one mutex and one ordered queue — the paper's Figure 1, and
// (per EXPERIMENTS O3) the hard ceiling on multi-core commit
// throughput. This implementation keeps the module's two properties
// while removing that funnel:
//
//   - Assignment stays *globally ordered* through a single wait-free
//     atomic fetch-add on tnc. This is deliberate, and weaker than the
//     fully per-worker tn blocks of the cited designs: the 2PL engine
//     registers at the lock-point and the OCC engine inside its
//     validation critical section, and both rely on conflicting
//     transactions' tn order agreeing with their registration order. tn
//     blocks handed out per worker would let a later lock-point receive
//     a smaller tn and break serializability (the MVSG checkers catch
//     exactly this). One uncontended fetch-add is the minimum global
//     coordination that preserves the Transaction Ordering Property for
//     all three protocols; everything *after* assignment is
//     decentralized.
//
//   - Completion tracking is per-lane. tn space is interleaved across P
//     lanes (lane = tn mod P, P a power of two); each lane owns a fixed
//     ring of slots and a *frontier*, the smallest tn in its residue
//     class not yet known resolved. Completing or discarding flips one
//     slot and drains only its own lane under that lane's short mutex —
//     completions in different lanes never touch the same cache lines.
//
//   - Visibility advances by watermark. The visible horizon is
//     min(lane frontiers) - 1: every transaction at or below it has
//     resolved, which is precisely the Transaction Visibility Property.
//     A lane that advances its frontier recomputes the minimum and
//     publishes it to vtnc with a CAS-max; one publish can make a whole
//     batch of transactions visible at once (the "epoch" — the publish
//     generation counter — counts these batches). Read-only
//     transactions anchor on the published watermark with a single
//     atomic load, exactly as strict's Start does, so snapshot reads
//     stay non-blocking.
//
// Why the published watermark never stalls: when two lanes advance their
// frontiers concurrently, each publishes min over *its own* reads of all
// frontiers. Because Go's atomics are sequentially consistent, the two
// store→load pairs (store own frontier, load the other's) cannot both
// miss — at least one publisher observes both new frontiers and
// publishes the true minimum. And driven sequentially, the watermark
// here equals strict's vtnc after every operation — both advance to
// (oldest unresolved tn)-1, or tnc-1 when everything has resolved — a
// determinism the differential fuzz target FuzzVisibilityEquivalence
// checks step by step.
package epoch

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mvdb/internal/vc"
)

// Slot states. A slot is empty until the registration that owns its tn
// stores outstanding; resolution CASes outstanding→complete/discarded;
// the lane drain clears it back to empty as the frontier passes.
const (
	slotEmpty uint32 = iota
	slotOutstanding
	slotComplete
	slotDiscarded
)

// DefaultSlots is the per-lane ring size. Lanes × slots bounds the
// number of registered-but-unvisible transactions; Register blocks on
// the capacity guard beyond it (in practice unreachable: it would need
// that many concurrently uncommitted transactions).
const DefaultSlots = 1024

type slot struct {
	state atomic.Uint32
	// regAt is the registration stamp (unix ns), written before the
	// outstanding store and read after the resolved load — the atomic
	// state transitions order it. Stamped only when an observer is
	// installed, mirroring strict's register-path economy.
	regAt int64
}

type lane struct {
	mu sync.Mutex
	// frontier is the smallest tn ≡ lane (mod P) not yet known
	// resolved; written only under mu, read lock-free by publishers.
	frontier atomic.Uint64
	slots    []slot
	// pad keeps hot per-lane state off shared cache lines.
	_ [64]byte
}

// Controller is the epoch-watermark implementation of vc.Controller.
// Call New; the zero value is not usable.
type Controller struct {
	// tnc is the next transaction number to assign; vtnc the published
	// watermark; epoch the publish generation.
	tnc   atomic.Uint64
	vtnc  atomic.Uint64
	epoch atomic.Uint64

	lanes    []lane
	laneMask uint64 // P-1
	laneBits uint   // log2 P
	slotMask uint64 // R-1
	capacity uint64 // P*R: max distance tn may run ahead of vtnc
	initial  uint64 // bootstrap snapshot; tns start at initial+1

	completions atomic.Uint64
	discards    atomic.Uint64

	// waitMu/cond serve the Register capacity guard; waiters gates the
	// publish-side broadcast so the uncontended case never locks.
	waitMu  sync.Mutex
	cond    *sync.Cond
	waiters atomic.Int64

	// pendMu guards pendingVisible: completed (tn, regAt) pairs drained
	// past a frontier but not yet published. The sweep after a
	// successful publish fires the observer for everything at or below
	// the new watermark. Only populated while an observer is installed.
	pendMu         sync.Mutex
	onVisible      func(tn uint64, d time.Duration)
	observing      atomic.Bool
	pendingVisible []pending
}

type pending struct {
	tn    uint64
	regAt int64
}

// New returns an epoch controller bootstrapped at snapshot `initial`,
// with one lane per GOMAXPROCS rounded up to a power of two (clamped to
// [1, 64]) and DefaultSlots ring slots per lane.
func New(initial uint64) *Controller {
	p := runtime.GOMAXPROCS(0)
	if p < 1 {
		p = 1
	}
	if p > 64 {
		p = 64
	}
	lanes := 1
	for lanes < p {
		lanes <<= 1
	}
	return NewWithShape(initial, lanes, DefaultSlots)
}

// NewWithShape returns an epoch controller with an explicit lane count
// (power of two) and per-lane ring size (power of two). Tests use small
// shapes to exercise slot reuse and the capacity guard.
func NewWithShape(initial uint64, lanes, slots int) *Controller {
	if lanes < 1 || lanes&(lanes-1) != 0 {
		panic("epoch: lane count must be a power of two")
	}
	if slots < 1 || slots&(slots-1) != 0 {
		panic("epoch: slot count must be a power of two")
	}
	c := &Controller{
		lanes:    make([]lane, lanes),
		laneMask: uint64(lanes - 1),
		laneBits: uint(bits.TrailingZeros64(uint64(lanes))),
		slotMask: uint64(slots - 1),
		capacity: uint64(lanes) * uint64(slots),
		initial:  initial,
	}
	c.tnc.Store(initial + 1)
	c.vtnc.Store(initial)
	c.cond = sync.NewCond(&c.waitMu)
	base := initial + 1
	for l := range c.lanes {
		c.lanes[l].slots = make([]slot, slots)
		// The lane's first owned tn at or after base.
		off := (uint64(l) + uint64(lanes) - base&c.laneMask) & c.laneMask
		c.lanes[l].frontier.Store(base + off)
	}
	return c
}

func (c *Controller) laneOf(tn uint64) *lane { return &c.lanes[tn&c.laneMask] }

func (c *Controller) slotOf(tn uint64) *slot {
	ln := c.laneOf(tn)
	return &ln.slots[(tn>>c.laneBits)&c.slotMask]
}

// Start implements VCstart(): the read-only snapshot anchor is the
// published watermark. One atomic load — non-blocking by construction.
func (c *Controller) Start() uint64 { return c.vtnc.Load() }

// Register is RegisterEntry on a new entry.
func (c *Controller) Register() *vc.Entry {
	e := new(vc.Entry)
	c.RegisterEntry(e)
	return e
}

// RegisterEntry assigns e the next transaction number with a wait-free
// fetch-add and marks its slot outstanding. The entry carries only the
// number; the slot holds all mutable state. The capacity guard keeps tn
// within lanes×slots of the watermark so the slot's previous tenant
// (tn - capacity) has provably drained before the slot is rewritten.
func (c *Controller) RegisterEntry(e *vc.Entry) {
	tn := c.tnc.Add(1) - 1
	if tn > c.capacity && c.vtnc.Load() < tn-c.capacity {
		c.waitMu.Lock()
		c.waiters.Add(1)
		for c.vtnc.Load() < tn-c.capacity {
			c.cond.Wait()
		}
		c.waiters.Add(-1)
		c.waitMu.Unlock()
	}
	s := c.slotOf(tn)
	if c.observing.Load() {
		s.regAt = time.Now().UnixNano()
	} else {
		s.regAt = 0
	}
	if !s.state.CompareAndSwap(slotEmpty, slotOutstanding) {
		panic("epoch: slot not drained at register (capacity guard broken)")
	}
	e.Assign(tn)
}

// resolve CASes the slot out of outstanding, drains the lane, and
// publishes any advance this resolution unlocked. An entry whose slot is
// not outstanding — resolved already, or never registered here —
// panics.
func (c *Controller) resolve(e *vc.Entry, to uint32) {
	tn := e.TN()
	s := c.slotOf(tn)
	if !s.state.CompareAndSwap(slotOutstanding, to) {
		panic("vc: resolve of an entry not outstanding here")
	}
	if to == slotComplete {
		c.completions.Add(1)
	} else {
		c.discards.Add(1)
	}
	// Drain unconditionally under the lane mutex. A cheaper "only if tn
	// == frontier" check is unsound: a concurrent drainer can scan our
	// slot just before our CAS lands and then move the frontier past
	// the stale read, while we observe the pre-advance frontier and
	// skip — stranding a completed slot forever. Taking the mutex
	// serializes the two, so one of us always sees the other's work.
	ln := c.laneOf(tn)
	ln.mu.Lock()
	advanced := c.drainLaneLocked(ln)
	ln.mu.Unlock()
	if advanced {
		c.publish()
	}
}

// drainLaneLocked walks the lane's frontier over resolved slots,
// clearing each for reuse and stashing completed ones for the observer
// sweep. Caller holds ln.mu.
func (c *Controller) drainLaneLocked(ln *lane) bool {
	f := ln.frontier.Load()
	advanced := false
	observing := c.observing.Load()
	for {
		s := &ln.slots[(f>>c.laneBits)&c.slotMask]
		st := s.state.Load()
		if st != slotComplete && st != slotDiscarded {
			break
		}
		if observing && st == slotComplete && s.regAt != 0 {
			c.pendMu.Lock()
			c.pendingVisible = append(c.pendingVisible, pending{tn: f, regAt: s.regAt})
			c.pendMu.Unlock()
		}
		s.state.Store(slotEmpty)
		f += c.laneMask + 1
		advanced = true
	}
	if advanced {
		ln.frontier.Store(f)
	}
	return advanced
}

// publish recomputes the watermark — min over lane frontiers, minus one
// — and CAS-maxes it into vtnc. A successful raise bumps the epoch,
// wakes capacity waiters, and fires the observer for the newly visible
// batch.
func (c *Controller) publish() {
	min := c.lanes[0].frontier.Load()
	for l := 1; l < len(c.lanes); l++ {
		if f := c.lanes[l].frontier.Load(); f < min {
			min = f
		}
	}
	target := min - 1
	for {
		cur := c.vtnc.Load()
		if target <= cur {
			return
		}
		if c.vtnc.CompareAndSwap(cur, target) {
			break
		}
	}
	c.epoch.Add(1)
	if c.waiters.Load() > 0 {
		// Empty critical section: serializes with waiters between their
		// vtnc check and cond.Wait, so the broadcast cannot be lost.
		c.waitMu.Lock()
		c.waitMu.Unlock() //nolint:staticcheck
		c.cond.Broadcast()
	}
	if c.observing.Load() {
		c.sweepVisible(target)
	}
}

// sweepVisible fires the observer for stashed completions at or below
// the watermark, in tn order (matching strict's drain order).
func (c *Controller) sweepVisible(vtnc uint64) {
	c.pendMu.Lock()
	fn := c.onVisible
	if fn == nil || len(c.pendingVisible) == 0 {
		c.pendMu.Unlock()
		return
	}
	var fire []pending
	keep := c.pendingVisible[:0]
	for _, p := range c.pendingVisible {
		if p.tn <= vtnc {
			fire = append(fire, p)
		} else {
			keep = append(keep, p)
		}
	}
	c.pendingVisible = keep
	nowNS := time.Now().UnixNano()
	sort.Slice(fire, func(i, j int) bool { return fire[i].tn < fire[j].tn })
	for _, p := range fire {
		fn(p.tn, time.Duration(nowNS-p.regAt))
	}
	c.pendMu.Unlock()
}

// Complete implements VCcomplete(T).
func (c *Controller) Complete(e *vc.Entry) { c.resolve(e, slotComplete) }

// Discard implements VCdiscard(T).
func (c *Controller) Discard(e *vc.Entry) { c.resolve(e, slotDiscarded) }

// UnsafeCompleteEager is ablation A2: publish tn immediately, in
// completion order, deliberately violating the Transaction Visibility
// Property. Invariants are forfeited from the first call. Test-only.
func (c *Controller) UnsafeCompleteEager(e *vc.Entry) {
	tn := e.TN()
	for {
		cur := c.vtnc.Load()
		if tn <= cur {
			break
		}
		if c.vtnc.CompareAndSwap(cur, tn) {
			c.epoch.Add(1)
			if c.waiters.Load() > 0 {
				c.waitMu.Lock()
				c.waitMu.Unlock() //nolint:staticcheck
				c.cond.Broadcast()
			}
			break
		}
	}
	c.resolve(e, slotComplete)
}

// SetVisibleObserver installs fn; see vc.Controller. Install before
// concurrent use; nil uninstalls.
func (c *Controller) SetVisibleObserver(fn func(tn uint64, d time.Duration)) {
	c.pendMu.Lock()
	c.onVisible = fn
	c.observing.Store(fn != nil)
	c.pendMu.Unlock()
}

// TNC is the next transaction number to assign.
func (c *Controller) TNC() uint64 { return c.tnc.Load() }

// VTNC is the published watermark.
func (c *Controller) VTNC() uint64 { return c.vtnc.Load() }

// Epoch is the publish generation: how many watermark advances have
// been published. Each publish makes a batch of >= 1 transactions
// visible at once.
func (c *Controller) Epoch() uint64 { return c.epoch.Load() }

// Lag is tnc-1-vtnc: assigned positions not yet visible — the watermark
// lag surfaced by the obs gauges.
func (c *Controller) Lag() uint64 {
	// vtnc before tnc: both only grow, so the difference can only be
	// over-reported, never negative.
	v := c.vtnc.Load()
	t := c.tnc.Load()
	return t - 1 - v
}

// QueueLen is the number of unresolved registrations. There is no
// queue; the count is derived from the counters.
func (c *Controller) QueueLen() int {
	// Resolutions before registrations: a racing Register can only make
	// the outstanding count read high, never negative.
	res := c.completions.Load() + c.discards.Load()
	reg := c.tnc.Load() - 1 - c.initial
	return int(reg - res)
}

// Mode identifies this implementation.
func (c *Controller) Mode() vc.Mode { return vc.ModeEpoch }

// Completions returns the number of Complete calls observed.
func (c *Controller) Completions() uint64 { return c.completions.Load() }

// Discards returns the number of Discard calls observed.
func (c *Controller) Discards() uint64 { return c.discards.Load() }

// CheckInvariants validates: vtnc < tnc; the watermark never passes any
// lane frontier; every frontier stays in its residue class with its
// slot unresolved. Meaningless after UnsafeCompleteEager.
func (c *Controller) CheckInvariants() error {
	vtnc := c.vtnc.Load()
	tnc := c.tnc.Load()
	if vtnc >= tnc {
		return fmt.Errorf("epoch: vtnc (%d) >= tnc (%d)", vtnc, tnc)
	}
	for l := range c.lanes {
		f := c.lanes[l].frontier.Load()
		if f&c.laneMask != uint64(l) {
			return fmt.Errorf("epoch: lane %d frontier %d outside residue class", l, f)
		}
		if f <= vtnc {
			return fmt.Errorf("epoch: lane %d frontier %d at or below vtnc %d", l, f, vtnc)
		}
		if f < tnc {
			st := c.slotOf(f).state.Load()
			if st == slotComplete || st == slotDiscarded {
				// Transient between a concurrent resolve's CAS and its
				// drain; impossible in the quiesced states tests check.
				return fmt.Errorf("epoch: lane %d frontier %d parked on resolved slot", l, f)
			}
		}
	}
	if res, reg := c.completions.Load()+c.discards.Load(), tnc-1-c.initial; res > reg {
		return fmt.Errorf("epoch: %d resolutions exceed %d registrations", res, reg)
	}
	return nil
}

var _ vc.Controller = (*Controller)(nil)
