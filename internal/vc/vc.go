// Package vc implements the Version Control module of Sengupta & Agrawal
// (CUCS-426-89, Figure 1): the component that decouples version visibility
// from concurrency control in a multiversion database.
//
// The module owns exactly three pieces of state:
//
//   - tnc, the transaction number counter: the next serialization number
//     that will be handed to a read-write transaction.
//   - vtnc, the visible transaction number counter: the largest number n
//     such that every read-write transaction with tn <= n has completed.
//   - VCQueue, the ordered list of transactions that have been assigned a
//     transaction number (their serial position is fixed) but whose updates
//     are not yet visible, either because they are still active or because
//     an older transaction is.
//
// Two invariants are maintained at all times (paper, Section 4.1):
//
//   - Transaction Ordering Property: every transaction that is active and
//     unassigned, or that arrives later, receives tn >= tnc.
//   - Transaction Visibility Property: vtnc is the largest number such
//     that all transactions T with tn(T) <= vtnc have completed.
//
// Together with vtnc < tnc, these guarantee that a read-only transaction
// that snapshots vtnc at start observes a committed prefix of the serial
// order that can never be perturbed by active or future transactions.
//
// Since the interface split, this package holds the module's *contract*
// (the Controller interface and Mode — see controller.go — and Entry)
// plus the paper-literal Strict implementation below. The VCQueue is a
// Strict detail, not part of the contract: the epoch implementation
// (internal/vc/epoch) maintains the same two properties with per-lane
// completion frontiers and a batched watermark instead of a queue, and
// uses an Entry only for its number.
package vc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Entry is one registered read-write transaction: for Strict its VCQueue
// node, for every controller the number it was assigned. The engine keeps
// it in its own transaction struct and registers it with RegisterEntry;
// Register is the wrapper that allocates one. An entry is registered
// once, on one controller, and resolved exactly once there, by either
// Complete (commit) or Discard (abort). Its zero value is unregistered,
// and an entry that is not Linked may be zeroed and registered again.
type Entry struct {
	tn       uint64
	complete bool
	linked   atomic.Bool // in a Strict VCQueue; cleared as the unlink's last write
	regAt    int64       // registration time (unix ns); stamped only when a visible observer is installed
	prev     *Entry
	next     *Entry
}

// TN returns the transaction number assigned at registration time.
func (e *Entry) TN() uint64 { return e.tn }

// Linked reports whether a controller still holds e: a Strict entry from
// RegisterEntry until Discard or the drain unlinks it, which Complete
// leaves to a later call while an older entry is open. The epoch
// controller holds no entry, so there e is free once Complete or Discard
// returns.
func (e *Entry) Linked() bool { return e.linked.Load() }

// Assign records the number a controller outside this package assigned
// at registration (the epoch controller's RegisterEntry).
func (e *Entry) Assign(tn uint64) { e.tn = tn }

// Strict is the paper's Version Control module, exactly as in Figure 1: a
// mutex-guarded VCQueue drained one transaction at a time, so vtnc
// advances on every head completion. It is the reference implementation
// of the Controller interface (see controller.go); the epoch-watermark
// alternative lives in internal/vc/epoch. The zero value is not usable;
// call New.
//
// Strict is safe for concurrent use. Start is wait-free (a single
// atomic load), matching the paper's claim that read-only transactions
// have "almost negligible overhead": they interact with this module once,
// and that interaction does not contend with read-write registration.
type Strict struct {
	mu sync.Mutex

	// vtnc is stored atomically so Start never takes the mutex.
	vtnc atomic.Uint64

	tnc    uint64
	step   uint64 // Register stride (1 = centralized; >1 = one residue class per site)
	offset uint64 // residue of numbers this controller hands out locally
	head   *Entry
	tail   *Entry
	size   int

	// onVisible, when set, observes each entry's register→visible lag
	// (paper Section 6's delayed visibility, measured per transaction).
	// Guarded by mu; see SetVisibleObserver.
	onVisible func(tn uint64, d time.Duration)
}

// New returns a Strict controller whose visible state is the bootstrap
// snapshot `initial`. Data loaded before transaction processing begins
// should be versioned with a number <= initial (conventionally 0). The
// first registered read-write transaction receives tn = initial+1.
func New(initial uint64) *Strict {
	return NewStrided(initial, 0, 1)
}

// NewStrided returns a Strict controller whose locally assigned transaction
// numbers all satisfy tn ≡ offset (mod step). The distributed extension
// (Section 6; internal/dist) gives each site one residue class, making
// locally assigned numbers globally unique without coordination; numbers
// outside the class can still be adopted via RegisterExact when a
// two-phase-commit vote forces one global number onto all participants.
func NewStrided(initial, offset, step uint64) *Strict {
	if step == 0 {
		panic("vc: step must be >= 1")
	}
	if offset >= step {
		panic("vc: offset must be < step")
	}
	c := &Strict{step: step, offset: offset}
	c.tnc = nextAligned(initial, offset, step)
	c.vtnc.Store(initial)
	return c
}

// nextAligned returns the smallest value > after with ≡ offset (mod step).
func nextAligned(after, offset, step uint64) uint64 {
	n := after + 1
	rem := n % step
	if rem == offset {
		return n
	}
	if rem < offset {
		return n + (offset - rem)
	}
	return n + step - rem + offset
}

// Start implements VCstart() (paper Figure 1): it returns the start number
// for a read-only transaction, i.e. the current value of vtnc. The caller
// then serves every read from the largest version <= the returned number.
func (c *Strict) Start() uint64 {
	return c.vtnc.Load()
}

// Register is RegisterEntry on a new entry, for callers with no struct
// of their own to keep it in.
func (c *Strict) Register() *Entry {
	e := new(Entry)
	c.RegisterEntry(e)
	return e
}

// RegisterEntry implements VCregister(T, "active"): it assigns e the next
// transaction number and appends it to VCQueue. It must be called at the
// moment the transaction's serial order becomes fixed — at begin for
// timestamp ordering, at the lock-point for two-phase locking, during
// validation for optimistic schemes.
func (c *Strict) RegisterEntry(e *Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.enqueueLocked(e, c.tnc)
	c.tnc += c.step
}

// enqueueLocked numbers e tn and appends it to VCQueue, stamping the
// registration time only when someone is watching — the stamp is the one
// extra cost on the register path and it is skipped entirely when phase
// timing is off.
func (c *Strict) enqueueLocked(e *Entry, tn uint64) {
	e.tn = tn
	if c.onVisible != nil {
		e.regAt = time.Now().UnixNano()
	}
	c.pushBack(e)
}

// SetVisibleObserver installs fn, called once per registered entry when
// the drain pops it and its number becomes visible, with the entry's
// register→visible lag. It runs with the controller's mutex held — it
// must be cheap and must not call back into the controller. Install
// before concurrent use; nil uninstalls.
func (c *Strict) SetVisibleObserver(fn func(tn uint64, d time.Duration)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onVisible = fn
}

// RegisterExact is RegisterEntry at exactly the transaction number tn,
// which must not precede the next local assignment (otherwise ordering
// would be violated); the error reports a stale coordinator decision. It
// is the commit-side half of the distributed max-vote: every participant
// of a distributed transaction adopts the same globally chosen number
// into the entry its site transaction holds. Local assignment resumes at
// the next stride point past tn; the numbers skipped never correspond to
// a transaction, so the Transaction Visibility Property is unaffected.
func (c *Strict) RegisterExact(e *Entry, tn uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if tn < c.tnc {
		return fmt.Errorf("vc: RegisterExact(%d) behind tnc %d", tn, c.tnc)
	}
	c.enqueueLocked(e, tn)
	c.tnc = nextAligned(tn, c.offset, c.step)
	return nil
}

// Reserve returns the transaction number the next Register call would
// assign, without assigning it. It is a cluster site's vote in the
// distributed max-vote (core.Engine.Vote): the coordinator gathers the
// votes of all participants, each holding its registration gate, and
// every participant adopts the maximum via RegisterExact.
func (c *Strict) Reserve() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tnc
}

// Discard implements VCdiscard(T): it removes an aborted transaction from
// VCQueue. If the aborted transaction was the only obstacle holding vtnc
// back, visibility advances over the completed transactions behind it.
func (c *Strict) Discard(e *Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !e.linked.Load() {
		panic("vc: Discard of resolved entry")
	}
	atHead := e == c.head
	c.unlink(e)
	if atHead {
		c.drainLocked()
	}
}

// Complete implements VCcomplete(T): it marks the transaction complete
// and, while the head of VCQueue is complete, removes the head and
// advances vtnc to its transaction number. This is the only place vtnc
// changes, which is exactly how the Transaction Visibility Property is
// enforced: visibility follows serialization order, not completion order.
func (c *Strict) Complete(e *Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !e.linked.Load() {
		panic("vc: Complete of resolved entry")
	}
	e.complete = true
	c.drainLocked()
}

// UnsafeCompleteEager is ablation A2 (see DESIGN.md): it advances vtnc to
// the completing transaction's number immediately, in completion order
// rather than serialization order, deliberately violating the Transaction
// Visibility Property. It exists only so tests can demonstrate that the
// property is necessary — the history checker finds MVSG cycles when an
// engine completes through this path. Never use it outside ablations.
func (c *Strict) UnsafeCompleteEager(e *Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !e.linked.Load() {
		panic("vc: Complete of resolved entry")
	}
	e.complete = true
	if c.vtnc.Load() < e.tn {
		c.vtnc.Store(e.tn)
	}
	c.unlink(e)
	// Entries stranded behind an eagerly-advanced vtnc are drained so the
	// queue does not leak; correctness is already forfeited.
	c.drainLocked()
}

// drainLocked pops completed entries from the head, advancing vtnc, and
// then advances vtnc over the gap of unassigned numbers up to (but not
// including) the next registered transaction — or up to tnc-1 if the
// queue is empty. Unassigned numbers below tnc can never be assigned
// later (tnc and RegisterExact only move forward), so "all transactions
// with tn <= vtnc have completed" holds vacuously across the gap. Figure 1
// stops at the last completed entry's number; this refinement is what
// keeps per-site visibility from stranding below a remote snapshot in the
// distributed extension, where the stride and max-vote rules leave gaps.
func (c *Strict) drainLocked() {
	var nowNS int64
	if c.onVisible != nil {
		nowNS = time.Now().UnixNano()
	}
	for c.head != nil && c.head.complete {
		h := c.head
		if h.tn > c.vtnc.Load() { // the guard only matters after UnsafeCompleteEager
			c.vtnc.Store(h.tn)
		}
		if h.regAt != 0 && c.onVisible != nil {
			c.onVisible(h.tn, time.Duration(nowNS-h.regAt))
		}
		c.unlink(h) // last: h's owner may reuse it once it is unlinked
	}
	target := c.tnc - 1
	if c.head != nil {
		target = c.head.tn - 1
	}
	if target > c.vtnc.Load() {
		c.vtnc.Store(target)
	}
}

// TNC returns the current transaction number counter (the next number to
// be assigned).
func (c *Strict) TNC() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tnc
}

// VTNC returns the current visible transaction number counter.
func (c *Strict) VTNC() uint64 { return c.vtnc.Load() }

// QueueLen returns the number of unresolved entries in VCQueue.
func (c *Strict) QueueLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}

// Mode identifies this implementation for gauges and matrices.
func (c *Strict) Mode() Mode { return ModeStrict }

// CheckInvariants verifies the module's internal consistency. It is meant
// for tests: it validates vtnc < tnc, queue ordering, and that the queue
// head (if any) is the oldest invisible transaction.
func (c *Strict) CheckInvariants() error {
	c.mu.Lock()
	defer c.mu.Unlock()

	vtnc := c.vtnc.Load()
	if vtnc >= c.tnc {
		return fmt.Errorf("vc: vtnc (%d) >= tnc (%d)", vtnc, c.tnc)
	}
	n := 0
	last := uint64(0)
	for e := c.head; e != nil; e = e.next {
		n++
		if e.tn <= vtnc {
			return fmt.Errorf("vc: queued entry tn %d <= vtnc %d", e.tn, vtnc)
		}
		if e.tn >= c.tnc {
			return fmt.Errorf("vc: queued entry tn %d >= tnc %d", e.tn, c.tnc)
		}
		if e.tn <= last {
			return fmt.Errorf("vc: queue out of order: %d after %d", e.tn, last)
		}
		if !e.linked.Load() {
			return errors.New("vc: unlinked entry still queued")
		}
		last = e.tn
	}
	if n != c.size {
		return fmt.Errorf("vc: size %d != counted %d", c.size, n)
	}
	if c.head != nil && c.head.complete {
		return errors.New("vc: completed entry stuck at queue head")
	}
	return nil
}

// Strict is the reference Controller implementation.
var _ Controller = (*Strict)(nil)

func (c *Strict) pushBack(e *Entry) {
	if c.tail == nil {
		c.head, c.tail = e, e
	} else {
		c.tail.next = e
		e.prev = c.tail
		c.tail = e
	}
	e.linked.Store(true)
	c.size++
}

func (c *Strict) unlink(e *Entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
	c.size--
	e.linked.Store(false) // last: the owner may reuse e once it reads false
}
