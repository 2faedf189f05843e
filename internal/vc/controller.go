// Controller interface: the Version Control module's contract, extracted
// so the engine can select between interchangeable visibility
// implementations.
//
// The paper defines the module by three pieces of state (tnc, vtnc,
// VCQueue) and two properties (Transaction Ordering, Transaction
// Visibility). The *contract* below is only the properties plus the
// operations Figure 1 names — how an implementation tracks the
// in-between state is its own business:
//
//   - Strict (this package) is the paper's literal data structure: a
//     mutex-guarded ordered queue drained one transaction at a time, so
//     vtnc advances on every head completion.
//   - epoch.Controller (package internal/vc/epoch) decentralizes the
//     same contract: completions publish into per-lane frontiers and
//     vtnc advances in batches to a low-water watermark, trading
//     per-completion visibility for an uncontended completion path.
//
// Every implementation must preserve, at all times:
//
//   - vtnc < tnc (visibility never runs ahead of assignment);
//   - vtnc is monotonically non-decreasing;
//   - every transaction with tn <= vtnc has resolved (completed or
//     discarded) — the Transaction Visibility Property;
//   - Register hands out strictly increasing numbers, so a register
//     that happens-after another register receives a larger tn — the
//     Transaction Ordering Property. The 2PL and OCC engines depend on
//     this: they register at the lock-point / inside the validation
//     critical section, where conflicting registrations are already
//     serialized, and the assigned tn order must agree with that
//     serialization order.
package vc

import "time"

// Mode selects a Controller implementation.
type Mode int

const (
	// ModeStrict is the paper's Figure 1 queue: visibility advances one
	// transaction at a time, strictly in serialization order. The default.
	ModeStrict Mode = iota
	// ModeEpoch is the decentralized watermark design (internal/vc/epoch):
	// per-lane completion frontiers, batched vtnc advancement.
	ModeEpoch
)

func (m Mode) String() string {
	switch m {
	case ModeEpoch:
		return "epoch"
	default:
		return "strict"
	}
}

// Controller is the Version Control module behind an interface. All
// methods are safe for concurrent use. Start must be wait-free (the
// read-only begin path is the paper's "almost negligible overhead"
// claim). The module holds no wait: a read-only transaction that must
// see a number become visible (Section 6) waits in the engine, which
// the Complete or Discard call that moves vtnc past it wakes.
type Controller interface {
	// Start implements VCstart(): the snapshot number for a read-only
	// transaction. Equal to VTNC; wait-free.
	Start() uint64
	// RegisterEntry implements VCregister(T, "active"): assign e, which
	// the caller owns and has not registered before, the next
	// transaction number. Call only once the transaction's serial order
	// is fixed (lock-point, begin under T/O, inside OCC validation).
	RegisterEntry(e *Entry)
	// Register is RegisterEntry on a new entry, for callers with no
	// struct of their own to keep one in.
	Register() *Entry
	// Complete implements VCcomplete(T). Visibility advances when (and
	// only when) every older registration has also resolved.
	Complete(*Entry)
	// Discard implements VCdiscard(T): remove an aborted registration.
	Discard(*Entry)
	// UnsafeCompleteEager is ablation A2: advance vtnc in completion
	// order, deliberately violating the Transaction Visibility Property.
	// Test-only; see DESIGN.md.
	UnsafeCompleteEager(*Entry)
	// TNC is the next transaction number to be assigned.
	TNC() uint64
	// VTNC is the visibility horizon: the largest n with every tn <= n
	// resolved. Wait-free.
	VTNC() uint64
	// Lag is tnc-1-vtnc: assigned positions not yet visible.
	Lag() uint64
	// QueueLen is the number of unresolved registrations (for the epoch
	// controller, the outstanding count — there is no queue).
	QueueLen() int
	// Completions and Discards count resolutions by kind.
	Completions() uint64
	Discards() uint64
	// SetVisibleObserver installs fn, called exactly once per completed
	// registration when its number becomes visible, with the
	// register→visible lag. Install before concurrent use; nil
	// uninstalls. fn runs inside a controller critical section. The
	// engine installs none (its phase matrix times the committer's
	// Complete instead); mvbench's bench4 reads the module through it.
	SetVisibleObserver(fn func(tn uint64, d time.Duration))
	// Mode names the implementation ("strict", "epoch") for gauges.
	Mode() Mode
	// CheckInvariants validates internal consistency (tests).
	CheckInvariants() error
}
