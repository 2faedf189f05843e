// Package engine defines the interface every transaction engine in this
// repository implements — the three version-control engines (VC+2PL,
// VC+T/O, VC+OCC) and the three baselines (Reed MVTO, Chan MV2PL-CTL,
// single-version 2PL). The benchmark harness, the correctness checker and
// the public API all program against this interface, which is what lets
// one experiment sweep every protocol (EXPERIMENTS.md).
package engine

import (
	"errors"
	"math/rand/v2"
	"time"

	"mvdb/internal/obs"
)

// Class tells the engine whether a transaction will write. The paper
// (Section 4.1) requires this classification up front; a transaction of
// unknown class must be declared ReadWrite.
type Class int

const (
	// ReadWrite transactions may read and write; they are serialized by
	// the engine's concurrency-control component.
	ReadWrite Class = iota
	// ReadOnly transactions never write. Under the paper's version
	// control they bypass concurrency control entirely.
	ReadOnly
)

func (c Class) String() string {
	if c == ReadOnly {
		return "read-only"
	}
	return "read-write"
}

// Sentinel errors. ErrConflict and ErrDeadlock mean the transaction was
// aborted by the engine and may be retried; the harness and the public
// API's Update helper do exactly that.
var (
	// ErrConflict reports a synchronization conflict (timestamp-ordering
	// rejection, failed optimistic validation, ...).
	ErrConflict = errors.New("engine: transaction aborted due to conflict")
	// ErrDeadlock reports the transaction was chosen as a deadlock victim.
	ErrDeadlock = errors.New("engine: transaction aborted to break a deadlock")
	// ErrNotFound reports the key does not exist at the transaction's
	// read point.
	ErrNotFound = errors.New("engine: key not found")
	// ErrReadOnly reports a write attempted by a read-only transaction.
	ErrReadOnly = errors.New("engine: write in read-only transaction")
	// ErrTxDone reports use of a transaction after Commit or Abort.
	ErrTxDone = errors.New("engine: transaction already finished")
	// ErrSnapshotTooOld reports that garbage collection discarded a
	// version the read-only transaction's snapshot needs: the snapshot is
	// older than a collection pass's watermark. It is not retryable — the
	// same snapshot cannot be read again; a new one can.
	ErrSnapshotTooOld = errors.New("engine: snapshot too old: a version it needs was garbage-collected")
)

// Retryable reports whether err is a transient abort that the caller may
// retry with a fresh transaction.
func Retryable(err error) bool {
	return errors.Is(err, ErrConflict) || errors.Is(err, ErrDeadlock)
}

// Backoff bounds: a retry waits a random time below a bound that starts
// at backoffBase and doubles with each retry, up to backoffCap.
// maxAttempts is the retry budget: how many times an automatic retry
// loop runs a transaction before it gives up.
const (
	backoffBase = 16 * time.Microsecond
	backoffCap  = time.Millisecond
	maxAttempts = 100
)

// Backoff is what an automatic retry loop (mvdb's and the cluster's
// Update) does before attempt number attempt of a transaction, counting
// the first try as 0. It reports false, at once, when the retry budget
// is spent; otherwise it does nothing before the first try or the first
// retry, and then sleeps for a time drawn uniformly below a bound that
// doubles with each retry. A deadlock's victim that retries at once
// finds its partner still holding the same locks and, under 2PL's
// shared-to-exclusive upgrades, the two can deadlock again and again
// until the budget is spent; spreading the retries out lets one of them
// through. It allocates nothing.
func Backoff(attempt int) bool {
	if attempt >= maxAttempts {
		return false
	}
	if attempt >= 2 {
		time.Sleep(rand.N(min(backoffBase<<min(attempt-2, 16), backoffCap)))
	}
	return true
}

// Tx is one transaction. Implementations are not safe for concurrent use
// by multiple goroutines (one transaction = one client), matching the
// paper's model.
type Tx interface {
	// Get returns the value of key visible to this transaction, or
	// ErrNotFound. Under read-only transactions this is the Figure 2
	// rule: the largest version <= the start number.
	Get(key string) ([]byte, error)
	// Put installs a new value for key (ErrReadOnly for read-only txns).
	Put(key string, value []byte) error
	// Delete removes key by writing a tombstone version.
	Delete(key string) error
	// Commit makes the transaction's effects durable and visible per the
	// engine's protocol. After Commit the transaction is finished.
	Commit() error
	// Abort discards the transaction's effects. Safe to call after a
	// failed operation; idempotent after Commit/Abort.
	Abort()
	// ID returns a unique transaction identifier (diagnostics).
	ID() uint64
	// Class returns the declared class.
	Class() Class
	// SN returns the transaction's start number (snapshot position) if it
	// has one; read-write 2PL transactions return (0, false) until commit.
	SN() (uint64, bool)
}

// Scanner is implemented by transactions that support ordered prefix
// scans. Snapshot (read-only) transactions implement it naturally — the
// scan is just repeated snapshot reads; read-write transactions generally
// do not (a serializable scan would need predicate locking).
type Scanner interface {
	// Scan calls fn for every live key with the given prefix, in
	// ascending key order, at the transaction's snapshot. fn returning
	// false stops the scan.
	Scan(prefix string, fn func(key string, value []byte) bool) error
}

// Engine is a transaction engine over a key-value store.
type Engine interface {
	// Name identifies the protocol (for reports), e.g. "vc+2pl".
	Name() string
	// Begin starts a transaction of the given class.
	Begin(class Class) (Tx, error)
	// Stats returns a point-in-time snapshot of the engine's counters,
	// in the vocabulary every engine shares: begins and commits by
	// class and aborts by cause always, every other field where the
	// engine has the event or the substrate it counts (zero otherwise).
	// Commits never exceed begins within one snapshot.
	Stats() obs.Snapshot
	// Close shuts the engine down: later begins fail, and a durable
	// engine closes its commit log.
	Close() error
}

// Recorder observes a transaction's steps for correctness checking and
// for the tools that pace or audit an engine. Engines call it only when
// one is attached (tests, the auditor, schedtest); a nil Recorder must be
// tolerated by using NopRecorder instead, and a recorder that does not
// care for an event embeds NopRecorder for it.
type Recorder interface {
	// RecordBegin notes a transaction's class and, for snapshot readers,
	// its start number.
	RecordBegin(txID uint64, class Class)
	// RecordRead notes that txID read the version of key created by
	// transaction number versionTN (0 = bootstrap version).
	RecordRead(txID uint64, key string, versionTN uint64)
	// RecordWrite notes that txID created version versionTN of key.
	// Engines that assign numbers at commit (2PL) call this during
	// Commit, before RecordCommit.
	RecordWrite(txID uint64, key string, versionTN uint64)
	// RecordCommit notes txID committed with serialization number tn.
	// Read-only transactions pass their start number.
	RecordCommit(txID uint64, tn uint64)
	// RecordAbort notes txID aborted; its writes must be disregarded.
	RecordAbort(txID uint64)
	// RecordSnapshot notes that read-only transaction txID will read at
	// snapshot position sn. Called after RecordBegin, before any read.
	// The online auditor uses it to check the snapshot-read invariant —
	// a read-only transaction must never observe a version newer than
	// its start number — which the commit-time history alone cannot
	// express.
	RecordSnapshot(txID uint64, sn uint64)
	// RecordParked notes that a transaction's step parks — waits for
	// another transaction to release a lock, resolve a pending write, or
	// become visible to a recency read — (parked true) or is woken
	// (parked false). The engine reports a park on the waiter's
	// goroutine before it waits, and a wake on the goroutine whose step
	// released it, before that step returns; a lock wait that times out
	// wakes itself. A lock or timestamp-ordering wait reports its park
	// once it has entered the wait and let go of the lock it entered it
	// under, so a wake can overtake the park it answers. A woken step
	// that must wait again parks again, so parks and wakes pair up.
	// internal/schedtest paces its schedules by these events.
	RecordParked(txID uint64, parked bool)
}

// Multi combines recorders: every record call fans out to each non-nil,
// non-Nop recorder in order. It collapses to NopRecorder or the single
// remaining recorder when it can, so a caller may pass an optional
// recorder (an auditor next to a history, say) unconditionally without
// paying for indirection when it is the only (or no) observer.
func Multi(rs ...Recorder) Recorder {
	var active []Recorder
	for _, r := range rs {
		if r == nil {
			continue
		}
		if _, nop := r.(NopRecorder); nop {
			continue
		}
		active = append(active, r)
	}
	switch len(active) {
	case 0:
		return NopRecorder{}
	case 1:
		return active[0]
	}
	return multiRecorder(active)
}

type multiRecorder []Recorder

// RecordBegin implements Recorder.
func (m multiRecorder) RecordBegin(txID uint64, class Class) {
	for _, r := range m {
		r.RecordBegin(txID, class)
	}
}

// RecordRead implements Recorder.
func (m multiRecorder) RecordRead(txID uint64, key string, versionTN uint64) {
	for _, r := range m {
		r.RecordRead(txID, key, versionTN)
	}
}

// RecordWrite implements Recorder.
func (m multiRecorder) RecordWrite(txID uint64, key string, versionTN uint64) {
	for _, r := range m {
		r.RecordWrite(txID, key, versionTN)
	}
}

// RecordCommit implements Recorder.
func (m multiRecorder) RecordCommit(txID, tn uint64) {
	for _, r := range m {
		r.RecordCommit(txID, tn)
	}
}

// RecordAbort implements Recorder.
func (m multiRecorder) RecordAbort(txID uint64) {
	for _, r := range m {
		r.RecordAbort(txID)
	}
}

// RecordSnapshot implements Recorder.
func (m multiRecorder) RecordSnapshot(txID, sn uint64) {
	for _, r := range m {
		r.RecordSnapshot(txID, sn)
	}
}

// RecordParked implements Recorder.
func (m multiRecorder) RecordParked(txID uint64, parked bool) {
	for _, r := range m {
		r.RecordParked(txID, parked)
	}
}

// NopRecorder is a Recorder that records nothing.
type NopRecorder struct{}

// RecordBegin implements Recorder.
func (NopRecorder) RecordBegin(uint64, Class) {}

// RecordRead implements Recorder.
func (NopRecorder) RecordRead(uint64, string, uint64) {}

// RecordWrite implements Recorder.
func (NopRecorder) RecordWrite(uint64, string, uint64) {}

// RecordCommit implements Recorder.
func (NopRecorder) RecordCommit(uint64, uint64) {}

// RecordAbort implements Recorder.
func (NopRecorder) RecordAbort(uint64) {}

// RecordSnapshot implements Recorder.
func (NopRecorder) RecordSnapshot(uint64, uint64) {}

// RecordParked implements Recorder.
func (NopRecorder) RecordParked(uint64, bool) {}
