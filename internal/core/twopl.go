package core

import (
	"errors"

	"mvdb/internal/engine"
	"mvdb/internal/lock"
	"mvdb/internal/storage"
	"mvdb/internal/vc"
	"mvdb/internal/wal"
)

// twoPhaseTx is a read-write transaction under VC+2PL (paper Figure 4).
//
// During execution it behaves exactly like a single-version strict-2PL
// transaction: reads take shared locks and return the latest committed
// version; writes take exclusive locks and are buffered ("create y_j with
// version phi" — the version number is unknown until the lock-point).
//
// At end(T) — by which time every lock is held, so the lock-point has been
// passed — the transaction registers with version control, receives
// tn(T), installs its buffered writes as versions numbered tn(T), releases
// its locks, and finally calls VCcomplete. The version-control module
// therefore only ever sees transactions that can no longer block, which is
// why (Section 4.4) it is immune to deadlocks.
//
// The lock manager's state and the version-control entry live in the
// struct. Update recycles it (DESIGN.md §18): the lock state is begun
// again in place, field by field (lock.Manager.BeginState), because a
// deadlock walk may still hold it from its last use.
type twoPhaseTx struct {
	head Tx
	txObs
	locks lock.TxState
	entry vc.Entry // registered at the lock-point (ablation A1: at begin; a cluster site: by Adopt)
	buf   writeSet
}

// beginTwoPhase begins transaction id in t, a struct Update pooled, or
// in a new one if t is nil.
func (e *Engine) beginTwoPhase(id uint64, t *twoPhaseTx) *Tx {
	if t == nil {
		t = new(twoPhaseTx)
	}
	t.txObs, t.entry = e.observe(id, proto2PL, 0), vc.Entry{}
	t.head.self = t
	e.locks.BeginState(&t.locks, id)
	if e.opts.UnsafeEarlyRegister2PL {
		e.vc.RegisterEntry(&t.entry) // A1: serial order NOT yet fixed — wrong on purpose
	}
	return &t.head
}

// Get implements engine.Tx: r-lock(x), then read the latest version
// (sn(T) = infinity in Figure 4). For an absent key the shared lock still
// guards against a concurrent creator.
func (t *twoPhaseTx) Get(key string) ([]byte, error) {
	if t.done {
		return nil, engine.ErrTxDone
	}
	if i := t.buf.find(key); i >= 0 {
		return readBack(t.buf.writes[i])
	}
	if err := t.acquire(key, lock.Shared); err != nil {
		return nil, err
	}
	v, ok := t.e.latest(key)
	t.read(key, v.TN)
	return result(v, ok)
}

// Put implements engine.Tx: w-lock(y), then buffer the write; the version
// number is assigned at commit ("create y_j with version phi").
func (t *twoPhaseTx) Put(key string, value []byte) error {
	return t.put(wal.Write{Key: key, Value: value})
}

// Delete implements engine.Tx: an exclusive lock plus a buffered
// tombstone.
func (t *twoPhaseTx) Delete(key string) error {
	return t.put(wal.Write{Key: key, Tombstone: true})
}

func (t *twoPhaseTx) put(w wal.Write) error {
	if t.done {
		return engine.ErrTxDone
	}
	if err := storage.CheckKey(w.Key); err != nil {
		return err
	}
	if err := t.acquire(w.Key, lock.Exclusive); err != nil {
		return err
	}
	t.buf.put(w)
	return nil
}

// acquire takes a lock; a lock-manager failure aborts the transaction
// (the victim must release everything it holds).
func (t *twoPhaseTx) acquire(key string, mode lock.Mode) error {
	err := t.e.locks.Acquire(t.id, key, mode)
	if err == nil {
		return nil
	}
	cause := causeConflict
	switch {
	case errors.Is(err, lock.ErrDeadlock):
		cause = causeDeadlock
	case errors.Is(err, lock.ErrTimeout):
		cause = causeTimeout
	}
	t.rollback()
	return t.abort(cause)
}

func (t *twoPhaseTx) rollback() {
	t.done = true
	t.e.locks.ReleaseAll(t.id) // Figure 4's "clear locks"
	// Registered before Commit: at begin (A1), or by Adopt.
	if t.entry.TN() != 0 {
		t.e.vc.Discard(&t.entry)
	}
}

// Commit implements engine.Tx, following Figure 4's end(T) sequence:
// VCregister; perform database updates with version number tn(T); clear
// locks; VCcomplete.
func (t *twoPhaseTx) Commit() error {
	if t.done {
		return engine.ErrTxDone
	}
	t.done = true
	// Not registered yet: neither at begin (A1) nor by Adopt.
	if t.entry.TN() == 0 {
		t.e.vc.RegisterEntry(&t.entry) // the lock-point has been passed
	}
	return t.e.commitTail(&t.txObs, &t.entry, t.buf.writes)
}

// Abort implements engine.Tx.
func (t *twoPhaseTx) Abort() {
	if !t.done {
		t.rollback()
		t.abort(causeUser)
	}
}

// SN implements engine.Tx. A 2PL read-write transaction has no snapshot
// position until it registers at commit ("sn(T) = infinity for
// uniformity"); under ablation A1, from begin.
func (t *twoPhaseTx) SN() (uint64, bool) { return t.entry.TN(), t.entry.TN() != 0 }
