package core

import (
	"errors"

	"mvdb/internal/engine"
	"mvdb/internal/storage"
	"mvdb/internal/vc"
	"mvdb/internal/wal"
)

// tsoTx is a read-write transaction under VC+T/O (paper Figure 3).
//
// Timestamp ordering fixes the serial order a priori, so begin(T)
// registers with version control immediately and sn(T) = tn(T). Reads
// raise r-ts and may wait for older pending writes; writes are rejected
// when a younger transaction has already read or written the object
// (abort + VCdiscard), and otherwise install a pending version that
// becomes committed at end(T), followed by VCcomplete.
type tsoTx struct {
	head Tx
	txObs
	entry  vc.Entry // registered at begin: tn(T)
	writes writeSet // what our pending versions hold (commit log)
}

// beginTimestamp is beginTwoPhase for timestamp ordering.
func (e *Engine) beginTimestamp(id uint64, t *tsoTx) *Tx {
	if t == nil {
		t = new(tsoTx)
	}
	t.entry = vc.Entry{}
	t.head.self = t
	e.vc.RegisterEntry(&t.entry)
	t.txObs = e.observe(id, protoTO, 0)
	return &t.head
}

// Get implements engine.Tx per Figure 3's read action: raise r-ts(x),
// then return the version with the largest number <= sn(T), possibly
// delayed by pending writes of older transactions. The read span covers
// the object rule's wait inside TORead. Reading back our own pending
// write is not a read of the database.
func (t *tsoTx) Get(key string) ([]byte, error) {
	if t.done {
		return nil, engine.ErrTxDone
	}
	sp := t.span(phaseRead)
	var v storage.Version
	ok := false
	if o := t.e.store.Get(key); o != nil {
		v, ok = o.TORead(t.entry.TN(), &t.txObs)
	}
	if v.TN != t.entry.TN() {
		t.read(key, v.TN)
	}
	t.end(sp)
	return result(v, ok)
}

// Put implements engine.Tx per Figure 3's write action: abort if a
// younger transaction already read or overwrote the object, otherwise
// create a pending version numbered tn(T).
func (t *tsoTx) Put(key string, value []byte) error {
	return t.put(wal.Write{Key: key, Value: value})
}

// Delete implements engine.Tx (a tombstone write).
func (t *tsoTx) Delete(key string) error {
	return t.put(wal.Write{Key: key, Tombstone: true})
}

func (t *tsoTx) put(w wal.Write) error {
	if t.done {
		return engine.ErrTxDone
	}
	if err := checkKey(w.Key); err != nil {
		return err
	}
	if err := t.e.store.GetOrCreate(w.Key).TOWrite(t.entry.TN(), w.Value, w.Tombstone, &t.txObs); err != nil {
		cause := causeTOWrite
		if errors.Is(err, storage.ErrConflictRO) {
			cause = causeTOWriteByRO
		}
		t.rollback()
		return t.abort(cause)
	}
	t.writes.put(w)
	return nil
}

// destroyPending withdraws the pending versions numbered tn.
func (e *Engine) destroyPending(tn uint64, writes []wal.Write) {
	for _, wr := range writes {
		e.store.GetOrCreate(wr.Key).ResolvePending(tn, false, nil)
	}
}

func (t *tsoTx) rollback() {
	t.done = true
	t.e.destroyPending(t.entry.TN(), t.writes.writes)
	t.e.vc.Discard(&t.entry)
}

// Commit implements engine.Tx: perform the database updates (promote
// pending versions), then VCcomplete.
func (t *tsoTx) Commit() error {
	if t.done {
		return engine.ErrTxDone
	}
	t.done = true
	return t.e.commitTail(&t.txObs, &t.entry, t.writes.writes)
}

// Abort implements engine.Tx: destroy pending versions and VCdiscard.
func (t *tsoTx) Abort() {
	if !t.done {
		t.rollback()
		t.abort(causeUser)
	}
}

// SN implements engine.Tx: sn(T) = tn(T) under timestamp ordering.
func (t *tsoTx) SN() (uint64, bool) { return t.entry.TN(), true }
