package baseline

import (
	"errors"

	"mvdb/internal/engine"
	"mvdb/internal/storage"
)

// MVTO is Reed-style multiversion timestamp ordering. Read-write
// transactions follow the same rules as the paper's Figure 3; the
// difference is entirely in the read-only path, which the paper calls out
// (Section 2): reads by read-only transactions "must be synchronized with
// the operations of read-write transactions", they update r-ts, and they
// can cause write-rejection aborts of read-write transactions.
type MVTO struct{ shell }

// NewMVTO creates the Reed-style baseline engine.
func NewMVTO(rec engine.Recorder) *MVTO {
	e := &MVTO{}
	e.init(rec)
	return e
}

// Name implements engine.Engine.
func (e *MVTO) Name() string { return "mvto(reed)" }

// Begin implements engine.Engine. Both classes take their id as their
// timestamp: in Reed's protocol read-only transactions are ordinary
// timestamped transactions that happen not to write.
func (e *MVTO) Begin(class engine.Class) (engine.Tx, error) {
	id, err := e.begin(class)
	if err != nil {
		return nil, err
	}
	t := &mvtoTx{e: e, id: id, tn: id, class: class}
	if class == engine.ReadWrite {
		t.pending = make(map[string]struct{})
	}
	return t, nil
}

type mvtoTx struct {
	e       *MVTO
	id      uint64
	tn      uint64
	class   engine.Class
	pending map[string]struct{}
	done    bool
}

// Get implements engine.Tx. Note the read-only path: it raises r-ts
// (marking the raise as read-only for abort attribution) and then blocks
// on pending writes of older transactions — the synchronization overhead
// the paper's version control removes.
func (t *mvtoTx) Get(key string) ([]byte, error) {
	if t.done {
		return nil, engine.ErrTxDone
	}
	var v storage.Version
	ok := false
	switch o := t.e.store.Get(key); {
	case o == nil:
	case t.class == engine.ReadOnly:
		o.SetRTS(t.tn, true)
		v, ok = o.SnapshotReadWait(t.tn, t)
	default:
		v, ok = o.TORead(t.tn, t)
	}
	if _, own := t.pending[key]; own && ok && v.TN == t.tn {
		return value(v) // its own pending write: no dependency to record
	}
	return t.e.read(t.id, key, v, ok)
}

// Put implements engine.Tx (read-write only).
func (t *mvtoTx) Put(key string, value []byte) error {
	return t.write(key, value, false)
}

// Delete implements engine.Tx (read-write only).
func (t *mvtoTx) Delete(key string) error {
	return t.write(key, nil, true)
}

func (t *mvtoTx) write(key string, value []byte, tombstone bool) error {
	if t.done {
		return engine.ErrTxDone
	}
	if t.class == engine.ReadOnly {
		return engine.ErrReadOnly
	}
	o := t.e.store.GetOrCreate(key)
	if err := o.TOWrite(t.tn, value, tombstone, t); err != nil {
		t.e.stats.AbortsConflict.Inc()
		if errors.Is(err, storage.ErrConflictRO) {
			// The write was rejected because a read-only transaction had
			// read the object — the interference the paper eliminates.
			t.e.stats.RWAbortsByRO.Inc()
		}
		t.abortInternal()
		return engine.ErrConflict
	}
	t.pending[key] = struct{}{}
	return nil
}

// Commit implements engine.Tx.
func (t *mvtoTx) Commit() error {
	if t.done {
		return engine.ErrTxDone
	}
	t.done = true
	if t.class == engine.ReadOnly {
		t.e.rec.RecordCommit(t.id, t.tn)
		t.e.stats.CommitsRO.Inc()
		return nil
	}
	for key := range t.pending {
		t.e.store.GetOrCreate(key).ResolvePending(t.tn, true, nil)
		t.e.rec.RecordWrite(t.id, key, t.tn)
	}
	t.e.rec.RecordCommit(t.id, t.tn)
	t.e.stats.CommitsRW.Inc()
	return nil
}

// Abort implements engine.Tx.
func (t *mvtoTx) Abort() {
	if t.done {
		return
	}
	t.e.stats.AbortsUser.Inc()
	t.abortInternal()
}

func (t *mvtoTx) abortInternal() {
	if t.done {
		return
	}
	t.done = true
	for key := range t.pending {
		t.e.store.GetOrCreate(key).ResolvePending(t.tn, false, nil)
	}
	t.e.rec.RecordAbort(t.id)
}

// Parked implements storage.Waiter: a park counts a store wait — and,
// for a read-only transaction, a blocked read-only read — and both it
// and the wake go to the recorder.
func (t *mvtoTx) Parked(parked bool) {
	if parked {
		t.e.stats.StoreWaits.Inc()
		if t.class == engine.ReadOnly {
			t.e.stats.ROBlocked.Inc()
		}
	}
	engine.RecordParked(t.e.rec, t.id, parked)
}

// ID implements engine.Tx.
func (t *mvtoTx) ID() uint64 { return t.id }

// Class implements engine.Tx.
func (t *mvtoTx) Class() engine.Class { return t.class }

// SN implements engine.Tx.
func (t *mvtoTx) SN() (uint64, bool) { return t.tn, true }
