// Package baseline implements the three comparator protocols the paper
// discusses in Section 2, re-created from the paper's own descriptions:
//
//   - MVTO: Reed's multiversion timestamp ordering [14], in which
//     read-only transactions are synchronized like everyone else — they
//     raise r-ts, block on pending writes, and can abort read-write
//     transactions.
//   - MV2PLCTL: the Chan et al. multiversion two-phase locking [7], in
//     which every read-only transaction carries a start timestamp and a
//     copy of the completed transaction list (CTL).
//   - SV2PL: single-version strict two-phase locking, the non-multiversion
//     baseline in which readers and writers block each other.
//
// Each engine implements engine.Engine, so the harness can run identical
// workloads across the paper's engines and these baselines and measure the
// differences the paper claims (experiments E1-E5).
package baseline

import (
	"errors"
	"sync/atomic"

	"mvdb/internal/engine"
	"mvdb/internal/storage"
)

// MVTO is Reed-style multiversion timestamp ordering. Read-write
// transactions follow the same rules as the paper's Figure 3; the
// difference is entirely in the read-only path, which the paper calls out
// (Section 2): reads by read-only transactions "must be synchronized with
// the operations of read-write transactions", they update r-ts, and they
// can cause write-rejection aborts of read-write transactions.
type MVTO struct {
	store *storage.Store
	ts    atomic.Uint64 // timestamp = transaction number counter
	ids   atomic.Uint64
	rec   engine.Recorder

	commitsRO      atomic.Uint64
	commitsRW      atomic.Uint64
	abortsConflict atomic.Uint64
	abortsUser     atomic.Uint64
	abortsByRO     atomic.Uint64
	roBlocked      atomic.Uint64
	closed         atomic.Bool
}

// NewMVTO creates the Reed-style baseline engine.
func NewMVTO(rec engine.Recorder) *MVTO {
	if rec == nil {
		rec = engine.NopRecorder{}
	}
	return &MVTO{store: storage.NewStore(0), rec: rec}
}

// Name implements engine.Engine.
func (e *MVTO) Name() string { return "mvto(reed)" }

// Store exposes the underlying store.
func (e *MVTO) Store() *storage.Store { return e.store }

// Bootstrap loads initial data as version 0.
func (e *MVTO) Bootstrap(data map[string][]byte) error {
	if e.ts.Load() != 0 {
		return errors.New("baseline: Bootstrap after transactions started")
	}
	for k, v := range data {
		e.store.Bootstrap(k, v)
	}
	return nil
}

// Begin implements engine.Engine. Both classes receive a timestamp from
// the same counter: in Reed's protocol read-only transactions are ordinary
// timestamped transactions that happen not to write.
func (e *MVTO) Begin(class engine.Class) (engine.Tx, error) {
	if e.closed.Load() {
		return nil, errors.New("baseline: engine closed")
	}
	t := &mvtoTx{
		e:     e,
		id:    e.ids.Add(1),
		tn:    e.ts.Add(1),
		class: class,
	}
	if class == engine.ReadWrite {
		t.pending = make(map[string]struct{})
	}
	e.rec.RecordBegin(t.id, class)
	return t, nil
}

// Stats implements engine.Engine.
func (e *MVTO) Stats() map[string]int64 {
	return map[string]int64{
		"commits.ro":      int64(e.commitsRO.Load()),
		"commits.rw":      int64(e.commitsRW.Load()),
		"aborts.conflict": int64(e.abortsConflict.Load()),
		"aborts.user":     int64(e.abortsUser.Load()),
		"rw.aborts.by_ro": int64(e.abortsByRO.Load()),
		"ro.blocked":      int64(e.roBlocked.Load()),
		"store.waits":     int64(e.store.TotalWaits()),
	}
}

// Close implements engine.Engine.
func (e *MVTO) Close() error {
	e.closed.Store(true)
	return nil
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
	o := t.e.store.Get(key)
	if o == nil {
		t.e.rec.RecordRead(t.id, key, 0)
		return nil, engine.ErrNotFound
	}
	var v storage.Version
	var ok bool
	if t.class == engine.ReadOnly {
		o.SetRTS(t.tn, true)
		var waited bool
		v, ok, waited = o.SnapshotReadWait(t.tn)
		if waited {
			t.e.roBlocked.Add(1)
		}
	} else {
		v, ok = o.TORead(t.tn)
	}
	if !ok {
		t.e.rec.RecordRead(t.id, key, 0)
		return nil, engine.ErrNotFound
	}
	if _, own := t.pending[key]; !(own && v.TN == t.tn) {
		t.e.rec.RecordRead(t.id, key, v.TN)
	}
	if v.Tombstone {
		return nil, engine.ErrNotFound
	}
	return v.Data, nil
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
	if err := o.TOWrite(t.tn, value, tombstone); err != nil {
		t.e.abortsConflict.Add(1)
		if errors.Is(err, storage.ErrConflictRO) {
			// The write was rejected because a read-only transaction had
			// read the object — the interference the paper eliminates.
			t.e.abortsByRO.Add(1)
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
		t.e.commitsRO.Add(1)
		return nil
	}
	for key := range t.pending {
		t.e.store.GetOrCreate(key).ResolvePending(t.tn, true, nil)
		t.e.rec.RecordWrite(t.id, key, t.tn)
	}
	t.e.rec.RecordCommit(t.id, t.tn)
	t.e.commitsRW.Add(1)
	return nil
}

// Abort implements engine.Tx.
func (t *mvtoTx) Abort() {
	if t.done {
		return
	}
	t.e.abortsUser.Add(1)
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

// ID implements engine.Tx.
func (t *mvtoTx) ID() uint64 { return t.id }

// Class implements engine.Tx.
func (t *mvtoTx) Class() engine.Class { return t.class }

// SN implements engine.Tx.
func (t *mvtoTx) SN() (uint64, bool) { return t.tn, true }
