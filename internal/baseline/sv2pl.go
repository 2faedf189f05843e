package baseline

import (
	"errors"
	"sync/atomic"

	"mvdb/internal/engine"
	"mvdb/internal/lock"
	"mvdb/internal/obs"
	"mvdb/internal/storage"
)

// SV2PL is single-version strict two-phase locking: the non-multiversion
// baseline. Read-only transactions are ordinary transactions that take
// shared locks, so they block behind writers, writers block behind them,
// and they participate in deadlocks — everything Section 1 of the paper
// says multiversioning exists to avoid.
//
// The implementation reuses the multiversion store but each read returns
// the latest committed version and the object's history is pruned on
// overwrite, so at most one version is live per key.
type SV2PL struct {
	store *storage.Store
	locks *lock.Manager
	tnc   atomic.Uint64
	ids   atomic.Uint64
	rec   engine.Recorder
	stats *obs.Stats

	closed atomic.Bool
}

// NewSV2PL creates the single-version baseline engine.
func NewSV2PL(rec engine.Recorder) *SV2PL {
	if rec == nil {
		rec = engine.NopRecorder{}
	}
	return &SV2PL{
		store: storage.NewStore(0),
		locks: lock.NewManager(lock.Detect, 0),
		rec:   rec,
		stats: obs.NewStats(),
	}
}

// Name implements engine.Engine.
func (e *SV2PL) Name() string { return "sv2pl" }

// Store exposes the underlying store.
func (e *SV2PL) Store() *storage.Store { return e.store }

// Bootstrap loads initial data as version 0.
func (e *SV2PL) Bootstrap(data map[string][]byte) error {
	if e.ids.Load() != 0 {
		return errors.New("baseline: Bootstrap after transactions started")
	}
	for k, v := range data {
		e.store.Bootstrap(k, v)
	}
	return nil
}

// Begin implements engine.Engine. Both classes run the same locking
// protocol; the class only gates writes.
func (e *SV2PL) Begin(class engine.Class) (engine.Tx, error) {
	if e.closed.Load() {
		return nil, errors.New("baseline: engine closed")
	}
	id := e.ids.Add(1)
	countBegin(e.stats, class)
	e.locks.Begin(id, 0)
	t := &svTx{e: e, id: id, class: class, buf: make(map[string]bufWrite)}
	e.rec.RecordBegin(id, class)
	return t, nil
}

// Stats implements engine.Engine.
func (e *SV2PL) Stats() obs.Snapshot {
	sn := e.stats.Snapshot()
	sn.LockWaits = int64(e.locks.Waits())
	sn.LockDeadlocks = int64(e.locks.Deadlocks())
	return sn
}

// Close implements engine.Engine.
func (e *SV2PL) Close() error {
	e.closed.Store(true)
	return nil
}

type svTx struct {
	e     *SV2PL
	id    uint64
	class engine.Class
	buf   map[string]bufWrite
	done  bool
	tn    uint64
}

// Get implements engine.Tx: shared lock, then the (single) current value.
func (t *svTx) Get(key string) ([]byte, error) {
	if t.done {
		return nil, engine.ErrTxDone
	}
	if w, ok := t.buf[key]; ok {
		if w.tombstone {
			return nil, engine.ErrNotFound
		}
		return w.data, nil
	}
	waitsBefore := t.e.locks.Waits()
	if err := t.acquire(key, lock.Shared); err != nil {
		return nil, err
	}
	if t.class == engine.ReadOnly && t.e.locks.Waits() > waitsBefore {
		t.e.stats.ROBlocked.Inc()
	}
	o := t.e.store.Get(key)
	if o == nil {
		t.e.rec.RecordRead(t.id, key, 0)
		return nil, engine.ErrNotFound
	}
	v, ok := o.LatestCommitted()
	if !ok {
		t.e.rec.RecordRead(t.id, key, 0)
		return nil, engine.ErrNotFound
	}
	t.e.rec.RecordRead(t.id, key, v.TN)
	if v.Tombstone {
		return nil, engine.ErrNotFound
	}
	return v.Data, nil
}

// Put implements engine.Tx.
func (t *svTx) Put(key string, value []byte) error {
	return t.write(key, bufWrite{data: value})
}

// Delete implements engine.Tx.
func (t *svTx) Delete(key string) error {
	return t.write(key, bufWrite{tombstone: true})
}

func (t *svTx) write(key string, w bufWrite) error {
	if t.done {
		return engine.ErrTxDone
	}
	if t.class == engine.ReadOnly {
		return engine.ErrReadOnly
	}
	if err := t.acquire(key, lock.Exclusive); err != nil {
		return err
	}
	t.buf[key] = w
	return nil
}

func (t *svTx) acquire(key string, mode lock.Mode) error {
	err := t.e.locks.Acquire(t.id, key, mode)
	if err == nil {
		return nil
	}
	t.abortInternal()
	return lockAbort(t.e.stats, err)
}

// lockAbort counts the abort a failed lock request causes in the two
// locking baselines and returns the engine error it surfaces as.
func lockAbort(s *obs.Stats, err error) error {
	if errors.Is(err, lock.ErrDeadlock) {
		s.AbortsDeadlock.Inc()
		return engine.ErrDeadlock
	}
	s.AbortsConflict.Inc()
	return engine.ErrConflict
}

// Commit implements engine.Tx: install in place (pruning old versions to
// keep the store single-version), then release locks.
func (t *svTx) Commit() error {
	if t.done {
		return engine.ErrTxDone
	}
	t.done = true
	if t.class == engine.ReadOnly || len(t.buf) == 0 {
		t.e.rec.RecordCommit(t.id, t.tn)
		t.e.locks.ReleaseAll(t.id)
		if t.class == engine.ReadOnly {
			t.e.stats.CommitsRO.Inc()
		} else {
			t.e.stats.CommitsRW.Inc()
		}
		return nil
	}
	t.tn = t.e.tnc.Add(1)
	for key, w := range t.buf {
		o := t.e.store.GetOrCreate(key)
		o.InstallCommitted(storage.Version{TN: t.tn, Data: w.data, Tombstone: w.tombstone})
		o.Prune(t.tn) // single-version: drop everything older
		t.e.rec.RecordWrite(t.id, key, t.tn)
	}
	t.e.rec.RecordCommit(t.id, t.tn)
	t.e.locks.ReleaseAll(t.id)
	t.e.stats.CommitsRW.Inc()
	return nil
}

// Abort implements engine.Tx.
func (t *svTx) Abort() {
	if t.done {
		return
	}
	t.e.stats.AbortsUser.Inc()
	t.abortInternal()
}

func (t *svTx) abortInternal() {
	if t.done {
		return
	}
	t.done = true
	t.e.locks.ReleaseAll(t.id)
	t.e.rec.RecordAbort(t.id)
}

// ID implements engine.Tx.
func (t *svTx) ID() uint64 { return t.id }

// Class implements engine.Tx.
func (t *svTx) Class() engine.Class { return t.class }

// SN implements engine.Tx.
func (t *svTx) SN() (uint64, bool) {
	if t.tn != 0 {
		return t.tn, true
	}
	return 0, false
}
