package baseline

import (
	"errors"
	"sync/atomic"
	"time"

	"mvdb/internal/engine"
	"mvdb/internal/lock"
	"mvdb/internal/obs"
	"mvdb/internal/storage"
)

// readerLock marks a read-only transaction's id in the lock manager, so
// the wait observer tells a blocked read-only read from any other wait
// by the id it is handed.
const readerLock = 1 << 63

// locking is the shell of the two locking comparators: strict 2PL with
// transaction numbers assigned at the lock-point.
type locking struct {
	shell
	locks *lock.Manager
	tnc   atomic.Uint64
	// installed is the one step in which the engines' commits differ. It
	// runs after a numbered commit has installed its versions and before
	// it releases its locks.
	installed func(t *lockTx)
}

func (e *locking) init(rec engine.Recorder, installed func(t *lockTx)) {
	e.shell.init(rec)
	e.locks = lock.NewManager(lock.Detect, 0)
	e.installed = installed
	// A read-only transaction takes only shared locks, and only in Get:
	// each of its waits is one blocked read.
	e.locks.SetWaitObserver(func(id uint64, _ time.Duration) {
		if id&readerLock != 0 {
			e.stats.ROBlocked.Inc()
		}
	})
	e.locks.SetBlockObserver(func(id uint64, _ string) { e.rec.RecordParked(id&^readerLock, true) },
		func(id uint64) { e.rec.RecordParked(id&^readerLock, false) })
}

// Begin implements engine.Engine. Both classes run the same locking
// protocol; the class only gates writes.
func (e *locking) Begin(class engine.Class) (engine.Tx, error) {
	id, err := e.begin(class)
	if err != nil {
		return nil, err
	}
	t := &lockTx{e: e, id: id, class: class, buf: make(map[string]storage.Version)}
	e.locks.Begin(t.lockID(), 0)
	return t, nil
}

// Stats implements engine.Engine.
func (e *locking) Stats() obs.Snapshot {
	sn := e.stats.Snapshot()
	sn.LockWaits = int64(e.locks.Waits())
	sn.LockDeadlocks = int64(e.locks.Deadlocks())
	return sn
}

// lockTx is a strict-2PL transaction: reads take shared locks and see
// the latest committed version, writes take exclusive locks and are
// buffered until Commit.
type lockTx struct {
	e     *locking
	id    uint64
	class engine.Class
	buf   map[string]storage.Version
	done  bool
	tn    uint64
}

func (t *lockTx) lockID() uint64 {
	if t.class == engine.ReadOnly {
		return t.id | readerLock
	}
	return t.id
}

// Get implements engine.Tx.
func (t *lockTx) Get(key string) ([]byte, error) {
	if t.done {
		return nil, engine.ErrTxDone
	}
	if w, ok := t.buf[key]; ok {
		return value(w)
	}
	if err := t.acquire(key, lock.Shared); err != nil {
		return nil, err
	}
	var v storage.Version
	ok := false
	if o := t.e.store.Get(key); o != nil {
		v, ok = o.LatestCommitted()
	}
	return t.e.read(t.id, key, v, ok)
}

// Put implements engine.Tx.
func (t *lockTx) Put(key string, value []byte) error {
	return t.write(key, storage.Version{Data: value})
}

// Delete implements engine.Tx.
func (t *lockTx) Delete(key string) error {
	return t.write(key, storage.Version{Tombstone: true})
}

func (t *lockTx) write(key string, w storage.Version) error {
	if t.done {
		return engine.ErrTxDone
	}
	if t.class == engine.ReadOnly {
		return engine.ErrReadOnly
	}
	if err := storage.CheckKey(key); err != nil {
		return err
	}
	if err := t.acquire(key, lock.Exclusive); err != nil {
		return err
	}
	t.buf[key] = w
	return nil
}

// acquire takes a lock, aborting the transaction if it is refused.
func (t *lockTx) acquire(key string, mode lock.Mode) error {
	err := t.e.locks.Acquire(t.lockID(), key, mode)
	if err == nil {
		return nil
	}
	t.abort()
	if errors.Is(err, lock.ErrDeadlock) {
		t.e.stats.AbortsDeadlock.Inc()
		return engine.ErrDeadlock
	}
	t.e.stats.AbortsConflict.Inc()
	return engine.ErrConflict
}

// Commit implements engine.Tx. A commit that wrote takes its number at
// the lock-point, installs its versions, runs the engine's installed
// step and releases its locks; one that wrote nothing takes no number.
func (t *lockTx) Commit() error {
	if t.done {
		return engine.ErrTxDone
	}
	t.done = true
	if len(t.buf) > 0 {
		t.tn = t.e.tnc.Add(1)
		for key, w := range t.buf {
			w.TN = t.tn
			t.e.store.GetOrCreate(key).InstallCommitted(w)
			t.e.rec.RecordWrite(t.id, key, t.tn)
		}
	}
	t.e.rec.RecordCommit(t.id, t.tn)
	if t.tn != 0 {
		t.e.installed(t)
	}
	t.e.locks.ReleaseAll(t.lockID())
	if t.class == engine.ReadOnly {
		t.e.stats.CommitsRO.Inc()
	} else {
		t.e.stats.CommitsRW.Inc()
	}
	return nil
}

// Abort implements engine.Tx.
func (t *lockTx) Abort() {
	if t.done {
		return
	}
	t.e.stats.AbortsUser.Inc()
	t.abort()
}

func (t *lockTx) abort() {
	t.done = true
	t.e.locks.ReleaseAll(t.lockID())
	t.e.rec.RecordAbort(t.id)
}

// ID implements engine.Tx.
func (t *lockTx) ID() uint64 { return t.id }

// Class implements engine.Tx.
func (t *lockTx) Class() engine.Class { return t.class }

// SN implements engine.Tx.
func (t *lockTx) SN() (uint64, bool) { return t.tn, t.tn != 0 }
