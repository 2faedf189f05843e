package core

import (
	"mvdb/internal/engine"
	"mvdb/internal/storage"
)

// roTx is a read-only transaction (paper Figure 2). It is shared by all
// three engines: begin obtains sn(T) = VCstart(); every read returns the
// version with the largest number <= sn(T); end only gives back the
// registry slot that held collection off the snapshot. It never
// interacts with the concurrency control component, never blocks, and
// never aborts. View recycles the objects it begins, as Update does its
// read-write twins (DESIGN.md §18).
type roTx struct {
	head Tx
	txObs
	sn uint64
}

func (e *Engine) beginReadOnly(id, pinSN uint64, recent bool) *Tx {
	t := new(roTx)
	t.begin(e, id, pinSN, recent)
	return &t.head
}

// begin starts t as read-only transaction id of e. It overwrites all of
// t, so a recycled object (View) carries nothing over from its last use.
func (t *roTx) begin(e *Engine, id, pinSN uint64, recent bool) {
	slot, sn := e.snapshot(id, pinSN, recent)
	*t = roTx{txObs: e.observe(id, protoRO, sn), sn: sn}
	t.head.self = t
	t.slot = slot
}

// View runs fn in a read-only transaction at VCstart's snapshot, and
// commits it if fn returns nil and aborts it otherwise; if fn panics, the
// transaction is aborted on the panic's way out. It is the one place
// where the engine owns both a transaction's begin and its end, so the
// transaction object is recycled (e.views) and a View allocates nothing
// once the pool is warm: fn must not keep the transaction past its
// return. Handles from the Begin* methods are never recycled, so a
// second Commit on one still reads ErrTxDone.
func (e *Engine) View(fn func(*Tx) error) error {
	if err := e.admit(); err != nil {
		return err
	}
	t, _ := e.views.Get().(*roTx)
	if t == nil {
		t = new(roTx)
	}
	t.begin(e, e.ids.Add(1), 0, false)
	defer func() {
		if !t.done { // fn panicked
			t.Abort()
			return
		}
		e.views.Put(t)
	}()
	if err := fn(&t.head); err != nil {
		t.Abort()
		return err
	}
	return t.Commit()
}

// snapshot publishes a snapshot in the registry, then takes it, and
// returns the slot to free once it is closed. The snapshot is at pinSN if
// that is nonzero (BeginReadOnlyAt), at the most recently assigned
// transaction number if recent (BeginReadOnlyRecent), and VCstart's
// otherwise. Publishing first is what keeps collection from pruning what
// the snapshot reads: the number published (the pin, or vtnc) is a lower
// bound — vtnc only grows, and tnc - 1 is never below it — and a
// watermark whose scan was too early to see it read vtnc earlier still
// (Engine.watermark reads vtnc first), so it is at or below the snapshot
// either way. A recency wait comes after the publish for the same
// reason: commits go on collecting while it waits. id is the read-only
// transaction's (0 for a checkpoint): the slot probed first, and the
// recency wait's exemplar.
func (e *Engine) snapshot(id, pinSN uint64, recent bool) (slot int8, sn uint64) {
	pub := pinSN
	if pinSN == 0 {
		pub = e.vc.VTNC()
	}
	slot = e.roActive.Publish(id, pub)
	switch {
	case pinSN > 0:
		// Time travel into history, or read-your-writes when pinSN is a
		// just-committed transaction's number.
		sn = pinSN
	case recent:
		sn = e.vc.TNC() - 1
	default:
		return slot, e.vc.Start()
	}
	if e.vc.VTNC() < sn {
		e.recencyWait(id, sn)
	}
	return slot, sn
}

// Get implements engine.Tx: "return x_j with largest version <= sn(T)".
// Every version at or below sn is committed (Transaction Visibility
// Property), so the read requires no synchronization whatsoever. The
// phase timer's RO read row exists to prove exactly that: its samples
// should sit at memory-access latency regardless of write load. A key
// that is absent, or was created after our snapshot, reads as the
// bootstrap state so the checker can order us before the creator.
func (t *roTx) Get(key string) ([]byte, error) {
	if t.done {
		return nil, engine.ErrTxDone
	}
	sp := t.span(phaseRead)
	v, ok, err := visible(t.e.store.Get(key), t.sn)
	if err != nil {
		t.end(sp)
		return nil, err
	}
	t.read(key, v.TN)
	t.end(sp)
	return result(v, ok)
}

// visible applies the read rule at sn to o (nil: the key was never
// written). Collection keeps what every snapshot at or above its
// watermark reads, and every open snapshot holds the watermark at or
// below itself, except one pinned below a horizon collection had already
// passed (BeginReadOnlyAt): a miss below the object's pruned floor is
// ErrSnapshotTooOld, never "not found".
func visible(o *storage.Object, sn uint64) (v storage.Version, ok bool, err error) {
	if o != nil {
		var floor uint64
		if v, ok, floor = o.ReadAt(sn); !ok && floor > sn {
			err = engine.ErrSnapshotTooOld
		}
	}
	return v, ok, err
}

// Put implements engine.Tx; read-only transactions cannot write.
func (t *roTx) Put(string, []byte) error {
	if t.done {
		return engine.ErrTxDone
	}
	return engine.ErrReadOnly
}

// Delete implements engine.Tx; read-only transactions cannot write.
func (t *roTx) Delete(string) error {
	if t.done {
		return engine.ErrTxDone
	}
	return engine.ErrReadOnly
}

// Commit implements engine.Tx. For a read-only transaction end(T) is
// empty (Figure 2): nothing to synchronize, nothing to make visible.
func (t *roTx) Commit() error {
	if t.done {
		return engine.ErrTxDone
	}
	t.finish()
	t.committed(t.sn)
	return nil
}

// Abort implements engine.Tx. Aborting a read-only transaction is
// indistinguishable from committing it, except for bookkeeping.
func (t *roTx) Abort() {
	if !t.done {
		t.finish()
		t.abort(causeUser)
	}
}

func (t *roTx) finish() {
	t.done = true
	t.e.roActive.Unpublish(t.slot)
}

// SN implements engine.Tx.
func (t *roTx) SN() (uint64, bool) { return t.sn, true }

// Scan implements engine.Scanner: an ordered prefix scan over the
// transaction's snapshot. Because every version at or below sn is
// committed and immutable, the scan needs no synchronization — it is the
// long-running analytical read the paper's introduction motivates,
// running concurrently with updates at zero interference. A key whose
// versions the snapshot needs were collected stops the scan with
// ErrSnapshotTooOld.
func (t *roTx) Scan(prefix string, fn func(key string, value []byte) bool) error {
	if t.done {
		return engine.ErrTxDone
	}
	var err error
	t.e.store.RangeOrdered(prefix, func(key string, o *storage.Object) bool {
		v, ok, verr := visible(o, t.sn)
		if verr != nil {
			err = verr
			return false
		}
		if !ok {
			return true
		}
		t.read(key, v.TN)
		if v.Tombstone {
			return true
		}
		return fn(key, v.Data)
	})
	return err
}
