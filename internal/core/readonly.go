package core

import (
	"mvdb/internal/engine"
	"mvdb/internal/storage"
)

// roTx is a read-only transaction (paper Figure 2). It is shared by all
// three engines: begin obtains sn(T) = VCstart(); every read returns the
// version with the largest number <= sn(T); end is a no-op. It never
// interacts with the concurrency control component, never blocks, and
// never aborts.
type roTx struct {
	txObs
	sn uint64
}

func (e *Engine) beginReadOnly(id, pinSN uint64) *roTx {
	if e.opts.TrackReadOnly {
		// Publish before taking the snapshot, or a collection pass in
		// between prunes what the snapshot needs. The published number is
		// a lower bound — vtnc only grows, so the snapshot taken below is
		// at or above it — and it is the only registry write of the
		// transaction. A pass that scans the registry too early to see it
		// read its own vtnc earlier still (gc.Watermark reads vtnc first),
		// so its watermark is at or below our snapshot either way.
		pub := pinSN
		if pub == 0 {
			pub = e.vc.VTNC()
		}
		e.roActive.add(id, pub)
	}
	sn := pinSN
	if pinSN > 0 {
		// Pinned snapshot (BeginReadOnlyAt): read exactly at position
		// pinSN — time travel into history, or read-your-writes when
		// pinSN is a just-committed transaction's number. WaitVisible
		// already ran in BeginReadOnlyAt; re-check to keep the guarantee
		// local rather than racy.
		e.vc.WaitVisible(pinSN)
	} else {
		sn = e.vc.Start()
	}
	return &roTx{txObs: e.observe(id, protoRO, sn), sn: sn}
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
	v, ok, err := t.visible(t.e.store.Get(key))
	if err != nil {
		t.end(sp)
		return nil, err
	}
	t.read(key, v.TN)
	t.end(sp)
	return result(v, ok)
}

// visible applies the read rule to o (nil: the key was never written).
// Garbage collection keeps what every snapshot at or above its watermark
// reads, not what an older, untracked snapshot does: a miss below the
// object's pruned floor is ErrSnapshotTooOld, never "not found".
func (t *roTx) visible(o *storage.Object) (v storage.Version, ok bool, err error) {
	if o != nil {
		if v, ok = o.ReadVisible(t.sn); !ok && o.Floor() > t.sn {
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
		t.abort(causeUser, "")
	}
}

func (t *roTx) finish() {
	t.done = true
	if t.e.opts.TrackReadOnly {
		t.e.roActive.remove(t.id)
	}
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
		v, ok, verr := t.visible(o)
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
