package core

import (
	"mvdb/internal/engine"
	"mvdb/internal/storage"
	"mvdb/internal/vc"
	"mvdb/internal/wal"
)

// occTx is a read-write transaction under VC+OCC, the integration the
// paper attributes to the authors' earlier multiversion optimistic
// protocol (Section 4: "appears in [1, 2] and, hence, is not presented").
//
// Read phase: reads observe the latest committed version and record its
// number; writes are buffered locally. Validation (backward, serial): in
// a critical section the engine checks that every version read is still
// the latest — i.e. no transaction that committed after our reads wrote
// our read set — then registers with version control (the validation
// order IS the serial order, so this is the lock-point analogue), installs
// the write set with the assigned tn, and leaves the critical section.
// VCcomplete runs after the updates are in place, as in Figures 3 and 4.
type occTx struct {
	head Tx
	txObs
	reads readSet
	buf   writeSet
	entry vc.Entry // registered inside validation
}

// beginOptimistic is beginTwoPhase for optimistic execution.
func (e *Engine) beginOptimistic(id uint64, t *occTx) *Tx {
	if t == nil {
		t = new(occTx)
	}
	t.txObs, t.entry = e.observe(id, protoOCC, 0), vc.Entry{}
	t.head.self = t
	return &t.head
}

// readSet is what an optimistic transaction read, one entry per key in
// the order the keys were first read, with the version number it saw.
// It is kept like writeSet: inside the transaction struct for the first
// two keys, found by scanning, and indexed past writeSetScan.
type readSet struct {
	reads []read
	buf   [2]read
	index map[string]int // key → position, kept once the set outgrows a scan
}

type read struct {
	key string
	tn  uint64
}

// find returns key's position in the set, -1 if it was not read.
func (rs *readSet) find(key string) int {
	if rs.index != nil {
		if i, ok := rs.index[key]; ok {
			return i
		}
		return -1
	}
	for i := range rs.reads {
		if rs.reads[i].key == key {
			return i
		}
	}
	return -1
}

// add records the first read of key, which saw version tn.
func (rs *readSet) add(key string, tn uint64) {
	if rs.reads == nil {
		rs.reads = rs.buf[:0]
	}
	if rs.index == nil && len(rs.reads) >= writeSetScan {
		rs.index = make(map[string]int, 2*len(rs.reads))
		for i := range rs.reads {
			rs.index[rs.reads[i].key] = i
		}
	}
	if rs.index != nil {
		rs.index[key] = len(rs.reads)
	}
	rs.reads = append(rs.reads, read{key, tn})
}

// Get implements engine.Tx: optimistic read of the latest committed
// version, with no synchronization.
func (t *occTx) Get(key string) ([]byte, error) {
	if t.done {
		return nil, engine.ErrTxDone
	}
	sp := t.span(phaseRead)
	if i := t.buf.find(key); i >= 0 {
		t.end(sp)
		return readBack(t.buf.writes[i])
	}
	v, ok := t.e.latest(key)
	if i := t.reads.find(key); i < 0 {
		t.reads.add(key, v.TN)
	} else if t.reads.reads[i].tn != v.TN {
		// The object moved under us between two reads; the transaction
		// can no longer validate, so fail fast.
		t.done = true
		t.end(sp)
		return nil, t.abort(causeOCCRead)
	}
	t.read(key, v.TN)
	t.end(sp)
	return result(v, ok)
}

// Put implements engine.Tx: buffer the write until validation.
func (t *occTx) Put(key string, value []byte) error {
	return t.put(wal.Write{Key: key, Value: value})
}

// Delete implements engine.Tx: buffer a tombstone.
func (t *occTx) Delete(key string) error {
	return t.put(wal.Write{Key: key, Tombstone: true})
}

func (t *occTx) put(w wal.Write) error {
	if t.done {
		return engine.ErrTxDone
	}
	if err := storage.CheckKey(w.Key); err != nil {
		return err
	}
	t.buf.put(w)
	return nil
}

// Commit implements engine.Tx: validate, register, install, complete.
func (t *occTx) Commit() error {
	if t.done {
		return engine.ErrTxDone
	}
	t.done = true
	e := t.e
	// The validate span covers entering the critical section (waiting
	// out other validators), the read-set check, and registration — the
	// serial-order-fixing stretch that Larson et al. identify as OCC's
	// throughput ceiling.
	sp := t.span(phaseValidate)
	e.valMu.Lock()
	for _, r := range t.reads.reads {
		cur := uint64(0)
		if o := e.store.Get(r.key); o != nil {
			cur = o.LatestTN()
		}
		if cur != r.tn {
			e.valMu.Unlock()
			t.end(sp)
			return t.abort(causeOCCValidate)
		}
	}
	e.vc.RegisterEntry(&t.entry)
	t.end(sp)
	return e.commitTail(&t.txObs, &t.entry, t.buf.writes) // leaves the critical section
}

// Abort implements engine.Tx. An optimistic transaction holds nothing, so
// abort is pure bookkeeping.
func (t *occTx) Abort() {
	if !t.done {
		t.done = true
		t.abort(causeUser)
	}
}

// SN implements engine.Tx: assigned at validation.
func (t *occTx) SN() (uint64, bool) { return t.entry.TN(), t.entry.TN() != 0 }
