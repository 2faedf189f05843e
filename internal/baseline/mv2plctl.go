package baseline

import (
	"sort"
	"sync"
	"sync/atomic"

	"mvdb/internal/engine"
	"mvdb/internal/storage"
)

// ctl is the completed transaction list of Chan et al. It is compacted
// into a floor (every transaction number <= floor has committed) plus the
// out-of-order tail; the tail is exactly what a long-running transaction
// inflates, which is what experiment E4 measures.
type ctl struct {
	mu     sync.Mutex
	floor  uint64
	extras map[uint64]struct{}
}

func newCTL() *ctl { return &ctl{extras: make(map[uint64]struct{})} }

// add records tn as committed and compacts the tail.
func (c *ctl) add(tn uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if tn <= c.floor {
		return
	}
	c.extras[tn] = struct{}{}
	for {
		if _, ok := c.extras[c.floor+1]; !ok {
			break
		}
		c.floor++
		delete(c.extras, c.floor)
	}
}

// snapshot returns a copy of the list: the O(tail) cost every read-only
// transaction pays at begin in this protocol ("the maintenance and usage
// of the completed transaction list ... is cumbersome", Section 2).
func (c *ctl) snapshot() ctlCopy {
	c.mu.Lock()
	defer c.mu.Unlock()
	cp := ctlCopy{floor: c.floor}
	if len(c.extras) > 0 {
		cp.extras = make([]uint64, 0, len(c.extras))
		for tn := range c.extras {
			cp.extras = append(cp.extras, tn)
		}
		sort.Slice(cp.extras, func(i, j int) bool { return cp.extras[i] < cp.extras[j] })
	}
	return cp
}

// tailLen returns the current out-of-order tail length (instrumentation).
func (c *ctl) tailLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.extras)
}

// ctlCopy is a read-only transaction's private copy of the list.
type ctlCopy struct {
	floor  uint64
	extras []uint64
}

// contains reports whether tn is in the copied list. The binary search on
// every version probe is the per-read overhead of this baseline.
func (c *ctlCopy) contains(tn uint64) bool {
	if tn <= c.floor {
		return true
	}
	i := sort.Search(len(c.extras), func(i int) bool { return c.extras[i] >= tn })
	return i < len(c.extras) && c.extras[i] == tn
}

// size returns the number of entries materialized by the copy.
func (c *ctlCopy) size() int { return len(c.extras) + 1 }

// MV2PLCTL is the Chan et al. multiversion 2PL baseline (paper Section 2):
// read-write transactions run strict two-phase locking and receive their
// transaction number at the lock-point; read-only transactions carry a
// start timestamp and a copy of the completed transaction list, and every
// read scans for the largest version that is both below the start
// timestamp and created by a listed transaction. The list's own costs
// have no place in the stats snapshot: CTLCopied, CTLProbes and CTLTail
// report them.
type MV2PLCTL struct {
	locking
	list *ctl

	ctlCopied atomic.Uint64 // total CTL entries copied by RO begins
	ctlProbes atomic.Uint64 // membership probes during RO reads
}

// NewMV2PLCTL creates the Chan-style baseline engine.
func NewMV2PLCTL(rec engine.Recorder) *MV2PLCTL {
	e := &MV2PLCTL{list: newCTL()}
	e.init(rec, e.enlist)
	return e
}

// enlist is MV2PL-CTL's installed step. The transaction enters the CTL
// only after its updates are in place, and before its locks are
// released — so any transaction that can have observed its effects
// copies a list that already includes it.
func (e *MV2PLCTL) enlist(t *lockTx) { e.list.add(t.tn) }

// Name implements engine.Engine.
func (e *MV2PLCTL) Name() string { return "mv2pl+ctl(chan)" }

// Begin implements engine.Engine: a read-write transaction runs the
// locking protocol, a read-only one takes a start timestamp and a copy
// of the list.
func (e *MV2PLCTL) Begin(class engine.Class) (engine.Tx, error) {
	if class == engine.ReadWrite {
		return e.locking.Begin(class)
	}
	id, err := e.begin(class)
	if err != nil {
		return nil, err
	}
	t := &ctlROTx{
		e:  e,
		id: id,
		// Start timestamp: everything assigned so far is "before" us.
		st:   e.tnc.Load(),
		list: e.list.snapshot(),
	}
	e.ctlCopied.Add(uint64(t.list.size()))
	return t, nil
}

// HoldNumber simulates a transaction that has passed its lock point —
// its transaction number is allocated — but has not yet committed. In
// Chan's protocol this is exactly what creates holes in the completed
// transaction list: every later committer lands in the out-of-order tail
// until release is called. Experiment E4 uses it to reproduce the CTL
// growth the paper complains about (Section 2).
func (e *MV2PLCTL) HoldNumber() (release func()) {
	tn := e.tnc.Add(1)
	return func() { e.list.add(tn) }
}

// CTLTail returns the current out-of-order tail length.
func (e *MV2PLCTL) CTLTail() int { return e.list.tailLen() }

// CTLCopied returns the total number of list entries read-only begins
// have copied.
func (e *MV2PLCTL) CTLCopied() uint64 { return e.ctlCopied.Load() }

// CTLProbes returns the total number of list membership probes
// read-only reads have made.
func (e *MV2PLCTL) CTLProbes() uint64 { return e.ctlProbes.Load() }

// ctlROTx is a Chan-style read-only transaction.
type ctlROTx struct {
	e    *MV2PLCTL
	id   uint64
	st   uint64
	list ctlCopy
	done bool
}

// Get implements engine.Tx: the largest version <= st whose creator is in
// the copied completed transaction list.
func (t *ctlROTx) Get(key string) ([]byte, error) {
	if t.done {
		return nil, engine.ErrTxDone
	}
	var v storage.Version
	ok := false
	if o := t.e.store.Get(key); o != nil {
		probes := 0
		v, ok = o.ReadVisibleWhere(t.st, func(tn uint64) bool {
			probes++
			return t.list.contains(tn)
		})
		t.e.ctlProbes.Add(uint64(probes))
	}
	return t.e.read(t.id, key, v, ok)
}

// Put implements engine.Tx.
func (t *ctlROTx) Put(string, []byte) error {
	if t.done {
		return engine.ErrTxDone
	}
	return engine.ErrReadOnly
}

// Delete implements engine.Tx.
func (t *ctlROTx) Delete(string) error {
	if t.done {
		return engine.ErrTxDone
	}
	return engine.ErrReadOnly
}

// Commit implements engine.Tx.
func (t *ctlROTx) Commit() error {
	if t.done {
		return engine.ErrTxDone
	}
	t.done = true
	t.e.rec.RecordCommit(t.id, t.st)
	t.e.stats.CommitsRO.Inc()
	return nil
}

// Abort implements engine.Tx.
func (t *ctlROTx) Abort() {
	if t.done {
		return
	}
	t.done = true
	t.e.stats.AbortsUser.Inc()
	t.e.rec.RecordAbort(t.id)
}

// ID implements engine.Tx.
func (t *ctlROTx) ID() uint64 { return t.id }

// Class implements engine.Tx.
func (t *ctlROTx) Class() engine.Class { return engine.ReadOnly }

// SN implements engine.Tx.
func (t *ctlROTx) SN() (uint64, bool) { return t.st, true }
