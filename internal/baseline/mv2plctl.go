package baseline

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"mvdb/internal/engine"
	"mvdb/internal/lock"
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
// timestamp and created by a listed transaction.
type MV2PLCTL struct {
	store *storage.Store
	locks *lock.Manager
	list  *ctl
	tnc   atomic.Uint64 // transaction numbers, assigned at lock-point
	ids   atomic.Uint64
	rec   engine.Recorder

	commitsRO      atomic.Uint64
	commitsRW      atomic.Uint64
	abortsConflict atomic.Uint64
	abortsDeadlock atomic.Uint64
	abortsUser     atomic.Uint64
	ctlCopied      atomic.Uint64 // total CTL entries copied by RO begins
	ctlProbes      atomic.Uint64 // membership probes during RO reads
	closed         atomic.Bool
}

// NewMV2PLCTL creates the Chan-style baseline engine.
func NewMV2PLCTL(rec engine.Recorder) *MV2PLCTL {
	if rec == nil {
		rec = engine.NopRecorder{}
	}
	return &MV2PLCTL{
		store: storage.NewStore(0),
		locks: lock.NewManager(lock.Detect, 0),
		list:  newCTL(),
		rec:   rec,
	}
}

// Name implements engine.Engine.
func (e *MV2PLCTL) Name() string { return "mv2pl+ctl(chan)" }

// Store exposes the underlying store.
func (e *MV2PLCTL) Store() *storage.Store { return e.store }

// Bootstrap loads initial data as version 0.
func (e *MV2PLCTL) Bootstrap(data map[string][]byte) error {
	if e.ids.Load() != 0 {
		return errors.New("baseline: Bootstrap after transactions started")
	}
	for k, v := range data {
		e.store.Bootstrap(k, v)
	}
	return nil
}

// Begin implements engine.Engine.
func (e *MV2PLCTL) Begin(class engine.Class) (engine.Tx, error) {
	if e.closed.Load() {
		return nil, errors.New("baseline: engine closed")
	}
	id := e.ids.Add(1)
	if class == engine.ReadOnly {
		t := &ctlROTx{
			e:  e,
			id: id,
			// Start timestamp: everything assigned so far is "before" us.
			st:   e.tnc.Load(),
			list: e.list.snapshot(),
		}
		e.ctlCopied.Add(uint64(t.list.size()))
		e.rec.RecordBegin(id, engine.ReadOnly)
		return t, nil
	}
	e.locks.Begin(id, 0)
	t := &ctlRWTx{e: e, id: id, buf: make(map[string]bufWrite)}
	e.rec.RecordBegin(id, engine.ReadWrite)
	return t, nil
}

// Stats implements engine.Engine.
func (e *MV2PLCTL) Stats() map[string]int64 {
	return map[string]int64{
		"commits.ro":      int64(e.commitsRO.Load()),
		"commits.rw":      int64(e.commitsRW.Load()),
		"aborts.conflict": int64(e.abortsConflict.Load()),
		"aborts.deadlock": int64(e.abortsDeadlock.Load()),
		"aborts.user":     int64(e.abortsUser.Load()),
		"rw.aborts.by_ro": 0,
		"ro.blocked":      0,
		"ctl.copied":      int64(e.ctlCopied.Load()),
		"ctl.probes":      int64(e.ctlProbes.Load()),
		"ctl.tail":        int64(e.list.tailLen()),
		"lock.waits":      int64(e.locks.Waits()),
		"lock.deadlocks":  int64(e.locks.Deadlocks()),
	}
}

// Close implements engine.Engine.
func (e *MV2PLCTL) Close() error {
	e.closed.Store(true)
	return nil
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

type bufWrite struct {
	data      []byte
	tombstone bool
}

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
	o := t.e.store.Get(key)
	if o == nil {
		t.e.rec.RecordRead(t.id, key, 0)
		return nil, engine.ErrNotFound
	}
	probes := 0
	v, ok := o.ReadVisibleWhere(t.st, func(tn uint64) bool {
		probes++
		return t.list.contains(tn)
	})
	t.e.ctlProbes.Add(uint64(probes))
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
	t.e.commitsRO.Add(1)
	return nil
}

// Abort implements engine.Tx.
func (t *ctlROTx) Abort() {
	if t.done {
		return
	}
	t.done = true
	t.e.abortsUser.Add(1)
	t.e.rec.RecordAbort(t.id)
}

// ID implements engine.Tx.
func (t *ctlROTx) ID() uint64 { return t.id }

// Class implements engine.Tx.
func (t *ctlROTx) Class() engine.Class { return engine.ReadOnly }

// SN implements engine.Tx.
func (t *ctlROTx) SN() (uint64, bool) { return t.st, true }

// ctlRWTx is a strict-2PL read-write transaction with lock-point
// transaction numbers.
type ctlRWTx struct {
	e    *MV2PLCTL
	id   uint64
	buf  map[string]bufWrite
	done bool
	tn   uint64
}

// Get implements engine.Tx.
func (t *ctlRWTx) Get(key string) ([]byte, error) {
	if t.done {
		return nil, engine.ErrTxDone
	}
	if w, ok := t.buf[key]; ok {
		if w.tombstone {
			return nil, engine.ErrNotFound
		}
		return w.data, nil
	}
	if err := t.acquire(key, lock.Shared); err != nil {
		return nil, err
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
func (t *ctlRWTx) Put(key string, value []byte) error {
	if t.done {
		return engine.ErrTxDone
	}
	if err := t.acquire(key, lock.Exclusive); err != nil {
		return err
	}
	t.buf[key] = bufWrite{data: value}
	return nil
}

// Delete implements engine.Tx.
func (t *ctlRWTx) Delete(key string) error {
	if t.done {
		return engine.ErrTxDone
	}
	if err := t.acquire(key, lock.Exclusive); err != nil {
		return err
	}
	t.buf[key] = bufWrite{tombstone: true}
	return nil
}

func (t *ctlRWTx) acquire(key string, mode lock.Mode) error {
	err := t.e.locks.Acquire(t.id, key, mode)
	if err == nil {
		return nil
	}
	var mapped error
	switch {
	case errors.Is(err, lock.ErrDeadlock):
		t.e.abortsDeadlock.Add(1)
		mapped = engine.ErrDeadlock
	default:
		t.e.abortsConflict.Add(1)
		mapped = engine.ErrConflict
	}
	t.abortInternal()
	return mapped
}

// Commit implements engine.Tx: assign tn at the lock-point, install
// versions, enter the completed transaction list, release locks.
func (t *ctlRWTx) Commit() error {
	if t.done {
		return engine.ErrTxDone
	}
	t.done = true
	t.tn = t.e.tnc.Add(1)
	for key, w := range t.buf {
		o := t.e.store.GetOrCreate(key)
		o.InstallCommitted(storage.Version{TN: t.tn, Data: w.data, Tombstone: w.tombstone})
		t.e.rec.RecordWrite(t.id, key, t.tn)
	}
	t.e.rec.RecordCommit(t.id, t.tn)
	// The transaction enters the CTL only after its updates are in place,
	// and before its locks are released — so any transaction that can have
	// observed its effects copies a list that already includes it.
	t.e.list.add(t.tn)
	t.e.locks.ReleaseAll(t.id)
	t.e.commitsRW.Add(1)
	return nil
}

// Abort implements engine.Tx.
func (t *ctlRWTx) Abort() {
	if t.done {
		return
	}
	t.e.abortsUser.Add(1)
	t.abortInternal()
}

func (t *ctlRWTx) abortInternal() {
	if t.done {
		return
	}
	t.done = true
	t.e.locks.ReleaseAll(t.id)
	t.e.rec.RecordAbort(t.id)
}

// ID implements engine.Tx.
func (t *ctlRWTx) ID() uint64 { return t.id }

// Class implements engine.Tx.
func (t *ctlRWTx) Class() engine.Class { return engine.ReadWrite }

// SN implements engine.Tx.
func (t *ctlRWTx) SN() (uint64, bool) {
	if t.tn != 0 {
		return t.tn, true
	}
	return 0, false
}
