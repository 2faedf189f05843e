// Package core implements the paper's primary contribution: multiversion
// transaction engines in which synchronization is split into a version
// control module (internal/vc) and a pluggable conflict-based concurrency
// control component.
//
// Three engines are provided, corresponding to the paper's Section 4:
//
//   - VC+2PL  (Figure 4): two-phase locking; transactions register with
//     version control at their lock-point (here: at end of execution,
//     when all locks are held).
//   - VC+T/O  (Figure 3): timestamp ordering; transactions register at
//     begin, since their serial position is fixed a priori.
//   - VC+OCC  (Section 4, referencing the authors' earlier work):
//     optimistic execution with backward validation; transactions
//     register inside the validation critical section.
//
// Read-only transactions are identical under all three engines — one call
// to VCstart, then snapshot reads (Figure 2) — which is precisely the
// modularity the paper advertises: their execution is "completely
// independent of the underlying concurrency control implementation".
package core

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mvdb/internal/engine"
	"mvdb/internal/faultfs"
	"mvdb/internal/lock"
	"mvdb/internal/obs"
	"mvdb/internal/storage"
	"mvdb/internal/vc"
	"mvdb/internal/vc/epoch"
	"mvdb/internal/wal"
)

// Protocol selects the concurrency-control component for read-write
// transactions.
type Protocol int

const (
	// TwoPhaseLocking is the VC+2PL engine (paper Figure 4).
	TwoPhaseLocking Protocol = iota
	// TimestampOrdering is the VC+T/O engine (paper Figure 3).
	TimestampOrdering
	// Optimistic is the VC+OCC engine.
	Optimistic
)

func (p Protocol) String() string {
	switch p {
	case TwoPhaseLocking:
		return "vc+2pl"
	case TimestampOrdering:
		return "vc+to"
	case Optimistic:
		return "vc+occ"
	default:
		return fmt.Sprintf("protocol(%d)", int(p))
	}
}

// Options configures an Engine.
type Options struct {
	// Protocol selects the read-write concurrency control. Default: 2PL.
	Protocol Protocol
	// LockPolicy selects deadlock handling for 2PL: lock.Detect (the
	// default, a standalone engine's and a one-site cluster's) or
	// lock.TimeoutPolicy (a site's of a larger cluster, whose waits-for
	// relation cannot see a cycle across sites).
	LockPolicy lock.Policy
	// LockTimeout applies when LockPolicy is lock.TimeoutPolicy.
	LockTimeout time.Duration
	// Visibility selects the version-control implementation: the
	// paper's strict drain queue (default) or the epoch watermark
	// (internal/vc/epoch), which decentralizes completion tracking and
	// advances visibility in batches. Both preserve the Transaction
	// Ordering and Visibility Properties; the mode changes scalability,
	// not semantics.
	Visibility vc.Mode
	// Recorder receives history events for offline checking (tests).
	Recorder engine.Recorder
	// PhaseTiming enables per-transaction latency attribution: each
	// protocol's separable phases (lock wait, reads, validation, WAL
	// enqueue vs fsync wait, version install, and the committer's own
	// VCcomplete step) are timed into per-protocol histograms that
	// Stats reports in Phases.
	// When false (the default) no phase state is allocated and every
	// timing site reduces to one nil test — the disabled path keeps
	// the seed's allocation profile.
	PhaseTiming bool

	// UnsafeEarlyRegister2PL is ablation A1: it makes the 2PL engine
	// register transactions with version control at begin instead of at
	// the lock-point. The paper requires registration only once the
	// serial order is fixed; this flag deliberately violates that and is
	// used by tests to show the history checker catches the violation.
	UnsafeEarlyRegister2PL bool
	// UnsafeEagerVisibility is ablation A2: vtnc advances in completion
	// order rather than serialization order, violating the Transaction
	// Visibility Property. Test-only.
	UnsafeEagerVisibility bool

	site *site // set by ClusterSite only (site.go)
}

// Engine is a multiversion engine with modular version control. It
// implements engine.Engine.
type Engine struct {
	opts  Options
	store *storage.Store
	vc    vc.Controller
	locks *lock.Manager // exists under every protocol; only 2PL takes locks
	valMu sync.Mutex    // OCC validation critical section
	sinks               // everything the engine reports to (observe.go)

	roActive *Registry    // the engine's own, or the one its cluster's sites share
	recent   recentParked // read-only transactions in a recency wait (observe.go)
	views    sync.Pool    // View's recycled read-only transactions (readonly.go)
	updates  sync.Pool    // Update's recycled read-write transactions

	// The commit log, and what the engine checkpoints through: a durable
	// engine (OpenDurable) owns all three, and log is nil on any other.
	// Each read-write commit appends one record (transaction number and
	// write set) to log before its versions become visible.
	log     *wal.Writer
	fsys    faultfs.FS
	walPath string
	// ckptMu runs checkpoints one at a time; oldBound, under it, is the
	// largest number a record in the retired log (OldPath) can carry.
	ckptMu   sync.Mutex
	oldBound uint64

	closed          atomic.Bool
	bootstrapSealed atomic.Bool

	// The counter every begin writes comes last, a pad away from the
	// flags and pointers above that every transaction reads, so a begin
	// does not take the line that holds closed from every other core
	// (TestEngineCountersOwnTheirLine).
	_   [64]byte
	ids atomic.Uint64 // transaction id allocator (diagnostics, lock owner)
}

// recentParked is the read-only transactions parked in a recency wait
// (observe.go), each with the number it waits to see visible and the
// channel that wakes it.
type recentParked struct {
	n       atomic.Int32 // len(waiting), which every step that moves vtnc reads
	mu      sync.Mutex
	waiting []recentWait
}

type recentWait struct {
	id, sn uint64
	wake   chan struct{}
}

// newController builds the version-control module for a mode (or a
// cluster site's residue class) and bootstrap snapshot. It lives here
// rather than in package vc because the epoch implementation imports vc
// for the contract types.
func newController(opts Options, initial uint64) vc.Controller {
	switch {
	case opts.site != nil:
		return vc.NewStrided(initial, opts.site.offset, opts.site.step)
	case opts.Visibility == vc.ModeEpoch:
		return epoch.New(initial)
	}
	return vc.New(initial)
}

// New creates an engine.
func New(opts Options) *Engine {
	e := newUnstarted(opts)
	e.vc = newController(opts, 0)
	return e
}

// newUnstarted builds everything but the version-control module, which
// recovery can only build once it knows the largest recovered number.
func newUnstarted(opts Options) *Engine {
	e := &Engine{
		opts:     opts,
		store:    storage.NewStore(0),
		sinks:    newSinks(opts),
		roActive: opts.site.registry(),
	}
	// The lock manager exists under every protocol: LockWaitGraph, the
	// stripe heatmap and the lock counters read it unconditionally.
	e.locks = lock.NewManager(opts.LockPolicy, opts.LockTimeout)
	e.observeLocks()
	return e
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return e.opts.Protocol.String() }

// Store exposes the underlying store (garbage collection, tools).
func (e *Engine) Store() *storage.Store { return e.store }

// VC exposes the version control module (experiments, garbage collection).
func (e *Engine) VC() vc.Controller { return e.vc }

// VTNC returns the current visibility horizon (it satisfies gc.Source).
func (e *Engine) VTNC() uint64 { return e.vc.VTNC() }

// Bootstrap loads key/value pairs as version 0, before any transactions,
// in key order.
// A durable engine first logs them, as one version-0 record, so they
// survive a reopen as every commit does; it refuses a Bootstrap once it
// has recovered anything, whose version 0 may already be there.
func (e *Engine) Bootstrap(data map[string][]byte) error {
	if e.bootstrapSealed.Load() {
		return errors.New("core: Bootstrap after the first transaction or on a recovered engine")
	}
	keys := slices.Sorted(maps.Keys(data)) // the store appends; the record is the same every run
	for _, k := range keys {
		if err := storage.CheckKey(k); err != nil {
			return err
		}
	}
	if e.log != nil {
		rec := wal.Record{Writes: make([]wal.Write, 0, len(data))}
		for _, k := range keys {
			rec.Writes = append(rec.Writes, wal.Write{Key: k, Value: data[k]})
		}
		if err := e.log.Append(rec); err != nil {
			return fmt.Errorf("core: bootstrap: %w", err)
		}
	}
	for _, k := range keys {
		e.store.Bootstrap(k, data[k])
	}
	return nil
}

// Tx is the header of every transaction the engine begins. Each
// protocol's transaction struct holds it as its first field, so a
// transaction is one allocation: the header, the protocol's state, 2PL's
// lock state and the version-control entry. mvdb.Tx is this type under
// its own name, and converting between the two is free. A header is an
// engine.Tx: each method forwards to the transaction it heads.
type Tx struct {
	self engine.Tx // the protocol struct this header heads
}

func (h *Tx) Get(key string) ([]byte, error)     { return h.self.Get(key) }
func (h *Tx) Put(key string, value []byte) error { return h.self.Put(key, value) }
func (h *Tx) Delete(key string) error            { return h.self.Delete(key) }
func (h *Tx) Commit() error                      { return h.self.Commit() }
func (h *Tx) Abort()                             { h.self.Abort() }
func (h *Tx) SN() (uint64, bool)                 { return h.self.SN() }
func (h *Tx) ID() uint64                         { return h.self.ID() }
func (h *Tx) Class() engine.Class                { return h.self.Class() }

// Scan implements engine.Scanner for a read-only transaction; a
// read-write one cannot scan.
func (h *Tx) Scan(prefix string, fn func(key string, value []byte) bool) error {
	if s, ok := h.self.(engine.Scanner); ok {
		return s.Scan(prefix, fn)
	}
	return fmt.Errorf("%w: Scan requires a read-only transaction", engine.ErrReadOnly)
}

// Begin implements engine.Engine: BeginTx, returning the transaction the
// header heads.
func (e *Engine) Begin(class engine.Class) (engine.Tx, error) {
	h, err := e.BeginTx(class)
	if err != nil {
		return nil, err
	}
	return h.self, nil
}

// BeginTx starts a transaction of class — under the engine's protocol
// if it is read-write — and returns its header.
func (e *Engine) BeginTx(class engine.Class) (*Tx, error) {
	if err := e.admit(); err != nil {
		return nil, err
	}
	id := e.ids.Add(1)
	if class == engine.ReadOnly {
		return e.beginReadOnly(id, 0, false), nil
	}
	return e.beginReadWrite(id, nil)
}

// beginReadWrite begins read-write transaction id under the engine's
// protocol, in recycled if that is the protocol's struct (Update: one
// whose entry has left the controller) and in a new one otherwise.
func (e *Engine) beginReadWrite(id uint64, recycled any) (*Tx, error) {
	switch p := e.opts.Protocol; p {
	case TwoPhaseLocking:
		t, _ := recycled.(*twoPhaseTx)
		return e.beginTwoPhase(id, t), nil
	case TimestampOrdering:
		t, _ := recycled.(*tsoTx)
		return e.beginTimestamp(id, t), nil
	case Optimistic:
		t, _ := recycled.(*occTx)
		return e.beginOptimistic(id, t), nil
	default:
		return nil, fmt.Errorf("core: unknown protocol %v", p)
	}
}

// pooled takes a struct from e.updates whose version-control entry has
// left the controller, or returns nil. One still linked — Strict's
// Complete leaves an entry behind an older open one — is not waited for:
// the next is tried, and the linked one goes back for a later Update.
// A struct whose last commit left its prune to this begin (collectWritten)
// first prunes the keys it kept, at the watermark now, and empties its
// write set.
func (e *Engine) pooled() any {
	p := e.updates.Get()
	if linked(p) {
		q := e.updates.Get()
		e.updates.Put(p)
		if p = q; linked(p) {
			e.updates.Put(p)
			return nil
		}
	}
	if _, ws, o := parts(p); ws != nil && len(ws.writes) > 0 {
		w, n := e.watermark(), 0
		for _, wr := range ws.writes {
			if obj := e.store.Get(wr.Key); obj != nil {
				n += obj.Prune(w)
			}
		}
		o.collected(n)
		*ws = writeSet{}
	}
	return p
}

// parts returns a pooled struct's version-control entry, write set and
// seam; nil for anything else.
func parts(p any) (*vc.Entry, *writeSet, *txObs) {
	switch t := p.(type) {
	case *twoPhaseTx:
		return &t.entry, &t.buf, &t.txObs
	case *tsoTx:
		return &t.entry, &t.writes, &t.txObs
	case *occTx:
		return &t.entry, &t.buf, &t.txObs
	}
	return nil, nil, nil
}

// linked reports whether p is a pooled struct whose entry is Linked.
func linked(p any) bool {
	entry, _, _ := parts(p)
	return entry != nil && entry.Linked()
}

// Update runs fn in a read-write transaction under the engine's
// protocol, and commits it if fn returns nil and aborts it otherwise; if
// fn panics, the transaction is aborted on the panic's way out and its
// struct dropped. It is View's read-write twin: the engine owns the
// transaction's begin and end, so the struct is recycled (e.updates) and
// an Update allocates nothing of its own once the pool is warm; fn must
// not keep the transaction past its return. A struct is begun again only
// once its version-control entry has left the controller (pooled,
// DESIGN.md §18). Handles from BeginTx, BeginSite and Adopt are never
// recycled.
func (e *Engine) Update(fn func(*Tx) error) error {
	if err := e.admit(); err != nil {
		return err
	}
	h, err := e.beginReadWrite(e.ids.Add(1), e.pooled())
	if err != nil {
		return err
	}
	ended := false
	defer func() {
		if !ended { // fn panicked
			h.Abort()
			return
		}
		// Drop the values, and the keys and an outgrown set unless the
		// commit left its prune to the struct's next begin, so a pooled
		// struct pins no value and at most the keys it must prune.
		_, ws, o := parts(h.self)
		ws.recycle(o.pruneLater)
		if t, ok := h.self.(*occTx); ok {
			t.reads = readSet{}
		}
		e.updates.Put(h.self)
	}()
	if err = fn(h); err != nil {
		h.Abort()
	} else {
		err = h.Commit()
	}
	ended = true
	return err
}

// admit fails once the engine is closed, and otherwise seals Bootstrap
// off. The flag is written once: a store on every begin would be a
// shared write on the cache line that holds closed, which every begin
// reads.
func (e *Engine) admit() error {
	if e.closed.Load() {
		return errors.New("core: engine closed")
	}
	if !e.bootstrapSealed.Load() {
		e.bootstrapSealed.Store(true)
	}
	return nil
}

// BeginReadOnlyRecent starts a read-only transaction that is guaranteed to
// observe every read-write transaction serialized before the call. This is
// the first rectification of delayed visibility from Section 6 of the
// paper: the start number is forced to be at least the most recently
// assigned transaction number, waiting for visibility to catch up.
func (e *Engine) BeginReadOnlyRecent() (*Tx, error) {
	return e.beginPinned(0, true)
}

// BeginReadOnlyAt starts a read-only transaction whose snapshot is pinned
// at exactly serialization position sn, waiting until that position
// becomes visible if it is in the future (Section 6: "ensuring that R be
// executed with a value of sn(R) which is at least as large as tn(T)").
// Two uses: pass the TN of a committed transaction (Tx.SN after Commit)
// for read-your-writes, or a historical position for time travel — any
// position whose versions have not been garbage-collected reads
// consistently.
func (e *Engine) BeginReadOnlyAt(sn uint64) (*Tx, error) {
	return e.beginPinned(sn, false)
}

func (e *Engine) beginPinned(sn uint64, recent bool) (*Tx, error) {
	if err := e.admit(); err != nil {
		return nil, err
	}
	return e.beginReadOnly(e.ids.Add(1), sn, recent), nil
}

// LockWaitGraph exports the lock manager's current waits-for graph (the
// flight recorder's postmortem bundles include it).
func (e *Engine) LockWaitGraph() lock.WaitGraph { return e.locks.WaitGraph() }

// Stats implements engine.Engine. It assembles the full observability
// snapshot: registry counters, lock-manager and WAL substrate counters,
// version-control gauges, and storage-shape gauges. Gauges are read in
// an order that preserves the paper's invariants within one snapshot
// (vtnc before tnc, commits before begins); the storage walk makes this
// O(keys), so it is meant for periodic polling, not per-transaction
// calls.
func (e *Engine) Stats() obs.Snapshot {
	sn := e.stats.Snapshot()
	sn.Protocol = e.opts.Protocol.String()
	sn.LockWaits = int64(e.locks.Waits())
	sn.LockDeadlocks = int64(e.locks.Deadlocks())
	sn.LockTimeouts = int64(e.locks.Timeouts())
	sn.LockStripes = e.locks.Stripes()
	sn.LockStripeCollisions = int64(e.locks.StripeCollisions())
	// vtnc first, then tnc: both only grow, so vtnc <= tnc-1 holds for
	// the pair even while commits race the snapshot.
	vtnc := e.vc.VTNC()
	tnc := e.vc.TNC()
	sn.VisibilityMode = e.vc.Mode().String()
	sn.VTNC = vtnc
	sn.TNC = tnc
	sn.VisibilityLag = tnc - 1 - vtnc
	sn.VCQueueLen = e.vc.QueueLen()
	var keys int
	var versions int64
	var maxChain int
	e.store.Range(func(_ string, o *storage.Object) bool {
		keys++
		n := o.VersionCount()
		versions += int64(n)
		if n > maxChain {
			maxChain = n
		}
		return true
	})
	sn.Keys = keys
	sn.Versions = versions
	sn.MaxVersionChain = maxChain
	if keys > 0 {
		sn.MeanVersionChain = float64(versions) / float64(keys)
	}
	sn.Phases = e.phases.Summaries()
	if e.log != nil {
		a, f, b := e.log.Counters()
		sn.WALAppends = int64(a)
		sn.WALFsyncs = int64(f)
		sn.WALBytes = int64(b)
		sn.WALBatches = int64(e.log.Batches())
		sn.WALGatherTimeouts = int64(e.log.GatherTimeouts())
		if a > 0 {
			sn.WALFsyncPerAppend = float64(f) / float64(a)
		}
		sn.WALSizeBytes = e.log.Size()
		if fi, err := e.fsys.Stat(OldPath(e.walPath)); err == nil {
			sn.WALSizeBytes += fi.Size()
		}
	}
	return sn
}

// Close implements engine.Engine: the engine refuses new transactions,
// and a durable one drains and closes its commit log, returning the log's
// error — the sticky one a failed write or fsync left, too.
func (e *Engine) Close() error {
	e.closed.Store(true)
	if e.log == nil {
		return nil
	}
	return e.log.Close()
}

// MinActiveReadOnlySN returns a lower bound on the snapshots open in the
// engine — read-only transactions and checkpoints, what each published
// (see snapshot) — and whether any are open. The garbage collector
// combines it with vtnc to compute its watermark.
func (e *Engine) MinActiveReadOnlySN() (uint64, bool) {
	return e.roActive.min()
}

// watermark is the collection horizon commitTail prunes at: at the
// first install of a commit that finds its array full, reused for the
// commit's other keys — a watermark taken earlier is never larger than
// one taken later — and, for a logged commit, once more after VCcomplete
// (collectWritten, DESIGN.md §17): min(vtnc, the registry's minimum),
// vtnc read first, as in gc.Collector.Watermark. Every snapshot is at or above it, because it
// publishes before it takes its number (snapshot): the scan saw its slot,
// which holds a lower bound on that number, or it published after the
// scan and so read vtnc after vtnc was read here, and vtnc only grows.
// The only snapshots that can read lower are pinned below vtnc
// (BeginReadOnlyAt), which is what the pruned floor reports.
func (e *Engine) watermark() uint64 {
	w := e.vc.VTNC()
	if sn, ok := e.roActive.min(); ok && sn < w {
		w = sn
	}
	return w
}

// writeSet is a transaction's buffered (2PL, OCC) or pending (T/O)
// writes, one entry per key in the order the keys were first written. It
// is kept in the form the commit record wants, so commitTail hands
// writes to the log as it stands and installs in the same order.
type writeSet struct {
	writes []wal.Write
	buf    [2]wal.Write   // backs a small set inside the transaction struct
	index  map[string]int // key → position, kept once the set outgrows a scan
}

// writeSetScan is the size up to which a key is found by scanning.
const writeSetScan = 16

// find returns key's position in the set, -1 if it was not written.
func (ws *writeSet) find(key string) int {
	if ws.index != nil {
		if i, ok := ws.index[key]; ok {
			return i
		}
		return -1
	}
	for i := range ws.writes {
		if ws.writes[i].Key == key {
			return i
		}
	}
	return -1
}

// put records w; a key written before keeps its place and takes w's value.
func (ws *writeSet) put(w wal.Write) {
	if i := ws.find(w.Key); i >= 0 {
		ws.writes[i] = w
		return
	}
	if ws.writes == nil {
		ws.writes = ws.buf[:0]
	}
	if ws.index == nil && len(ws.writes) >= writeSetScan {
		ws.index = make(map[string]int, 2*len(ws.writes))
		for i := range ws.writes {
			ws.index[ws.writes[i].Key] = i
		}
	}
	if ws.index != nil {
		ws.index[w.Key] = len(ws.writes)
	}
	ws.writes = append(ws.writes, w)
}

// recycle empties the set for a pooled struct, or, if keep, drops only
// its values: the keys are what the struct's next begin prunes (pooled).
func (ws *writeSet) recycle(keep bool) {
	if !keep {
		*ws = writeSet{}
		return
	}
	for i := range ws.writes {
		ws.writes[i].Value = nil
	}
	for i := range ws.buf { // an outgrown set left copies behind
		ws.buf[i].Value = nil
	}
}

// readBack is a transaction reading its own write.
func readBack(w wal.Write) ([]byte, error) {
	return result(storage.Version{Data: w.Value, Tombstone: w.Tombstone}, true)
}

// result maps a read onto Get's return values: an absent object, one
// with no version the reader may see, and a tombstone all read as not
// found.
func result(v storage.Version, ok bool) ([]byte, error) {
	if !ok || v.Tombstone {
		return nil, engine.ErrNotFound
	}
	return v.Data, nil
}

// latest returns key's newest committed version; an absent key reads as
// the zero Version, number 0 — the bootstrap state.
func (e *Engine) latest(key string) (storage.Version, bool) {
	if o := e.store.Get(key); o != nil {
		return o.LatestCommitted()
	}
	return storage.Version{}, false
}

// commitTail is what the three protocols share once a transaction's
// serial position is fixed and registered (at the lock-point, at begin,
// or inside validation). The commit is pipelined: enqueue the commit
// record, put the versions numbered tn(T) in place, give back what
// concurrency control holds — and only then wait for the record to be
// durable, record the commit and VCcomplete. While T waits, a read-write
// transaction may read its versions; that reader's own record queues
// behind T's in the one log, which is durable as a prefix or not at all
// (wal.Writer), so it can never be acknowledged unless T is. Snapshots
// read at vtnc, which passes tn(T) only at VCcomplete, and never see a
// version that can still be withdrawn. A log failure — at enqueue or in
// the wait — withdraws the versions, aborts the transaction and is
// returned. An install that finds its chain's array full first drops
// what no snapshot can reach (storage.Object.Install): the new version
// is above the watermark, which never passes vtnc, so neither it nor a
// withdrawal ever touches what that drops. A logged commit prunes the
// chains that kept an older version once it is complete (collectWritten).
func (e *Engine) commitTail(o *txObs, entry *vc.Entry, writes []wal.Write) error {
	tn := entry.TN()
	w := e.log
	var ticket wal.Ticket
	var err error
	if w != nil {
		// Also with an empty write set: the ticket is what orders this
		// commit behind the writers of everything it read.
		ticket, err = o.enqueueLog(w, wal.Record{TN: tn, Writes: writes})
	}
	// The objects whose installs left an older version, for a logged
	// commit to prune once it completes; a write set larger than
	// writeSetScan keys spills them to the heap.
	older := make([]*storage.Object, 0, writeSetScan)
	if err == nil {
		sp := o.span(phaseInstall)
		dropped := 0
		var wm uint64 // the commit's watermark + 1 once an install asked for it
		watermark := func() uint64 {
			if wm == 0 {
				wm = e.watermark() + 1
			}
			return wm - 1
		}
		for _, wr := range writes {
			obj := e.store.GetOrCreate(wr.Key)
			d, old := 0, false
			if o.proto == protoTO {
				d, old = obj.ResolvePending(tn, true, watermark) // the version is already there, pending
			} else {
				d, old = obj.Install(storage.Version{TN: tn, Data: wr.Value, Tombstone: wr.Tombstone}, watermark)
			}
			dropped += d
			if old && w != nil {
				older = append(older, obj)
			}
			o.wrote(wr.Key, tn)
		}
		o.end(sp)
		o.collected(dropped)
	} else if o.proto == protoTO {
		e.destroyPending(tn, writes)
	}
	// The protocol's release step: Figure 4's "clear locks", OCC leaving
	// its validation critical section; timestamp ordering holds nothing
	// once its pending versions are resolved.
	switch o.proto {
	case proto2PL:
		e.locks.ReleaseAll(o.id)
	case protoOCC:
		e.valMu.Unlock()
	}
	if err == nil && w != nil {
		if err = o.awaitLog(w, ticket); err != nil {
			for _, wr := range writes {
				e.store.Get(wr.Key).Withdraw(tn)
			}
		}
	}
	if err != nil {
		e.vc.Discard(entry) // after the withdrawal: vtnc may now pass tn
		o.abort(causeLog)
		return fmt.Errorf("core: commit log: %w", err)
	}
	o.committed(tn)
	o.complete(entry)
	if len(older) > 0 {
		e.collectWritten(o, tn, older)
	}
	return nil
}

// collectWritten is collection at completion (DESIGN.md §17): once tn is
// complete, the chains its installs left an older version in drop what
// no snapshot reaches, at a watermark read after VCcomplete. When that
// watermark is below tn — the entry completed behind an older open one,
// or a snapshot published below tn — the prune would drop nothing the
// commit left, so it is left to the struct's next begin (pooled), when
// Update recycles it: a strict entry has left the controller by then, so
// vtnc has passed tn. Only a logged commit runs it: under group commit
// it has just waited a device sync, beside which the prune costs
// nothing measurable. An in-memory commit would pay for it in throughput
// (EXPERIMENTS.md P10), and leaves its chains to install-time collection.
func (e *Engine) collectWritten(o *txObs, tn uint64, objs []*storage.Object) {
	w := e.watermark()
	if w < tn {
		o.pruneLater = true
		return
	}
	n := 0
	for _, obj := range objs {
		n += obj.Prune(w)
	}
	o.collected(n)
}

// Registry is where every open snapshot publishes the number it reads
// at, for the collection watermark: a fixed array of slots, each on its
// own cache line. A publisher takes a free slot with one compare-and-swap
// and frees it with one store, so it never blocks, never allocates, and
// shares no line with a publisher in another slot. A publisher that
// finds every slot taken counts itself in overflow instead, and while
// any such publisher is open min reports 0: collection stops until it
// closes, rather than a snapshot losing a version. An engine has its own;
// the sites of a cluster share one (ClusterSite), where the cluster also
// holds a number for good (Hold). The zero value is empty and ready to
// use.
type Registry struct {
	slots    [roSlots]roSlot
	overflow atomic.Int64
	hold     atomic.Uint64 // Hold's number + 1; 0: nothing held
}

type roSlot struct {
	sn atomic.Uint64 // the published number + 1; 0 is a free slot
	_  [56]byte
}

const (
	roSlots = 64
	noSlot  = -1 // the slot of an overflow publisher
)

// Publish publishes sn, probing from slot hint, and returns the slot
// taken. Until Unpublish gives the slot back, no engine that shares r
// collects a version a snapshot at sn or above reads.
func (r *Registry) Publish(hint, sn uint64) int8 {
	for i := range uint64(roSlots) {
		slot := (hint + i) % roSlots
		if s := &r.slots[slot].sn; s.Load() == 0 && s.CompareAndSwap(0, sn+1) {
			return int8(slot)
		}
	}
	r.overflow.Add(1)
	return noSlot
}

// Unpublish frees a slot Publish returned.
func (r *Registry) Unpublish(slot int8) {
	if slot == noSlot {
		r.overflow.Add(-1)
		return
	}
	r.slots[slot].sn.Store(0)
}

// Hold publishes sn for good, in place of what Hold published before:
// from then on no engine that shares r collects past sn. min reads it
// before any slot. So a snapshot that publishes, then takes a number at
// or above everything Hold had published by then, is safe from every
// watermark: a scan that missed its slot read the held number before
// the publish, so a number no higher than the snapshot's. A cluster holds
// the least number a snapshot of it could take: its high-water mark or a
// site's horizon (internal/dist).
func (r *Registry) Hold(sn uint64) { r.hold.Store(sn + 1) }

func (r *Registry) min() (uint64, bool) {
	if r.overflow.Load() > 0 {
		return 0, true
	}
	m := r.hold.Load() // + 1, like the slots
	for i := range r.slots {
		if sn := r.slots[i].sn.Load(); sn != 0 && (m == 0 || sn < m) {
			m = sn
		}
	}
	return m - 1, m != 0
}
