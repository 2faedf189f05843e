// Package dist implements the distributed version control extension
// sketched in Section 6 of the paper (the full treatment is in the
// authors' unavailable report [3]; DESIGN.md documents this
// reconstruction).
//
// Each site keeps its own counters (tnc, vtnc) and its own VCQueue,
// exactly as the paper prescribes. The two requirements the paper states —
// "there is only one start number associated with a read-only transaction
// and only one transaction number for every read-write transaction" — are
// met as follows:
//
//   - Read-write transactions run strict two-phase locking at the sites
//     they touch and commit with two-phase commit. During the prepare
//     phase every participant (visited in site order, which makes the
//     prepare windows deadlock-free) locks its registration gate and votes
//     its next local transaction number; the coordinator picks the
//     maximum, and every participant adopts exactly that number
//     (vc.RegisterExact). Sites hand out local numbers from disjoint
//     residue classes (vc.NewStrided), so the adopted maximum — and every
//     local number — is globally unique.
//
//   - Read-only transactions take a single start number sn = vtnc at
//     their home site and read the largest version <= sn everywhere. At a
//     site whose visibility lags (vtnc < sn), the transaction first waits
//     for visibility to catch up; if the site simply has not consumed
//     position sn yet, it registers-and-completes a filler entry to jump
//     its horizon forward. This gives global one-copy serializability
//     with NO a-priori knowledge of the read set — the paper's complaint
//     about the Chan et al. distributed variant — at the price of
//     occasional read-only waiting.
//
// Keys are partitioned across sites; the message bus simulates RPC
// latency so the cost model (messages, waiting) is observable in
// benchmarks (experiment E8).
package dist

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mvdb/internal/engine"
	"mvdb/internal/lock"
	"mvdb/internal/storage"
	"mvdb/internal/vc"
	"mvdb/internal/wal"
)

// Bus simulates the network: every inter-site call pays a latency (plus
// optional random jitter, which perturbs interleavings the way a real
// network would) and is counted. Zero latency degenerates to function
// calls (unit tests).
type Bus struct {
	latency  time.Duration
	jitter   time.Duration
	state    atomic.Uint64 // xorshift state for lock-free jitter draws
	messages atomic.Uint64
}

// NewBus creates a bus with the given one-way message latency.
func NewBus(latency time.Duration) *Bus {
	return NewBusJitter(latency, 0)
}

// NewBusJitter creates a bus whose per-message delay is latency plus a
// uniform draw from [0, jitter).
func NewBusJitter(latency, jitter time.Duration) *Bus {
	b := &Bus{latency: latency, jitter: jitter}
	b.state.Store(0x9E3779B97F4A7C15)
	return b
}

// call simulates one request/response exchange with a site.
func (b *Bus) call(fn func()) {
	b.messages.Add(1)
	d := b.latency
	if b.jitter > 0 {
		// xorshift64*: cheap thread-safe pseudo-randomness.
		for {
			old := b.state.Load()
			x := old
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			if b.state.CompareAndSwap(old, x) {
				d += time.Duration(x % uint64(b.jitter))
				break
			}
		}
	}
	if d > 0 {
		time.Sleep(d)
	}
	fn()
}

// Messages returns the number of simulated exchanges.
func (b *Bus) Messages() uint64 { return b.messages.Load() }

// Site is one database node: its own store, version control counters,
// queue, and lock manager.
type Site struct {
	id    int
	store *storage.Store
	vc    *vc.Strict
	locks *lock.Manager

	// regMu is the registration gate: held by a distributed transaction
	// from its prepare vote until it adopts the chosen number, so the
	// vote cannot be invalidated by an interleaving registration.
	regMu sync.Mutex

	wal     *wal.Writer // per-site commit log (durable sites only)
	crashed atomic.Bool

	fillers atomic.Uint64 // visibility filler registrations (RO catch-up)
}

// ID returns the site's identifier.
func (s *Site) ID() int { return s.id }

// VC exposes the site's version control module (tests, experiments).
func (s *Site) VC() *vc.Strict { return s.vc }

// Store exposes the site's store.
func (s *Site) Store() *storage.Store { return s.store }

// Fillers returns how many filler registrations the site performed to
// advance visibility for lagging read-only transactions.
func (s *Site) Fillers() uint64 { return s.fillers.Load() }

// ensureVisible advances the site's horizon to at least sn and waits for
// it, implementing the read-only catch-up rule described in the package
// comment.
func (s *Site) ensureVisible(sn uint64) {
	if s.vc.VTNC() >= sn {
		return
	}
	s.regMu.Lock()
	if s.vc.Reserve() <= sn {
		// Position sn is unconsumed here: burn it (and everything up to
		// it) with a completed filler so vtnc can reach sn once older
		// registrations drain.
		if e, err := s.vc.RegisterExact(sn); err == nil {
			s.vc.Complete(e)
			s.fillers.Add(1)
		}
	}
	s.regMu.Unlock()
	s.vc.WaitVisible(sn)
}

// Options configures a Cluster.
type Options struct {
	// Sites is the number of sites (required, >= 1).
	Sites int
	// Latency is the simulated one-way message latency.
	Latency time.Duration
	// Jitter adds a uniform random delay in [0, Jitter) per message,
	// perturbing interleavings (poor-man's network failure injection).
	Jitter time.Duration
	// LockTimeout bounds lock waits at each site. Distributed deadlocks
	// span sites, where a local waits-for graph cannot see the cycle, so
	// sites use timeout-based resolution (default 50ms).
	LockTimeout time.Duration
	// Partition maps a key to a site (default: FNV hash mod Sites).
	Partition func(key string) int
	// WALDir, when non-empty, makes every site durable: each appends a
	// per-site commit log under this directory, and CrashSite/RecoverSite
	// model fail-stop site failures (see durability.go for the model's
	// limits).
	WALDir string
	// Recorder receives history events (global transaction ids and
	// globally unique version numbers), for the MVSG checker.
	Recorder engine.Recorder
}

// Cluster is a set of sites plus the coordinator-side logic.
type Cluster struct {
	opts  Options
	sites []*Site
	bus   *Bus
	rec   engine.Recorder
	ids   atomic.Uint64

	hwm        atomic.Uint64 // highest committed global transaction number
	commitsRO  atomic.Uint64
	commitsRW  atomic.Uint64
	aborts     atomic.Uint64
	roWaits    atomic.Uint64
	closed     atomic.Bool
	bootSealed atomic.Bool
}

// New creates a cluster.
func New(opts Options) (*Cluster, error) {
	if opts.Sites < 1 {
		return nil, errors.New("dist: Sites must be >= 1")
	}
	if opts.LockTimeout <= 0 {
		opts.LockTimeout = 50 * time.Millisecond
	}
	c := &Cluster{opts: opts, bus: NewBusJitter(opts.Latency, opts.Jitter)}
	c.rec = opts.Recorder
	if c.rec == nil {
		c.rec = engine.NopRecorder{}
	}
	if c.opts.Partition == nil {
		n := opts.Sites
		c.opts.Partition = func(key string) int {
			h := uint32(2166136261)
			for i := 0; i < len(key); i++ {
				h = (h ^ uint32(key[i])) * 16777619
			}
			return int(h % uint32(n))
		}
	}
	if err := ensureWALDir(opts.WALDir); err != nil {
		return nil, err
	}
	for i := 0; i < opts.Sites; i++ {
		s := &Site{
			id:    i,
			store: storage.NewStore(0),
			vc:    vc.NewStrided(0, uint64(i), uint64(opts.Sites)),
			locks: lock.NewManager(lock.TimeoutPolicy, opts.LockTimeout),
		}
		if opts.WALDir != "" {
			if err := c.openSiteLog(s); err != nil {
				return nil, err
			}
			// Resume counters from a pre-existing log (cluster restart).
			var maxTN uint64
			if _, err := replaySiteLog(siteLogPath(opts.WALDir, i), func(r wal.Record) {
				for _, w := range r.Writes {
					s.store.GetOrCreate(w.Key).InstallCommitted(storage.Version{
						TN: r.TN, Data: w.Value, Tombstone: w.Tombstone,
					})
				}
				if r.TN > maxTN {
					maxTN = r.TN
				}
			}); err != nil {
				return nil, err
			}
			if maxTN > 0 {
				s.vc = vc.NewStrided(maxTN, uint64(i), uint64(opts.Sites))
				if maxTN > c.hwm.Load() {
					c.hwm.Store(maxTN)
				}
			}
		}
		c.sites = append(c.sites, s)
	}
	return c, nil
}

// Sites returns the cluster's sites.
func (c *Cluster) Sites() []*Site { return c.sites }

// Bus returns the message bus (stats).
func (c *Cluster) Bus() *Bus { return c.bus }

// SiteFor returns the site owning key.
func (c *Cluster) SiteFor(key string) *Site {
	return c.sites[c.opts.Partition(key)]
}

// Bootstrap loads initial data (version 0) into the owning sites,
// logging it when sites are durable.
func (c *Cluster) Bootstrap(data map[string][]byte) error {
	if c.bootSealed.Load() {
		return errors.New("dist: Bootstrap after transactions started")
	}
	for k, v := range data {
		s := c.SiteFor(k)
		s.store.Bootstrap(k, v)
		if err := s.logBootstrap(k, v); err != nil {
			return err
		}
	}
	return nil
}

// Stats returns cluster counters, including the aggregate Section 6
// version-control gauges across sites: total visibility lag and queue
// depth, and the worst single-site lag (the site a fresh read-only
// transaction would have to wait for).
func (c *Cluster) Stats() map[string]int64 {
	m := map[string]int64{
		"commits.ro":   int64(c.commitsRO.Load()),
		"commits.rw":   int64(c.commitsRW.Load()),
		"aborts":       int64(c.aborts.Load()),
		"ro.waits":     int64(c.roWaits.Load()),
		"bus.messages": int64(c.bus.Messages()),
	}
	var fillers, lagSum, lagMax, queue int64
	for _, s := range c.sites {
		fillers += int64(s.Fillers())
		lag := int64(s.vc.Lag())
		lagSum += lag
		if lag > lagMax {
			lagMax = lag
		}
		queue += int64(s.vc.QueueLen())
	}
	m["ro.fillers"] = fillers
	m["vc.lag"] = lagSum
	m["vc.lag.max_site"] = lagMax
	m["vc.queue"] = queue
	return m
}

// Close shuts the cluster down, flushing any site logs.
func (c *Cluster) Close() error {
	c.closed.Store(true)
	var err error
	for _, s := range c.sites {
		if s.wal != nil {
			if cerr := s.wal.Close(); err == nil {
				err = cerr
			}
		}
	}
	return err
}

// Name identifies the engine in reports.
func (c *Cluster) Name() string {
	return fmt.Sprintf("dist-vc2pl(%d sites)", len(c.sites))
}

// Begin implements the engine.Engine transaction entry point. Read-only
// transactions take the cluster-wide high-water mark as their single
// start number: the coordinator remembers the largest committed global
// transaction number, so the snapshot observes every transaction that
// committed before Begin — read-after-commit freshness with zero
// messages. Lagging sites catch up on first contact (ensureVisible),
// which is the waiting trade-off Section 6 describes; for the cheapest
// possible (possibly stale) snapshot, anchor at a site instead with
// BeginReadOnlyAtHome.
func (c *Cluster) Begin(class engine.Class) (engine.Tx, error) {
	if c.closed.Load() {
		return nil, errors.New("dist: cluster closed")
	}
	c.bootSealed.Store(true)
	id := c.ids.Add(1)
	if class == engine.ReadOnly {
		t := &roTx{c: c, id: id, sn: c.hwm.Load()}
		c.rec.RecordBegin(id, engine.ReadOnly)
		return t, nil
	}
	t := &DTx{c: c, id: id, parts: make(map[int]*participant)}
	c.rec.RecordBegin(id, engine.ReadWrite)
	return t, nil
}

// BeginReadOnlyAtHome starts a read-only transaction whose start number
// is the given site's visibility horizon — "one start number associated
// with a read-only transaction" (Section 6). The snapshot is as fresh as
// the home site and never waits there; reads at other sites may observe
// that same (possibly stale, always consistent) position.
func (c *Cluster) BeginReadOnlyAtHome(home int) (engine.Tx, error) {
	if home < 0 || home >= len(c.sites) {
		return nil, fmt.Errorf("dist: no site %d", home)
	}
	c.bootSealed.Store(true)
	id := c.ids.Add(1)
	var sn uint64
	c.bus.call(func() { sn = c.sites[home].vc.Start() })
	t := &roTx{c: c, id: id, sn: sn}
	c.rec.RecordBegin(id, engine.ReadOnly)
	return t, nil
}

// participant tracks one site's involvement in a distributed read-write
// transaction.
type participant struct {
	site   *Site
	writes map[string]bufWrite
}

type bufWrite struct {
	data      []byte
	tombstone bool
}

// DTx is a distributed read-write transaction (strict 2PL + 2PC with
// max-vote transaction numbers).
type DTx struct {
	c     *Cluster
	id    uint64
	parts map[int]*participant
	done  bool
	tn    uint64
}

func (t *DTx) part(siteID int) *participant {
	p := t.parts[siteID]
	if p == nil {
		s := t.c.sites[siteID]
		s.locks.Begin(t.id, t.id) // id doubles as age; unused under timeouts
		p = &participant{site: s, writes: make(map[string]bufWrite)}
		t.parts[siteID] = p
	}
	return p
}

// Get implements engine.Tx.
func (t *DTx) Get(key string) ([]byte, error) {
	if t.done {
		return nil, engine.ErrTxDone
	}
	sid := t.c.opts.Partition(key)
	p := t.part(sid)
	if w, ok := p.writes[key]; ok {
		if w.tombstone {
			return nil, engine.ErrNotFound
		}
		return w.data, nil
	}
	var v storage.Version
	var found bool
	var lockErr error
	t.c.bus.call(func() {
		if lockErr = p.site.locks.Acquire(t.id, key, lock.Shared); lockErr != nil {
			return
		}
		if o := p.site.store.Get(key); o != nil {
			v, found = o.LatestCommitted()
		}
	})
	if lockErr != nil {
		t.abortInternal()
		t.c.aborts.Add(1)
		return nil, engine.ErrDeadlock
	}
	if !found {
		t.c.rec.RecordRead(t.id, key, 0)
		return nil, engine.ErrNotFound
	}
	t.c.rec.RecordRead(t.id, key, v.TN)
	if v.Tombstone {
		return nil, engine.ErrNotFound
	}
	return v.Data, nil
}

// Put implements engine.Tx.
func (t *DTx) Put(key string, value []byte) error {
	return t.write(key, bufWrite{data: value})
}

// Delete implements engine.Tx.
func (t *DTx) Delete(key string) error {
	return t.write(key, bufWrite{tombstone: true})
}

func (t *DTx) write(key string, w bufWrite) error {
	if t.done {
		return engine.ErrTxDone
	}
	sid := t.c.opts.Partition(key)
	p := t.part(sid)
	var lockErr error
	t.c.bus.call(func() {
		lockErr = p.site.locks.Acquire(t.id, key, lock.Exclusive)
	})
	if lockErr != nil {
		t.abortInternal()
		t.c.aborts.Add(1)
		return engine.ErrDeadlock
	}
	p.writes[key] = w
	return nil
}

// Commit implements engine.Tx: two-phase commit with max-vote transaction
// numbers (see the package comment).
func (t *DTx) Commit() error {
	if t.done {
		return engine.ErrTxDone
	}
	t.done = true

	// Sorted participant order keeps concurrent prepare phases from
	// deadlocking on the registration gates.
	sids := make([]int, 0, len(t.parts))
	for sid := range t.parts {
		sids = append(sids, sid)
	}
	sort.Ints(sids)

	if len(sids) == 0 { // empty transaction
		t.c.rec.RecordCommit(t.id, 0)
		t.c.commitsRW.Add(1)
		return nil
	}

	// Phase 1: lock registration gates in order, gather votes.
	var chosen uint64
	for _, sid := range sids {
		s := t.parts[sid].site
		t.c.bus.call(func() {
			s.regMu.Lock()
			if v := s.vc.Reserve(); v > chosen {
				chosen = v
			}
		})
	}
	t.tn = chosen

	// Phase 2: adopt the chosen number everywhere, install, release.
	entries := make(map[int]*vc.Entry, len(sids))
	for _, sid := range sids {
		p := t.parts[sid]
		var err error
		var e *vc.Entry
		t.c.bus.call(func() {
			e, err = p.site.vc.RegisterExact(chosen)
			p.site.regMu.Unlock()
		})
		if err != nil {
			// Unreachable by construction (the gate is held); treat as a
			// fatal protocol error rather than limping on.
			panic(fmt.Sprintf("dist: vote adoption failed: %v", err))
		}
		entries[sid] = e
	}
	for _, sid := range sids {
		p := t.parts[sid]
		t.c.bus.call(func() {
			// Write-ahead: the site's commit record (even if its local
			// write set is empty — the number consumption is durable
			// state) precedes installation.
			if err := p.site.logCommit(chosen, p.writes); err != nil {
				panic(fmt.Sprintf("dist: site %d commit log: %v (fail-stop)", sid, err))
			}
			for key, w := range p.writes {
				p.site.store.GetOrCreate(key).InstallCommitted(storage.Version{
					TN: chosen, Data: w.data, Tombstone: w.tombstone,
				})
				t.c.rec.RecordWrite(t.id, key, chosen)
			}
			p.site.locks.ReleaseAll(t.id)
			p.site.vc.Complete(entries[sid])
		})
	}
	for {
		cur := t.c.hwm.Load()
		if chosen <= cur || t.c.hwm.CompareAndSwap(cur, chosen) {
			break
		}
	}
	t.c.rec.RecordCommit(t.id, chosen)
	t.c.commitsRW.Add(1)
	return nil
}

// Abort implements engine.Tx.
func (t *DTx) Abort() {
	if t.done {
		return
	}
	t.c.aborts.Add(1)
	t.abortInternal()
}

func (t *DTx) abortInternal() {
	if t.done {
		return
	}
	t.done = true
	for _, p := range t.parts {
		p := p
		t.c.bus.call(func() {
			p.site.locks.ReleaseAll(t.id)
		})
	}
	t.c.rec.RecordAbort(t.id)
}

// ID implements engine.Tx.
func (t *DTx) ID() uint64 { return t.id }

// Class implements engine.Tx.
func (t *DTx) Class() engine.Class { return engine.ReadWrite }

// SN implements engine.Tx.
func (t *DTx) SN() (uint64, bool) {
	if t.tn != 0 {
		return t.tn, true
	}
	return 0, false
}

// roTx is a distributed read-only transaction: one start number, snapshot
// reads everywhere, no locks, no votes, no two-phase commit — the paper's
// headline claim carried into the distributed setting.
type roTx struct {
	c    *Cluster
	id   uint64
	sn   uint64
	done bool
}

// Get implements engine.Tx.
func (t *roTx) Get(key string) ([]byte, error) {
	if t.done {
		return nil, engine.ErrTxDone
	}
	s := t.c.SiteFor(key)
	var v storage.Version
	var ok bool
	t.c.bus.call(func() {
		if s.vc.VTNC() < t.sn {
			t.c.roWaits.Add(1)
			s.ensureVisible(t.sn)
		}
		if o := s.store.Get(key); o != nil {
			v, ok = o.ReadVisible(t.sn)
		}
	})
	if !ok {
		t.c.rec.RecordRead(t.id, key, 0)
		return nil, engine.ErrNotFound
	}
	t.c.rec.RecordRead(t.id, key, v.TN)
	if v.Tombstone {
		return nil, engine.ErrNotFound
	}
	return v.Data, nil
}

// Scan implements engine.Scanner: an ordered prefix scan across ALL
// sites at the transaction's single snapshot position — a globally
// consistent analytical read with no locks and no a-priori site set.
func (t *roTx) Scan(prefix string, fn func(key string, value []byte) bool) error {
	if t.done {
		return engine.ErrTxDone
	}
	type hit struct {
		key string
		val []byte
	}
	var hits []hit
	for _, s := range t.c.sites {
		s := s
		t.c.bus.call(func() {
			if s.vc.VTNC() < t.sn {
				t.c.roWaits.Add(1)
				s.ensureVisible(t.sn)
			}
			s.store.RangeOrdered(prefix, func(key string, o *storage.Object) bool {
				v, ok := o.ReadVisible(t.sn)
				if !ok {
					return true
				}
				t.c.rec.RecordRead(t.id, key, v.TN)
				if v.Tombstone {
					return true
				}
				hits = append(hits, hit{key, v.Data})
				return true
			})
		})
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].key < hits[j].key })
	for _, h := range hits {
		if !fn(h.key, h.val) {
			break
		}
	}
	return nil
}

// Put implements engine.Tx.
func (t *roTx) Put(string, []byte) error {
	if t.done {
		return engine.ErrTxDone
	}
	return engine.ErrReadOnly
}

// Delete implements engine.Tx.
func (t *roTx) Delete(string) error {
	if t.done {
		return engine.ErrTxDone
	}
	return engine.ErrReadOnly
}

// Commit implements engine.Tx.
func (t *roTx) Commit() error {
	if t.done {
		return engine.ErrTxDone
	}
	t.done = true
	t.c.rec.RecordCommit(t.id, t.sn)
	t.c.commitsRO.Add(1)
	return nil
}

// Abort implements engine.Tx.
func (t *roTx) Abort() {
	if t.done {
		return
	}
	t.done = true
	t.c.rec.RecordAbort(t.id)
}

// ID implements engine.Tx.
func (t *roTx) ID() uint64 { return t.id }

// Class implements engine.Tx.
func (t *roTx) Class() engine.Class { return engine.ReadOnly }

// SN implements engine.Tx.
func (t *roTx) SN() (uint64, bool) { return t.sn, true }
