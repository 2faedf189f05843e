// Package dist implements the distributed version control extension
// sketched in Section 6 of the paper (the full treatment is in the
// authors' unavailable report [3]; DESIGN.md documents this
// reconstruction).
//
// Each site is a core.Engine — two-phase locking, the strict controller,
// the pipelined commit tail, collection by commits — built by
// core.ClusterSite, which also fixes its deadlock rule, so it keeps its own
// counters (tnc, vtnc) and its own VCQueue, exactly as the paper
// prescribes. This package adds only what is distributed. The two
// requirements the paper states — "there is only one start number
// associated with a read-only transaction and only one transaction number
// for every read-write transaction" — are met as follows:
//
//   - A read-write transaction runs one part (core.Engine.BeginSite) at
//     each site it touches, all under its global id, and commits with
//     two-phase commit. It votes: every participant, visited in site
//     order (which makes the vote windows deadlock-free), takes its
//     registration gate and votes its next local transaction number
//     (core.Engine.Vote); the coordinator picks the maximum. It adopts:
//     every participant registers exactly that number
//     (core.Engine.Adopt) and releases its gate. Each part then commits
//     through its engine's own commit tail. Sites hand out local numbers
//     from disjoint residue classes (core.ClusterSite), so the adopted
//     maximum — and every local number — is globally unique.
//
//   - Read-only transactions take a single start number sn and read the
//     largest version <= sn everywhere, through each site's read rule
//     (core.Engine.ReadAt). At a site whose visibility lags (vtnc < sn),
//     the transaction first catches up through the site's engine: if the
//     site simply has not consumed position sn yet, it registers and
//     completes a filler entry to jump its horizon forward
//     (core.Engine.Fill), then waits for visibility there, a park under
//     its global id (core.Engine.AwaitVisible). This gives global
//     one-copy serializability with NO a-priori knowledge of the read set
//     — the paper's complaint about the Chan et al. distributed variant —
//     at the price of occasional read-only waiting. The sites of a
//     cluster share one snapshot registry, and a read-only transaction
//     publishes in it once, before it takes sn, so that no site collects
//     what it reads.
//
// Keys are partitioned across sites; the message bus simulates RPC
// latency so the cost model (messages, waiting) is observable in
// benchmarks (experiment E8).
package dist

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mvdb/internal/core"
	"mvdb/internal/engine"
	"mvdb/internal/obs"
)

// Bus simulates the network: every inter-site call pays a latency (plus
// optional jitter, a uniform draw from [0, jitter), which perturbs
// interleavings the way a real network would) and is counted. Zero
// latency degenerates to function calls (unit tests).
type Bus struct {
	latency  time.Duration
	jitter   time.Duration
	messages atomic.Uint64
}

// call simulates one request/response exchange with a site.
func (b *Bus) call(fn func()) {
	b.messages.Add(1)
	d := b.latency
	if b.jitter > 0 {
		d += rand.N(b.jitter) // the global source is safe for concurrent use
	}
	if d > 0 {
		time.Sleep(d)
	}
	fn()
}

// Messages returns the number of simulated exchanges.
func (b *Bus) Messages() uint64 { return b.messages.Load() }

// Site is one database node: a core engine — which, on a durable
// cluster, owns the site's commit log — and the registration gate its
// votes take.
type Site struct {
	id int
	e  atomic.Pointer[core.Engine] // nil while crashed

	// gate is the registration gate: held by a distributed transaction
	// from its vote until it adopts the chosen number, so the vote cannot
	// be invalidated by an interleaving registration.
	gate sync.Mutex

	fillers atomic.Uint64 // visibility filler registrations (RO catch-up)
}

// ID returns the site's identifier.
func (s *Site) ID() int { return s.id }

// Engine exposes the site's engine: its store and version control
// (tests, experiments). It is nil while the site is crashed.
func (s *Site) Engine() *core.Engine { return s.e.Load() }

// live returns the site's engine, or, while the site is crashed, an
// error that is not retryable: the work fails until RecoverSite.
func (s *Site) live() (*core.Engine, error) {
	if e := s.Engine(); e != nil {
		return e, nil
	}
	return nil, fmt.Errorf("dist: site %d is down", s.id)
}

// Fillers returns how many filler registrations the site performed to
// advance visibility for lagging read-only transactions.
func (s *Site) Fillers() uint64 { return s.fillers.Load() }

// fill burns position sn at the site's engine e (core.Engine.Fill),
// counting the filler if it registered one. The caller holds the gate.
func (s *Site) fill(e *core.Engine, sn uint64) {
	if e.Fill(sn) {
		s.fillers.Add(1)
	}
}

// siteRecorder is what a site reports history to: the reads and writes
// of its parts, and their parks and wakes — a part's lock waits, a
// read's catch-up — under their global ids, which the cluster's recorder
// hears unchanged. The coordinator records each global transaction's
// begin and its commit or abort, once.
type siteRecorder struct{ engine.Recorder }

func (siteRecorder) RecordBegin(uint64, engine.Class) {}
func (siteRecorder) RecordSnapshot(uint64, uint64)    {}
func (siteRecorder) RecordCommit(uint64, uint64)      {}
func (siteRecorder) RecordAbort(uint64)               {}

// Options configures a Cluster.
type Options struct {
	// Sites is the number of sites (required, >= 1).
	Sites int
	// Latency is the simulated one-way message latency.
	Latency time.Duration
	// Jitter adds a uniform random delay in [0, Jitter) per message,
	// perturbing interleavings (poor-man's network failure injection).
	Jitter time.Duration
	// LockTimeout bounds lock waits at each site of a cluster of two or
	// more, whose deadlocks can span sites, where no site's waits-for
	// graph sees the cycle (zero: the lock manager's default). A one-site
	// cluster detects its deadlocks instead (core.ClusterSite).
	LockTimeout time.Duration
	// Partition maps a key to a site (default: FNV hash mod Sites).
	Partition func(key string) int
	// WALDir, when non-empty, makes every site durable: each commits
	// through a per-site commit log under this directory, and
	// CrashSite/RecoverSite model fail-stop site failures (see
	// durability.go for the model's limits).
	WALDir string
	// Recorder receives history events (global transaction ids and
	// globally unique version numbers), for the MVSG checker.
	Recorder engine.Recorder
}

// Cluster is a set of sites plus the coordinator-side logic.
type Cluster struct {
	opts  Options
	sites []*Site
	reg   core.Registry // the snapshot registry every site shares
	bus   *Bus
	rec   engine.Recorder
	ids   atomic.Uint64

	// stats counts global transactions: their begins, commits and
	// aborts, and the read-only reads that waited for a site's horizon
	// (RecencyWaits). Each site's engine counts its parts in its own.
	stats *obs.Stats

	hwm        atomic.Uint64 // highest committed global transaction number
	closed     atomic.Bool
	bootSealed atomic.Bool
}

// New creates a cluster. With WALDir set, each site resumes from its log
// if one exists (cluster restart).
func New(opts Options) (*Cluster, error) {
	if opts.Sites < 1 {
		return nil, errors.New("dist: Sites must be >= 1")
	}
	c := &Cluster{opts: opts, bus: &Bus{latency: opts.Latency, jitter: opts.Jitter}, stats: obs.NewStats()}
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
	if opts.WALDir != "" {
		if err := os.MkdirAll(opts.WALDir, 0o755); err != nil {
			return nil, err
		}
	}
	for i := 0; i < opts.Sites; i++ {
		s := &Site{id: i}
		if err := c.open(s); err != nil {
			c.Close()
			return nil, err
		}
		c.sites = append(c.sites, s)
		if v := s.Engine().VTNC(); v > c.hwm.Load() { // the largest number in its log
			c.hwm.Store(v)
		}
	}
	c.hold()
	return c, nil
}

// hold keeps every site from collecting past the least of the high-water
// mark and every site's horizon (core.Registry.Hold): the numbers a
// snapshot begun from now on can take. A global snapshot takes the mark;
// a site's own horizon runs ahead of it while a transaction has completed
// there but not yet raised it. An anchored snapshot takes its home's
// horizon, which lags the mark while the home is left untouched. Both
// publish before they take their number, and the mark and the horizons
// only grow, so the snapshot is at or above everything held before then.
// A site that is idle holds collection everywhere at its horizon. While a
// site is crashed the hold stays where it was; RecoverSite moves it on.
func (c *Cluster) hold() {
	h := c.hwm.Load()
	for _, s := range c.sites {
		e := s.Engine()
		if e == nil {
			return
		}
		h = min(h, e.VTNC())
	}
	c.reg.Hold(h)
}

// open builds site s's engine: a fresh one, or, on a durable cluster,
// the one core.OpenDurable recovers from the site's log.
func (c *Cluster) open(s *Site) error {
	opts := core.ClusterSite(core.Options{
		Protocol: core.TwoPhaseLocking,
		Recorder: siteRecorder{c.rec},
	}, uint64(s.id), uint64(c.opts.Sites), &c.reg, c.opts.LockTimeout)
	if c.opts.WALDir == "" {
		s.e.Store(core.New(opts))
		return nil
	}
	e, err := core.OpenDurable(siteLogPath(c.opts.WALDir, s.id), opts, core.DurableOptions{})
	if err != nil {
		return err
	}
	s.e.Store(e)
	return nil
}

// Sites returns the cluster's sites.
func (c *Cluster) Sites() []*Site { return c.sites }

// Bus returns the message bus (stats).
func (c *Cluster) Bus() *Bus { return c.bus }

// Fillers returns how many filler registrations the sites performed to
// advance visibility for lagging read-only transactions.
func (c *Cluster) Fillers() uint64 {
	var n uint64
	for _, s := range c.sites {
		n += s.Fillers()
	}
	return n
}

// SiteFor returns the site owning key.
func (c *Cluster) SiteFor(key string) *Site {
	return c.sites[c.opts.Partition(key)]
}

// Bootstrap loads initial data (version 0) into the owning sites; a
// durable site's engine logs its part.
func (c *Cluster) Bootstrap(data map[string][]byte) error {
	if c.bootSealed.Load() {
		return errors.New("dist: Bootstrap after transactions started")
	}
	perSite := make([]map[string][]byte, len(c.sites))
	for k, v := range data {
		sid := c.opts.Partition(k)
		if perSite[sid] == nil {
			perSite[sid] = make(map[string][]byte)
		}
		perSite[sid][k] = v
	}
	for sid, kv := range perSite {
		if kv == nil {
			continue
		}
		e, err := c.sites[sid].live()
		if err != nil {
			return err
		}
		if err := e.Bootstrap(kv); err != nil {
			return err
		}
	}
	return nil
}

// Stats implements engine.Engine: the global transactions' counters,
// with the Section 6 version-control gauges VisibilityLag and
// VCQueueLen summed over the sites that are up. Bus().Messages() and
// Fillers() report the cost of the distribution itself.
func (c *Cluster) Stats() obs.Snapshot {
	sn := c.stats.Snapshot()
	for _, s := range c.sites {
		if e := s.Engine(); e != nil {
			sn.VisibilityLag += e.VisibilityLag()
			sn.VCQueueLen += e.VC().QueueLen()
		}
	}
	return sn
}

// Close shuts the cluster down; each durable site's engine closes its
// log.
func (c *Cluster) Close() error {
	c.closed.Store(true)
	var err error
	for _, s := range c.sites {
		if e := s.Engine(); e != nil { // else crashed
			if cerr := e.Close(); err == nil {
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
// messages. Lagging sites catch up on first contact (roTx.catchUp),
// which is the waiting trade-off Section 6 describes; for the cheapest
// possible (possibly stale) snapshot, anchor at a site instead with
// BeginReadOnlyAtHome.
func (c *Cluster) Begin(class engine.Class) (engine.Tx, error) {
	if c.closed.Load() {
		return nil, errors.New("dist: cluster closed")
	}
	c.bootSealed.Store(true)
	id := c.ids.Add(1)
	c.rec.RecordBegin(id, class)
	if class == engine.ReadOnly {
		c.stats.BeginsRO.Inc()
		// Publish, then take: the high-water mark only grows.
		t := &roTx{c: c, id: id, slot: c.reg.Publish(id, c.hwm.Load())}
		t.sn = c.hwm.Load()
		return t, nil
	}
	c.stats.BeginsRW.Inc()
	return &DTx{c: c, id: id, parts: make([]*core.Tx, len(c.sites))}, nil
}

// BeginReadOnlyAtHome starts a read-only transaction whose start number
// is the given site's visibility horizon — "one start number associated
// with a read-only transaction" (Section 6). The snapshot is as fresh as
// the home site and never waits there; reads at other sites observe that
// same (possibly stale, always consistent) position. No site collects
// past the home's horizon (Cluster.hold), so every version it reads is
// still there.
func (c *Cluster) BeginReadOnlyAtHome(home int) (engine.Tx, error) {
	if c.closed.Load() {
		return nil, errors.New("dist: cluster closed")
	}
	if home < 0 || home >= len(c.sites) {
		return nil, fmt.Errorf("dist: no site %d", home)
	}
	h, err := c.sites[home].live()
	if err != nil {
		return nil, err
	}
	c.bootSealed.Store(true)
	id := c.ids.Add(1)
	c.rec.RecordBegin(id, engine.ReadOnly)
	c.stats.BeginsRO.Inc()
	t := &roTx{c: c, id: id}
	c.bus.call(func() {
		t.slot = c.reg.Publish(id, h.VTNC())
		t.sn = h.VC().Start()
	})
	return t, nil
}

// DTx is a distributed read-write transaction: one part at each site it
// touches, committed by two-phase commit with max-vote transaction
// numbers.
type DTx struct {
	c     *Cluster
	id    uint64
	parts []*core.Tx // by site; nil where the transaction has not been
	done  bool
	tn    uint64
}

// at runs op on the transaction's part at the site owning key, beginning
// the part first if need be, as one exchange with the site. An op that
// fails other than with ErrNotFound has aborted its part, and the whole
// transaction aborts; so does one at a crashed site. The abort counts as
// a timeout when the part's lock wait timed out (the sites' deadlock
// rule), and as a conflict otherwise — the lock manager's catch-all,
// which also takes a site that is down.
func (t *DTx) at(key string, op func(*core.Tx) error) error {
	if t.done {
		return engine.ErrTxDone
	}
	sid := t.c.opts.Partition(key)
	var err error
	t.c.bus.call(func() {
		p := t.parts[sid]
		if p == nil {
			var e *core.Engine
			if e, err = t.c.sites[sid].live(); err != nil {
				return
			}
			if p, err = e.BeginSite(t.id); err != nil {
				return
			}
			t.parts[sid] = p
		}
		err = op(p)
	})
	if err != nil && !errors.Is(err, engine.ErrNotFound) {
		t.abort()
		if errors.Is(err, engine.ErrDeadlock) {
			t.c.stats.AbortsTimeout.Inc()
		} else {
			t.c.stats.AbortsConflict.Inc()
		}
	}
	return err
}

// Get implements engine.Tx.
func (t *DTx) Get(key string) (v []byte, err error) {
	err = t.at(key, func(p *core.Tx) error {
		v, err = p.Get(key)
		return err
	})
	return v, err
}

// Put implements engine.Tx.
func (t *DTx) Put(key string, value []byte) error {
	return t.at(key, func(p *core.Tx) error { return p.Put(key, value) })
}

// Delete implements engine.Tx.
func (t *DTx) Delete(key string) error {
	return t.at(key, func(p *core.Tx) error { return p.Delete(key) })
}

// Commit implements engine.Tx: two-phase commit with max-vote transaction
// numbers (see the package comment).
func (t *DTx) Commit() error {
	if t.done {
		return engine.ErrTxDone
	}
	t.done = true

	// Vote: take the participants' gates in site order, which keeps
	// concurrent votes from deadlocking on them, and gather their next
	// local numbers.
	var chosen uint64
	for sid, p := range t.parts {
		if p == nil {
			continue
		}
		s := t.c.sites[sid]
		t.c.bus.call(func() {
			s.gate.Lock()
			chosen = max(chosen, s.Engine().Vote())
		})
	}
	if chosen == 0 { // empty transaction
		t.c.rec.RecordCommit(t.id, 0)
		t.c.stats.CommitsRW.Inc()
		return nil
	}

	// Adopt the maximum everywhere; each gate opens the moment its site
	// has registered it.
	for sid, p := range t.parts {
		if p == nil {
			continue
		}
		s := t.c.sites[sid]
		var err error
		t.c.bus.call(func() {
			err = s.Engine().Adopt(p, chosen)
			s.gate.Unlock()
		})
		if err != nil {
			// Unreachable by construction (the gate was held since the
			// vote); treat as a fatal protocol error rather than limping on.
			panic(fmt.Sprintf("dist: vote adoption failed: %v", err))
		}
	}
	t.tn = chosen

	// Each part commits through its site's commit tail: log, install,
	// release its locks, wait for the log, complete.
	for sid, p := range t.parts {
		if p == nil {
			continue
		}
		var err error
		t.c.bus.call(func() { err = p.Commit() })
		if err != nil {
			// The other parts may have committed (see durability.go).
			panic(fmt.Sprintf("dist: site %d commit: %v (fail-stop)", sid, err))
		}
	}
	for cur := t.c.hwm.Load(); cur < chosen && !t.c.hwm.CompareAndSwap(cur, chosen); cur = t.c.hwm.Load() {
	}
	t.c.hold()
	t.c.rec.RecordCommit(t.id, chosen)
	t.c.stats.CommitsRW.Inc()
	return nil
}

// Abort implements engine.Tx.
func (t *DTx) Abort() {
	if t.done {
		return
	}
	t.c.stats.AbortsUser.Inc()
	t.abort()
}

// abort aborts every part, giving back what it holds at its site.
func (t *DTx) abort() {
	t.done = true
	for _, p := range t.parts {
		if p != nil {
			t.c.bus.call(p.Abort)
		}
	}
	t.c.rec.RecordAbort(t.id)
}

// ID implements engine.Tx.
func (t *DTx) ID() uint64 { return t.id }

// Class implements engine.Tx.
func (t *DTx) Class() engine.Class { return engine.ReadWrite }

// SN implements engine.Tx.
func (t *DTx) SN() (uint64, bool) { return t.tn, t.tn != 0 }

// roTx is a distributed read-only transaction: one start number, snapshot
// reads everywhere, no locks, no votes, no two-phase commit — the paper's
// headline claim carried into the distributed setting.
type roTx struct {
	c    *Cluster
	id   uint64
	sn   uint64
	slot int8 // its place in the sites' shared registry
	done bool
}

// catchUp returns site s's engine, once its horizon is up to the
// snapshot, for a read there; it fails while s is crashed. A lagging
// site catches up by the rule the package comment states: a filler if
// it has not consumed sn, then a recency wait there under the
// transaction's id, which parks until the site's older registrations
// resolve.
func (t *roTx) catchUp(s *Site) (*core.Engine, error) {
	e, err := s.live()
	if err == nil && e.VTNC() < t.sn {
		t.c.stats.RecencyWaits.Inc()
		s.gate.Lock()
		s.fill(e, t.sn)
		s.gate.Unlock()
		e.AwaitVisible(t.id, t.sn)
	}
	return e, err
}

// Get implements engine.Tx.
func (t *roTx) Get(key string) (v []byte, err error) {
	if t.done {
		return nil, engine.ErrTxDone
	}
	s := t.c.SiteFor(key)
	t.c.bus.call(func() {
		var e *core.Engine
		if e, err = t.catchUp(s); err == nil {
			v, err = e.ReadAt(t.id, key, t.sn)
		}
	})
	return v, err
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
		var err error
		t.c.bus.call(func() {
			var e *core.Engine
			if e, err = t.catchUp(s); err == nil {
				err = e.ScanAt(t.id, prefix, t.sn, func(key string, val []byte) bool {
					hits = append(hits, hit{key, val})
					return true
				})
			}
		})
		if err != nil {
			return err
		}
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
	t.finish()
	t.c.rec.RecordCommit(t.id, t.sn)
	t.c.stats.CommitsRO.Inc()
	return nil
}

// Abort implements engine.Tx.
func (t *roTx) Abort() {
	if !t.done {
		t.finish()
		t.c.rec.RecordAbort(t.id)
	}
}

func (t *roTx) finish() {
	t.done = true
	t.c.reg.Unpublish(t.slot)
}

// ID implements engine.Tx.
func (t *roTx) ID() uint64 { return t.id }

// Class implements engine.Tx.
func (t *roTx) Class() engine.Class { return engine.ReadOnly }

// SN implements engine.Tx.
func (t *roTx) SN() (uint64, bool) { return t.sn, true }
