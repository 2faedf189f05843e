// Package storage implements the multiversion object store substrate that
// every engine in this repository is built on.
//
// Each object (key) carries a chain of committed versions ordered by the
// transaction number of their creator (packed records, version.go) and,
// from its first timestamp-ordering operation on, the pending
// (uncommitted) versions and read/write timestamps those protocols use.
// The paper's read rule — "return x_j with the largest version <= sn(T)"
// (Figure 2) — is ReadVisible; the timestamp-ordering rules of Figure 3
// are TORead/TOWrite.
//
// The store is sharded by key hash so that unrelated objects do not
// contend; each object has its own mutex, and its timestamp-ordering
// state a condition variable (the pending-write blocking that Figure 3
// prescribes).
package storage

import (
	"errors"
	"fmt"
	"hash/maphash"
	"slices"
	"sort"
	"sync"

	"mvdb/internal/index"
)

// ErrConflict is returned by TOWrite when the timestamp-ordering rule
// rejects a write (r-ts or w-ts of the object exceeds the writer's tn).
// The transaction must abort; the paper's protocols restart it with a new
// transaction number.
var ErrConflict = errors.New("storage: timestamp-ordering conflict")

// ErrConflictRO is a variant of ErrConflict reporting that the offending
// r-ts was last raised by a read-only transaction. It only arises in the
// Reed-style MVTO baseline, where read-only transactions update r-ts; the
// paper's version-control engines structurally never produce it
// (experiment E2). It unwraps to ErrConflict.
var ErrConflictRO = fmt.Errorf("%w (r-ts raised by a read-only transaction)", ErrConflict)

// Version is one committed version of an object.
type Version struct {
	// TN is the transaction number of the creator; it doubles as the
	// version number (paper Section 3.2: "the version number most often
	// corresponds to ... the transaction number of the transaction that
	// wrote that version").
	TN uint64
	// Data is the version's value. It must not be mutated after install.
	Data []byte
	// Tombstone marks a deletion: the object logically does not exist at
	// snapshots that resolve to this version.
	Tombstone bool
}

// Pending is an uncommitted version installed by a granted-but-uncommitted
// write (timestamp ordering calls these "pending writes").
type Pending struct {
	TN        uint64
	Data      []byte
	Tombstone bool
}

// Object is one key's synchronization and version state: 48 bytes under
// 2PL and OCC, which never touch the timestamp-ordering state.
type Object struct {
	mu       sync.Mutex
	versions []version // ascending tn
	to       *toState  // nil until the first timestamp-ordering operation
	floor    uint64    // tn of the oldest version kept by the last Prune that dropped any
}

// toState is what only timestamp ordering (VC+T/O and the MVTO baseline)
// keeps per object. It is allocated under Object.mu on first use and
// never freed; read-only accessors treat nil as zero.
type toState struct {
	cond    sync.Cond // L is the object's mu
	pending []Pending // ascending TN
	parked  []Waiter  // waiting on cond; the next ResolvePending wakes them
	rts     uint64    // largest tn that read the most recent version
	rtsRO   bool      // r-ts was last raised by a read-only transaction
	wts     uint64    // largest tn that wrote (including pending)
}

// Waiter is the transaction a timestamp-ordering request is made for.
// A request that has to wait for an older pending write calls
// Parked(true) on its own goroutine before it waits, and the
// ResolvePending that ends the wait calls Parked(false) on the
// resolver's goroutine before it returns; a woken request that must
// wait again parks again. The calls are made under the object's mutex.
// A nil Waiter waits unreported.
type Waiter interface {
	Parked(parked bool)
}

// wait parks w until the next resolution on the object. The caller holds
// the object's mutex.
func (s *toState) wait(w Waiter) {
	if w != nil {
		s.parked = append(s.parked, w)
		w.Parked(true)
	}
	s.cond.Wait()
}

func newObject() *Object { return &Object{} }

// toLocked returns the timestamp-ordering state, allocating it first.
func (o *Object) toLocked() *toState {
	if o.to == nil {
		o.to = &toState{cond: sync.Cond{L: &o.mu}}
	}
	return o.to
}

// ReadVisible returns the committed version with the largest TN <= sn,
// implementing the read rule of paper Figure 2. ok is false when no such
// version exists (the object was created after the snapshot). A returned
// tombstone means the object was deleted as of sn; callers translate that
// to "not found" while still learning the version identity for history
// checking.
func (o *Object) ReadVisible(sn uint64) (v Version, ok bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.readVisibleLocked(sn)
}

func (o *Object) readVisibleLocked(sn uint64) (v Version, ok bool) {
	i := sort.Search(len(o.versions), func(i int) bool { return o.versions[i].tn > sn })
	if i == 0 {
		return v, false
	}
	o.versions[i-1].unpack(&v)
	return v, true
}

// Floor returns the number of the oldest version the last pruning pass
// that dropped any kept, or 0 if none has. A snapshot below it may be
// missing versions it needs: a miss there is not "not found".
func (o *Object) Floor() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.floor
}

// LatestCommitted returns the newest committed version. Two-phase-locking
// read-write transactions use it: under a read lock the latest committed
// version is guaranteed current (paper Section 4.4, sn(T) = infinity).
func (o *Object) LatestCommitted() (v Version, ok bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.versions) == 0 {
		return v, false
	}
	o.versions[len(o.versions)-1].unpack(&v)
	return v, true
}

// LatestTN returns the TN of the newest committed version, or 0 if none.
// Optimistic validation compares it against the TN observed at read time.
func (o *Object) LatestTN() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.versions) == 0 {
		return 0
	}
	return o.versions[len(o.versions)-1].tn
}

// InstallCommitted inserts a committed version. Versions may be installed
// out of TN order across objects, but for a single object callers must
// never install a version older than one some snapshot could already have
// read past; the engines guarantee this by construction. The chain is kept
// sorted. It never collects: see Install.
func (o *Object) InstallCommitted(v Version) { o.Install(v, nil) }

// Install is InstallCommitted for an engine that collects at install
// (Hekaton's cooperative collection): when the chain's array is full, it
// calls watermark once and first drops every version below the newest one
// at or under it, as Prune does; the new version then reuses the array.
// It returns the number of versions dropped, and whether a version older
// than v is left, which a Prune at v's number or above would drop. An
// install into an array with room, or with a nil watermark, reads nothing
// but the object. watermark must return a number no snapshot open then or
// opened later reads below, other than one pinned below it, which the
// pruned floor reports.
//
// A prune that frees d slots costs one copy of the chain and buys d
// installs without one; a prune that frees nothing lets the append
// double the array, so the next one comes twice as late.
func (o *Object) Install(v Version, watermark func() uint64) (dropped int, older bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.installCommittedLocked(v, watermark)
}

func (o *Object) installCommittedLocked(v Version, watermark func() uint64) (dropped int, older bool) {
	n := len(o.versions)
	if watermark != nil && n > 1 && n == cap(o.versions) {
		dropped = o.pruneLocked(watermark())
		n = len(o.versions)
	}
	if n == 0 || o.versions[n-1].tn < v.TN {
		o.versions = append(o.versions, pack(v))
		return dropped, n > 0
	}
	i := sort.Search(n, func(i int) bool { return o.versions[i].tn >= v.TN })
	if i < n && o.versions[i].tn == v.TN {
		panic(fmt.Sprintf("storage: duplicate version tn=%d", v.TN))
	}
	o.versions = append(o.versions, version{})
	copy(o.versions[i+1:], o.versions[i:])
	o.versions[i] = pack(v)
	return dropped, i > 0
}

// --- Timestamp-ordering operations (paper Figure 3) ---

// noTO is what the read-only accessors see of an object no
// timestamp-ordering operation has touched. Nothing writes it: every
// write to a toState follows toLocked, or finds a pending version, which
// noTO never has.
var noTO toState

func (o *Object) toView() *toState {
	if o.to == nil {
		return &noTO
	}
	return o.to
}

// TORead performs a timestamp-ordering read for a read-write transaction
// with transaction number tn:
//
//	r-ts(x) <- MAX(r-ts(x), tn)
//	return the version with the largest number <= tn,
//	waiting while an older transaction's write is pending.
//
// If the transaction itself has a pending write on the object, that write
// is returned (read-own-write; the paper's model forbids r after w but the
// library supports it). w is told of each wait.
func (o *Object) TORead(tn uint64, w Waiter) (Version, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	s := o.toLocked()
	if s.rts < tn {
		s.rts = tn
		s.rtsRO = false
	}
	for {
		if i, ok := s.pendingIndex(tn); ok {
			p := s.pending[i]
			return Version{TN: p.TN, Data: p.Data, Tombstone: p.Tombstone}, true
		}
		if !s.hasPendingAtMost(tn) {
			return o.readVisibleLocked(tn)
		}
		s.wait(w)
	}
}

// SnapshotReadWait performs a read at snapshot sn that waits for pending
// writes with TN <= sn to resolve. Reed-style multiversion timestamp
// ordering uses this for its (synchronized) read-only transactions; the
// paper's own read-only transactions never need it because sn <= vtnc
// implies every version <= sn is already committed. w is told of each
// wait (experiment E3 instrumentation).
func (o *Object) SnapshotReadWait(sn uint64, w Waiter) (Version, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for s := o.toView(); s.hasPendingAtMost(sn); {
		s.wait(w)
	}
	return o.readVisibleLocked(sn)
}

// ReadVisibleWhere returns the version with the largest TN <= sn whose
// creator satisfies the admit predicate. It implements the read rule of
// the Chan et al. MV2PL baseline (paper Section 2): "finding a largest
// version of an object smaller than the start timestamp of the
// transaction, and ensuring that the creator of this version appears in
// the copy of the completed transaction list". The per-read predicate
// scan is part of the overhead the paper's version control eliminates.
func (o *Object) ReadVisibleWhere(sn uint64, admit func(tn uint64) bool) (v Version, ok bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	i := sort.Search(len(o.versions), func(i int) bool { return o.versions[i].tn > sn })
	for i--; i >= 0; i-- {
		if admit(o.versions[i].tn) {
			o.versions[i].unpack(&v)
			return v, true
		}
	}
	return v, false
}

// SetRTS raises r-ts(x) to at least tn. Reed-style MVTO applies it for
// read-only transactions too — the overhead the paper eliminates. ro
// marks whether the reader is a read-only transaction; the flag feeds the
// abort-attribution statistics of experiment E2.
func (o *Object) SetRTS(tn uint64, ro bool) {
	o.mu.Lock()
	if s := o.toLocked(); s.rts < tn {
		s.rts = tn
		s.rtsRO = ro
	}
	o.mu.Unlock()
}

// TOWrite performs a timestamp-ordering write: reject if a younger
// transaction already read or wrote the object; otherwise wait for older
// pending writes and install a pending version. A second write by the
// same transaction overwrites its pending version in place. w is told of
// each wait.
func (o *Object) TOWrite(tn uint64, data []byte, tombstone bool, w Waiter) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	s := o.toLocked()
	for {
		if s.rts > tn && s.rtsRO {
			return ErrConflictRO
		}
		if s.rts > tn || s.wts > tn {
			return ErrConflict
		}
		if i, ok := s.pendingIndex(tn); ok {
			s.pending[i].Data = data
			s.pending[i].Tombstone = tombstone
			return nil
		}
		if !s.hasPendingBelow(tn) {
			break
		}
		s.wait(w)
	}
	s.insertPending(Pending{TN: tn, Data: data, Tombstone: tombstone})
	if s.wts < tn {
		s.wts = tn
	}
	return nil
}

// ResolvePending commits (install, collecting at watermark as Install
// does) or aborts (drop) the pending version created by transaction tn,
// waking all waiters — each parked Waiter is told before it returns —
// and returns what the install returns. It is a no-op if the transaction
// has no pending version here.
func (o *Object) ResolvePending(tn uint64, commit bool, watermark func() uint64) (dropped int, older bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	s := o.toView()
	i, ok := s.pendingIndex(tn)
	if !ok {
		return 0, false
	}
	p := s.pending[i]
	s.pending = slices.Delete(s.pending, i, i+1)
	if commit {
		dropped, older = o.installCommittedLocked(Version{TN: p.TN, Data: p.Data, Tombstone: p.Tombstone}, watermark)
	}
	for _, w := range s.parked {
		w.Parked(false)
	}
	clear(s.parked)
	s.parked = s.parked[:0]
	s.cond.Broadcast()
	return dropped, older
}

// Withdraw removes the committed version numbered tn, if there is one:
// the engine put it in place before its commit record was durable
// (pipelined commit) and the log then failed. No snapshot can have read
// it — vtnc never passed tn — and a read-write transaction that did can
// no longer commit, its own record queueing behind the failed one. r-ts
// and w-ts stay where they are; too high is merely conservative.
func (o *Object) Withdraw(tn uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	i := sort.Search(len(o.versions), func(i int) bool { return o.versions[i].tn >= tn })
	if i < len(o.versions) && o.versions[i].tn == tn {
		o.versions = slices.Delete(o.versions, i, i+1) // clears the vacated slot
	}
}

// RTS returns the object's read timestamp.
func (o *Object) RTS() uint64 { o.mu.Lock(); defer o.mu.Unlock(); return o.toView().rts }

// WTS returns the object's write timestamp (including pending writes).
func (o *Object) WTS() uint64 { o.mu.Lock(); defer o.mu.Unlock(); return o.toView().wts }

// VersionCount returns the number of committed versions (GC metrics).
func (o *Object) VersionCount() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.versions)
}

// PendingCount returns the number of pending versions.
func (o *Object) PendingCount() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.toView().pending)
}

// Versions returns a copy of the committed chain (tests and tools).
func (o *Object) Versions() []Version {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]Version, len(o.versions))
	for i, v := range o.versions {
		v.unpack(&out[i])
	}
	return out
}

// Prune discards committed versions that are invisible to every snapshot
// >= watermark: all versions strictly older than the newest version whose
// TN <= watermark. It returns the number of versions discarded. This is
// the garbage-collection rule of paper Section 6: never discard a version
// "as young as or younger than vtnc" (our watermark additionally accounts
// for older active read-only transactions). When it drops any, the
// oldest version kept becomes the object's Floor.
func (o *Object) Prune(watermark uint64) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.pruneLocked(watermark)
}

func (o *Object) pruneLocked(watermark uint64) int {
	i := sort.Search(len(o.versions), func(i int) bool { return o.versions[i].tn > watermark })
	// versions[i-1] is the newest version <= watermark; it must survive,
	// everything before it is unreachable.
	if i <= 1 {
		return 0
	}
	// Delete clears the vacated tail, so the array keeps no dropped value
	// alive behind len.
	o.versions = slices.Delete(o.versions, 0, i-1)
	o.floor = o.versions[0].tn
	return i - 1
}

// CheckInvariants validates chain ordering; for tests.
func (o *Object) CheckInvariants() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	for i := 1; i < len(o.versions); i++ {
		if o.versions[i-1].tn >= o.versions[i].tn {
			return fmt.Errorf("storage: version chain out of order at %d", i)
		}
	}
	pending := o.toView().pending
	for i := 1; i < len(pending); i++ {
		if pending[i-1].TN >= pending[i].TN {
			return fmt.Errorf("storage: pending list out of order at %d", i)
		}
	}
	return nil
}

func (s *toState) pendingIndex(tn uint64) (int, bool) {
	for i := range s.pending {
		if s.pending[i].TN == tn {
			return i, true
		}
	}
	return 0, false
}

// hasPendingAtMost reports whether a pending write by another
// transaction with TN <= tn exists (the Figure 3 read-blocking condition).
func (s *toState) hasPendingAtMost(tn uint64) bool {
	return len(s.pending) > 0 && s.pending[0].TN <= tn
}

// hasPendingBelow reports whether a pending write with TN < tn exists
// (the Figure 3 write-blocking condition).
func (s *toState) hasPendingBelow(tn uint64) bool {
	return len(s.pending) > 0 && s.pending[0].TN < tn
}

func (s *toState) insertPending(p Pending) {
	n := len(s.pending)
	i := sort.Search(n, func(i int) bool { return s.pending[i].TN >= p.TN })
	s.pending = append(s.pending, Pending{})
	copy(s.pending[i+1:], s.pending[i:])
	s.pending[i] = p
}

// --- Store ---

const defaultShards = 64

// Store is a sharded map from key to Object, plus an ordered key index
// for prefix scans.
type Store struct {
	seed   maphash.Seed
	shards []shard
	mask   uint64
	idx    *index.Index
}

type shard struct {
	mu sync.RWMutex
	m  map[string]*Object
}

// NewStore creates a store with the given shard count (rounded up to a
// power of two; 0 selects the default).
func NewStore(shards int) *Store {
	if shards <= 0 {
		shards = defaultShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	s := &Store{seed: maphash.MakeSeed(), shards: make([]shard, n), mask: uint64(n - 1), idx: index.New(1)}
	for i := range s.shards {
		s.shards[i].m = make(map[string]*Object)
	}
	return s
}

func (s *Store) shardFor(key string) *shard {
	h := maphash.String(s.seed, key)
	return &s.shards[h&s.mask]
}

// Get returns the object for key, or nil if the key has never been
// written.
func (s *Store) Get(key string) *Object {
	sh := s.shardFor(key)
	sh.mu.RLock()
	o := sh.m[key]
	sh.mu.RUnlock()
	return o
}

// GetOrCreate returns the object for key, creating an empty one if
// needed.
func (s *Store) GetOrCreate(key string) *Object {
	sh := s.shardFor(key)
	sh.mu.RLock()
	o := sh.m[key]
	sh.mu.RUnlock()
	if o != nil {
		return o
	}
	sh.mu.Lock()
	if o = sh.m[key]; o == nil {
		o = newObject()
		sh.m[key] = o
	}
	sh.mu.Unlock()
	s.idx.Insert(key)
	return o
}

// Range calls fn for every key until fn returns false. The iteration
// order is unspecified and the snapshot is loose (keys created during
// iteration may or may not appear).
func (s *Store) Range(fn func(key string, o *Object) bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		keys := make([]string, 0, len(sh.m))
		for k := range sh.m {
			keys = append(keys, k)
		}
		sh.mu.RUnlock()
		for _, k := range keys {
			sh.mu.RLock()
			o := sh.m[k]
			sh.mu.RUnlock()
			if o == nil {
				continue
			}
			if !fn(k, o) {
				return
			}
		}
	}
}

// RangeOrdered calls fn for every key with the given prefix in ascending
// key order, until fn returns false. Unlike Range, iteration order is
// guaranteed; snapshot scans are built on it.
func (s *Store) RangeOrdered(prefix string, fn func(key string, o *Object) bool) {
	s.idx.RangePrefix(prefix, func(key string) bool {
		o := s.Get(key)
		if o == nil {
			return true // index insert raced ahead of the map insert
		}
		return fn(key, o)
	})
}

// Len returns the number of keys.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// TotalVersions returns the number of committed versions across all
// objects (GC experiment instrumentation).
func (s *Store) TotalVersions() int {
	n := 0
	s.Range(func(_ string, o *Object) bool {
		n += o.VersionCount()
		return true
	})
	return n
}

// Bootstrap installs an initial committed version (TN 0 by convention)
// for key. It is used to load data before transaction processing starts.
func (s *Store) Bootstrap(key string, data []byte) {
	s.GetOrCreate(key).InstallCommitted(Version{TN: 0, Data: data})
}
