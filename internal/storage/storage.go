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
// The store is one ordered key table whose lookups take no lock; each
// object has its own latch word, and its timestamp-ordering state a mutex
// and condition variable (the pending-write blocking that Figure 3
// prescribes).
package storage

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

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

// Object is one key's version chain and synchronization state in one
// 64-byte allocation (DESIGN.md §16). A durable key rests at one version
// and an in-memory key at two, in the slots; only a longer chain or
// timestamp ordering allocates the extension.
type Object struct {
	latch atomic.Uint32 // the lock bit
	meta  uint32        // pruned | spilled | the chain's length << lenShift
	slots [2]version    // the chain, ascending, unless spilled; zero beyond it
	ext   *extension
}

// The bits of meta. meta, the slots, ext, and an extension's chain and
// to are read and written only under the lock bit.
const (
	pruned   = 1 << iota // a prune dropped versions: the oldest kept one is the floor
	spilled              // the chain is in the extension's array
	lenShift = iota
)

// extension holds the chain while it outgrows the slots (a snapshot, or
// a commit not yet pruned, holds old versions), and what only timestamp
// ordering (VC+T/O and the MVTO baseline) keeps. It goes when the chain
// is at rest (settle), unless timestamp ordering has used it.
type extension struct {
	// The spilled chain's array, whole: meta holds the chain's length,
	// so an install stores here only when it moves the chain to a new
	// array, and a reader's line stays clean. nil while not spilled.
	chain []version
	to    *toState // set once, never freed or replaced
}

// toState is what timestamp ordering keeps, apart from the chain so that
// its writes never touch a line a chain reader loads. Lock order is mu,
// then the lock bit: cond waits and Waiter.Parked calls hold mu alone.
type toState struct {
	mu      sync.Mutex
	cond    sync.Cond // L is mu
	pending []Pending // ascending TN
	parked  []Waiter  // waiting on cond; the next ResolvePending wakes them
	rts     uint64    // largest tn that read the most recent version
	wts     uint64    // largest tn that wrote (including pending)
	rtsRO   bool      // r-ts was last raised by a read-only transaction
}

// Waiter is the transaction a timestamp-ordering request is made for.
// A request that has to wait for an older pending write calls
// Parked(true) on its own goroutine before it waits, and the
// ResolvePending that ends the wait calls Parked(false) on the
// resolver's goroutine before it returns; a woken request that must
// wait again parks again. The calls are made under the T/O state's
// mutex, never under the lock bit. A nil Waiter waits unreported.
type Waiter interface {
	Parked(parked bool)
}

// wait parks w until the next resolution on the object. The caller holds
// x.mu.
func (x *toState) wait(w Waiter) {
	if w != nil {
		x.parked = append(x.parked, w)
		w.Parked(true)
	}
	x.cond.Wait()
}

func newObject() *Object { return &Object{} }

// lock takes the lock bit with a compare-and-swap from 0, inlined, and
// returns meta; a waiter spins on loads a little and then yields. A
// swap from a loaded value cost ≈ 5 ns more a lock than this, which is
// what sync.Mutex pays (DESIGN.md §16).
func (o *Object) lock() uint32 {
	if !o.latch.CompareAndSwap(0, 1) {
		o.wait()
	}
	return o.meta
}

func (o *Object) wait() {
	for spins := 0; o.latch.Load() != 0 || !o.latch.CompareAndSwap(0, 1); spins++ {
		if spins >= 16 {
			runtime.Gosched()
		}
	}
}

// unlock stores w, meta as edited, and releases the lock bit.
func (o *Object) unlock(w uint32) {
	o.meta = w
	o.latch.Store(0)
}

// chain returns the chain meta w describes.
func (o *Object) chain(w uint32) []version {
	if w&spilled != 0 {
		return o.ext.chain[:w>>lenShift]
	}
	return o.slots[:w>>lenShift]
}

// spill moves c, the chain of full slots, into a new array of twice
// their number in the extension, and clears the slots.
func (o *Object) spill(w uint32, c []version) (uint32, []version) {
	x := o.ensureExt()
	x.chain = make([]version, 2*len(o.slots))
	c = append(x.chain[:0], c...)
	clear(o.slots[:])
	return w | spilled, c
}

// settle stores c, the chain after an edit of o.chain(w), and returns w
// with its length. A spilled chain stays in its array until it is at
// rest, one version or none: under pipelined commit a written key's next
// install often comes before the prune that follows its last one, and
// an array of four collects at every other install where full slots
// collect at every one. At rest it goes back to the slots, and the
// array, with the extension unless timestamp ordering uses it, goes.
func (o *Object) settle(w uint32, c []version) uint32 {
	if x := o.ext; w&spilled != 0 && len(c) > 1 {
		if cap(c) != len(x.chain) { // the append moved it
			x.chain = c[:cap(c)]
		}
	} else if w&spilled != 0 {
		copy(o.slots[:], c)
		w &^= spilled
		if x.chain = nil; x.to == nil {
			o.ext = nil
		}
	}
	return w&(1<<lenShift-1) | uint32(len(c))<<lenShift
}

// after returns the index of the first version in c numbered above tn.
// The common answer, past the newest, needs no search.
func after(c []version, tn uint64) int {
	if n := len(c); n == 0 || c[n-1].tn <= tn {
		return n
	}
	return sort.Search(len(c), func(i int) bool { return c[i].tn > tn })
}

// ensureExt returns the extension, allocated if need be. The caller
// holds the lock bit.
func (o *Object) ensureExt() *extension {
	if o.ext == nil {
		o.ext = &extension{}
	}
	return o.ext
}

// toView returns the T/O state with its mutex held, or noTO if timestamp
// ordering never used the object, so the getters and the paths that act
// only on an existing pending version never allocate. Nothing writes or
// locks noTO: every write follows to or finds a pending version. done
// releases what toView took.
func (o *Object) toView() *toState {
	if x := o.to(false); x != nil {
		x.mu.Lock()
		return x
	}
	return &noTO
}

var noTO toState

func (x *toState) done() {
	if x != &noTO {
		x.mu.Unlock()
	}
}

// to returns the object's T/O state: with use set, allocated if need
// be; without, nil if timestamp ordering never used the object. It is
// never freed or replaced, nor is an extension that holds it, so it is
// still the object's after the lock bit is released.
func (o *Object) to(use bool) *toState {
	w := o.lock()
	var t *toState
	if use {
		x := o.ensureExt()
		if x.to == nil {
			x.to = &toState{}
			x.to.cond.L = &x.to.mu
		}
		t = x.to
	} else if o.ext != nil {
		t = o.ext.to
	}
	o.unlock(w)
	return t
}

// ReadVisible returns the committed version with the largest TN <= sn,
// implementing the read rule of paper Figure 2. ok is false when no such
// version exists (the object was created after the snapshot). A returned
// tombstone means the object was deleted as of sn; callers translate that
// to "not found" while still learning the version identity for history
// checking.
func (o *Object) ReadVisible(sn uint64) (v Version, ok bool) {
	v, ok, _ = o.ReadAt(sn)
	return v, ok
}

// ReadAt is ReadVisible that also reports, from the same critical
// section, the object's pruned floor: the number of the oldest version
// kept once a prune has dropped any, or 0 before. A snapshot below it
// may be missing versions it needs: a miss there is not "not found".
func (o *Object) ReadAt(sn uint64) (v Version, ok bool, floor uint64) {
	w := o.lock()
	c := o.chain(w)
	if i := after(c, sn); i > 0 {
		c[i-1].unpack(&v)
		ok = true
	}
	if w&pruned != 0 && len(c) > 0 { // a withdrawal may empty a pruned chain
		floor = c[0].tn
	}
	o.unlock(w)
	return v, ok, floor
}

// LatestCommitted returns the newest committed version. Two-phase-locking
// read-write transactions use it: under a read lock the latest committed
// version is guaranteed current (paper Section 4.4, sn(T) = infinity).
func (o *Object) LatestCommitted() (v Version, ok bool) {
	w := o.lock()
	if c := o.chain(w); len(c) > 0 {
		c[len(c)-1].unpack(&v)
		ok = true
	}
	o.unlock(w)
	return v, ok
}

// LatestTN returns the TN of the newest committed version, or 0 if none.
// Optimistic validation compares it against the TN observed at read time.
func (o *Object) LatestTN() (tn uint64) {
	w := o.lock()
	if c := o.chain(w); len(c) > 0 {
		tn = c[len(c)-1].tn
	}
	o.unlock(w)
	return tn
}

// InstallCommitted inserts a committed version. Versions may be installed
// out of TN order across objects, but for a single object callers must
// never install a version older than one some snapshot could already have
// read past; the engines guarantee this by construction. The chain is kept
// sorted. It never collects: see Install.
func (o *Object) InstallCommitted(v Version) { o.Install(v, nil) }

// Install is InstallCommitted for an engine that collects at install
// (Hekaton's cooperative collection): when the chain has no room — both
// slots taken, or its extension's array full — it calls watermark once
// and first drops every version below the newest one at or under it, as
// Prune does; the new version then reuses the room. It returns the
// number of versions dropped, and whether a version older than v is
// left, which a Prune at v's number or above would drop. An install with
// room, or with a nil watermark, reads nothing but the object. watermark
// must return a number no snapshot open then or opened later reads
// below, other than one pinned below it, which the pruned floor reports.
//
// A prune that frees d slots costs one copy of the chain and buys d
// installs without one; a prune that frees nothing lets the append
// double the array, so the next one comes twice as late. A prune that
// leaves an array larger than spill's at a quarter full or less gives it
// up, so a chain that grew while a snapshot held the watermark collects
// at the pace it did before.
func (o *Object) Install(v Version, watermark func() uint64) (dropped int, older bool) {
	w := o.lock()
	c := o.chain(w)
	if watermark != nil && len(c) > 1 && len(c) == cap(c) {
		if c, dropped = prune(c, watermark()); dropped > 0 {
			w |= pruned
			if w&spilled != 0 && cap(c) > 2*len(o.slots) && len(c) <= cap(c)/4 {
				// An array a held watermark grew: the chain goes to
				// the slots, or to an array of twice its length.
				if len(c) > 1 {
					c = append(make([]version, 0, 2*len(c)), c...)
				}
				w = o.settle(w, c)
				c = o.chain(w)
			}
		}
	}
	i := after(c, v.TN)
	if i > 0 && c[i-1].tn == v.TN {
		o.unlock(o.settle(w, c))
		panic(fmt.Sprintf("storage: duplicate version tn=%d", v.TN))
	}
	if w&spilled == 0 && len(c) == len(o.slots) {
		w, c = o.spill(w, c)
	}
	c = append(c, version{})
	copy(c[i+1:], c[i:])
	c[i] = pack(v)
	o.unlock(o.settle(w, c))
	return dropped, i > 0
}

// --- Timestamp-ordering operations (paper Figure 3) ---

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
	x := o.to(true)
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.rts < tn {
		x.rts = tn
		x.rtsRO = false
	}
	for {
		if i, ok := x.pendingIndex(tn); ok {
			p := x.pending[i]
			return Version{TN: p.TN, Data: p.Data, Tombstone: p.Tombstone}, true
		}
		if !x.hasPendingAtMost(tn) {
			return o.ReadVisible(tn)
		}
		x.wait(w)
	}
}

// SnapshotReadWait performs a read at snapshot sn that waits for pending
// writes with TN <= sn to resolve. Reed-style multiversion timestamp
// ordering uses this for its (synchronized) read-only transactions; the
// paper's own read-only transactions never need it because sn <= vtnc
// implies every version <= sn is already committed. w is told of each
// wait (experiment E3 instrumentation).
func (o *Object) SnapshotReadWait(sn uint64, w Waiter) (Version, bool) {
	x := o.toView()
	defer x.done()
	for x.hasPendingAtMost(sn) {
		x.wait(w)
	}
	return o.ReadVisible(sn)
}

// ReadVisibleWhere returns the version with the largest TN <= sn whose
// creator satisfies the admit predicate. It implements the read rule of
// the Chan et al. MV2PL baseline (paper Section 2): "finding a largest
// version of an object smaller than the start timestamp of the
// transaction, and ensuring that the creator of this version appears in
// the copy of the completed transaction list". The per-read predicate
// scan is part of the overhead the paper's version control eliminates.
// admit runs under the lock bit.
func (o *Object) ReadVisibleWhere(sn uint64, admit func(tn uint64) bool) (v Version, ok bool) {
	w := o.lock()
	c := o.chain(w)
	for i := after(c, sn) - 1; i >= 0; i-- {
		if admit(c[i].tn) {
			c[i].unpack(&v)
			ok = true
			break
		}
	}
	o.unlock(w)
	return v, ok
}

// SetRTS raises r-ts(x) to at least tn. Reed-style MVTO applies it for
// read-only transactions too — the overhead the paper eliminates. ro
// marks whether the reader is a read-only transaction; the flag feeds the
// abort-attribution statistics of experiment E2.
func (o *Object) SetRTS(tn uint64, ro bool) {
	x := o.to(true)
	x.mu.Lock()
	if x.rts < tn {
		x.rts = tn
		x.rtsRO = ro
	}
	x.mu.Unlock()
}

// TOWrite performs a timestamp-ordering write: reject if a younger
// transaction already read or wrote the object; otherwise wait for older
// pending writes and install a pending version. A second write by the
// same transaction overwrites its pending version in place. w is told of
// each wait.
func (o *Object) TOWrite(tn uint64, data []byte, tombstone bool, w Waiter) error {
	x := o.to(true)
	x.mu.Lock()
	defer x.mu.Unlock()
	for {
		if x.rts > tn && x.rtsRO {
			return ErrConflictRO
		}
		if x.rts > tn || x.wts > tn {
			return ErrConflict
		}
		if i, ok := x.pendingIndex(tn); ok {
			x.pending[i].Data = data
			x.pending[i].Tombstone = tombstone
			return nil
		}
		if !x.hasPendingBelow(tn) {
			break
		}
		x.wait(w)
	}
	x.insertPending(Pending{TN: tn, Data: data, Tombstone: tombstone})
	if x.wts < tn {
		x.wts = tn
	}
	return nil
}

// ResolvePending commits (install, collecting at watermark as Install
// does) or aborts (drop) the pending version created by transaction tn,
// waking all waiters — each parked Waiter is told before it returns —
// and returns what the install returns. It is a no-op if the transaction
// has no pending version here.
func (o *Object) ResolvePending(tn uint64, commit bool, watermark func() uint64) (dropped int, older bool) {
	x := o.toView()
	defer x.done()
	i, ok := x.pendingIndex(tn)
	if !ok {
		return 0, false
	}
	p := x.pending[i]
	x.pending = slices.Delete(x.pending, i, i+1)
	if commit {
		dropped, older = o.Install(Version{TN: p.TN, Data: p.Data, Tombstone: p.Tombstone}, watermark)
	}
	for _, w := range x.parked {
		w.Parked(false)
	}
	clear(x.parked)
	x.parked = x.parked[:0]
	x.cond.Broadcast()
	return dropped, older
}

// Withdraw removes the committed version numbered tn, if there is one:
// the engine put it in place before its commit record was durable
// (pipelined commit) and the log then failed. No snapshot can have read
// it — vtnc never passed tn — and a read-write transaction that did can
// no longer commit, its own record queueing behind the failed one. r-ts
// and w-ts stay where they are; too high is merely conservative.
func (o *Object) Withdraw(tn uint64) {
	w := o.lock()
	c := o.chain(w)
	if i := after(c, tn); i > 0 && c[i-1].tn == tn {
		w = o.settle(w, slices.Delete(c, i-1, i)) // clears the vacated slot
	}
	o.unlock(w)
}

// RTS returns the object's read timestamp.
func (o *Object) RTS() uint64 { x := o.toView(); defer x.done(); return x.rts }

// WTS returns the object's write timestamp (including pending writes).
func (o *Object) WTS() uint64 { x := o.toView(); defer x.done(); return x.wts }

// VersionCount returns the number of committed versions (GC metrics).
func (o *Object) VersionCount() int {
	w := o.lock()
	o.unlock(w)
	return int(w >> lenShift)
}

// PendingCount returns the number of pending versions.
func (o *Object) PendingCount() int {
	x := o.toView()
	defer x.done()
	return len(x.pending)
}

// Versions returns a copy of the committed chain (tests and tools).
func (o *Object) Versions() []Version {
	w := o.lock()
	c := o.chain(w)
	out := make([]Version, len(c))
	for i, v := range c {
		v.unpack(&out[i])
	}
	o.unlock(w)
	return out
}

// Prune discards committed versions that are invisible to every snapshot
// >= watermark: all versions strictly older than the newest version whose
// TN <= watermark. It returns the number of versions discarded. This is
// the garbage-collection rule of paper Section 6: never discard a version
// "as young as or younger than vtnc" (our watermark additionally accounts
// for older active read-only transactions). When it drops any, the
// oldest version kept becomes the object's floor (ReadAt).
func (o *Object) Prune(watermark uint64) int {
	w := o.lock()
	c, n := prune(o.chain(w), watermark)
	if n > 0 {
		w = o.settle(w|pruned, c)
	}
	o.unlock(w)
	return n
}

// prune drops from c, in place, every version older than the newest one
// at or under watermark, and returns the rest and the number dropped.
// Delete clears the vacated tail: no dropped value stays reachable.
func prune(c []version, watermark uint64) ([]version, int) {
	i := after(c, watermark)
	if i <= 1 {
		return c, 0
	}
	return slices.Delete(c, 0, i-1), i - 1
}

// CheckInvariants validates chain and pending order; for tests.
func (o *Object) CheckInvariants() error {
	x := o.toView()
	defer x.done()
	for i := 1; i < len(x.pending); i++ {
		if x.pending[i-1].TN >= x.pending[i].TN {
			return fmt.Errorf("storage: pending list out of order at %d", i)
		}
	}
	w := o.lock()
	defer o.unlock(w)
	c := o.chain(w)
	for i := 1; i < len(c); i++ {
		if c[i-1].tn >= c[i].tn {
			return fmt.Errorf("storage: version chain out of order at %d", i)
		}
	}
	return nil
}

func (x *toState) pendingIndex(tn uint64) (int, bool) {
	for i := range x.pending {
		if x.pending[i].TN == tn {
			return i, true
		}
	}
	return 0, false
}

// hasPendingAtMost reports whether a pending write by another
// transaction with TN <= tn exists (the Figure 3 read-blocking condition).
func (x *toState) hasPendingAtMost(tn uint64) bool {
	return len(x.pending) > 0 && x.pending[0].TN <= tn
}

// hasPendingBelow reports whether a pending write with TN < tn exists
// (the Figure 3 write-blocking condition).
func (x *toState) hasPendingBelow(tn uint64) bool {
	return len(x.pending) > 0 && x.pending[0].TN < tn
}

func (x *toState) insertPending(p Pending) {
	n := len(x.pending)
	i := sort.Search(n, func(i int) bool { return x.pending[i].TN >= p.TN })
	x.pending = append(x.pending, Pending{})
	copy(x.pending[i+1:], x.pending[i:])
	x.pending[i] = p
}

// --- Store ---

// Store maps each key to its Object in one ordered key table
// (index.Map): a point lookup and a scan take no lock, and a scan finds
// each object beside its key.
type Store struct {
	m index.Map[*Object]
}

// MaxKey is the longest key the store holds (32 MiB less a byte);
// GetOrCreate panics on a longer one.
const MaxKey = index.MaxKey

// NewStore creates an empty store. The argument is ignored: it was the
// shard count of the hash-sharded store this table replaced.
func NewStore(int) *Store { return &Store{} }

// Get returns the object for key, or nil if the key has never been
// written.
func (s *Store) Get(key string) *Object {
	o, _ := s.m.Get(key)
	return o
}

// GetOrCreate returns the object for key, creating an empty one if
// needed.
func (s *Store) GetOrCreate(key string) *Object {
	if o, ok := s.m.Get(key); ok {
		return o
	}
	o, _ := s.m.LoadOrInsert(key, newObject)
	return o
}

// Range calls fn for every key in ascending order until fn returns
// false. The snapshot is loose: a key created during the iteration
// appears if it sorts after the cursor. A key passed to fn shares the key
// table's bytes, which never change: it may be kept.
func (s *Store) Range(fn func(key string, o *Object) bool) { s.m.Range("", "", fn) }

// RangeOrdered calls fn for every key with the given prefix in ascending
// key order, until fn returns false; snapshot scans are built on it.
func (s *Store) RangeOrdered(prefix string, fn func(key string, o *Object) bool) {
	s.m.RangePrefix(prefix, fn)
}

// Len returns the number of keys.
func (s *Store) Len() int { return s.m.Len() }

// Leaves returns the number of leaves of the key table (tests and tools).
func (s *Store) Leaves() int { return s.m.Leaves() }

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
