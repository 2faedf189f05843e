// Package storage implements the multiversion object store substrate that
// every engine in this repository is built on.
//
// Each object (key) carries a chain of committed versions ordered by the
// transaction number of their creator (packed records, version.go) and,
// from its first timestamp-ordering operation on, the pending
// (uncommitted) version and read/write timestamps those protocols use.
// The paper's read rule — "return x_j with the largest version <= sn(T)"
// (Figure 2) — is ReadVisible; the timestamp-ordering rules of Figure 3
// are TORead/TOWrite.
//
// The store is one ordered key table whose lookups take no lock. Each
// object has one lock, its latch word's lock bit, which guards the chain
// and the timestamp-ordering state alike; a request that Figure 3 makes
// wait for an older pending write parks on a pooled request's channel,
// in that version's wait list.
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
// its writes never touch a line a chain reader loads. Like the chain, it
// is read and written only under the lock bit. An object has one pending
// version at most: a write waits for an older one, and a younger one's
// number in w-ts rejects it.
type toState struct {
	// pending is the uncommitted version a granted write installed
	// (timestamp ordering's "pending write"), numbered 0 when there is
	// none: no transaction writes as 0. waiters are the requests parked
	// until it resolves, newest first.
	pending Version
	waiters *request
	rts     uint64 // largest tn that read the most recent version
	wts     uint64 // largest tn that wrote (including pending)
	rtsRO   bool   // r-ts was last raised by a read-only transaction
}

// Waiter is the transaction a timestamp-ordering request is made for.
// A request that has to wait for an older pending write calls
// Parked(true) on its own goroutine before it waits, and the
// ResolvePending that ends the wait calls Parked(false) on the
// resolver's goroutine before it returns; a woken request that must
// wait again parks again. Neither call holds the lock bit, so a wake can
// overtake the park it answers. A nil Waiter waits unreported.
type Waiter interface {
	Parked(parked bool)
}

// request is one wait for a pending version: an entry in its wait list
// and the channel its resolver wakes it on. Requests are pooled: one is
// back in the pool, its channel empty, once its wait is over.
type request struct {
	w    Waiter
	next *request
	wake chan struct{}
}

var requests = sync.Pool{New: func() any { return &request{wake: make(chan struct{}, 1)} }}

// park enters a request for w in the pending version's wait list,
// releases the lock bit (m is meta), and waits until the version is
// resolved. It returns holding the bit again, with the new meta.
func (o *Object) park(m uint32, x *toState, w Waiter) uint32 {
	r := requests.Get().(*request)
	r.w, r.next, x.waiters = w, x.waiters, r
	o.unlock(m)
	if w != nil {
		w.Parked(true)
	}
	<-r.wake
	requests.Put(r)
	return o.lock()
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

// to returns the object's T/O state: with use set, allocated if need
// be; without, nil if timestamp ordering never used the object, so the
// getters and the paths that act only on an existing pending version
// never allocate. The caller holds the lock bit.
func (o *Object) to(use bool) *toState {
	if use {
		x := o.ensureExt()
		if x.to == nil {
			x.to = new(toState)
		}
		return x.to
	}
	if o.ext == nil {
		return nil
	}
	return o.ext.to
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

// visible returns the version in c with the largest TN <= sn: ReadAt's
// rule, for the timestamp-ordering reads.
func visible(c []version, sn uint64) (v Version, ok bool) {
	if i := after(c, sn); i > 0 {
		c[i-1].unpack(&v)
		ok = true
	}
	return v, ok
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
	w, dropped, older := o.install(o.lock(), v, watermark)
	o.unlock(w)
	return dropped, older
}

// install is Install under the lock bit: it takes meta and returns it
// as edited.
func (o *Object) install(w uint32, v Version, watermark func() uint64) (uint32, int, bool) {
	dropped := 0
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
	return o.settle(w, c), dropped, i > 0
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
func (o *Object) TORead(tn uint64, w Waiter) (v Version, ok bool) {
	m := o.lock()
	x := o.to(true)
	if x.rts < tn {
		x.rts, x.rtsRO = tn, false
	}
	for p := x.upTo(tn); p != 0 && p < tn; p = x.upTo(tn) {
		m = o.park(m, x, w)
	}
	if x.pending.TN == tn { // our own
		v, ok = x.pending, true
	} else {
		v, ok = visible(o.chain(m), tn)
	}
	o.unlock(m)
	return v, ok
}

// SnapshotReadWait performs a read at snapshot sn that waits for pending
// writes with TN <= sn to resolve. Reed-style multiversion timestamp
// ordering uses this for its (synchronized) read-only transactions; the
// paper's own read-only transactions never need it because sn <= vtnc
// implies every version <= sn is already committed. w is told of each
// wait (experiment E3 instrumentation).
func (o *Object) SnapshotReadWait(sn uint64, w Waiter) (Version, bool) {
	m := o.lock()
	x := o.to(false)
	for x.upTo(sn) != 0 {
		m = o.park(m, x, w)
	}
	v, ok := visible(o.chain(m), sn)
	o.unlock(m)
	return v, ok
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
	m := o.lock()
	if x := o.to(true); x.rts < tn {
		x.rts, x.rtsRO = tn, ro
	}
	o.unlock(m)
}

// TOWrite performs a timestamp-ordering write: reject if a younger
// transaction already read or wrote the object; otherwise wait for older
// pending writes and install a pending version. A second write by the
// same transaction overwrites its pending version in place. w is told of
// each wait.
func (o *Object) TOWrite(tn uint64, data []byte, tombstone bool, w Waiter) (err error) {
	m := o.lock()
	x := o.to(true)
	for {
		switch p := x.upTo(tn); {
		case x.rts > tn && x.rtsRO:
			err = ErrConflictRO
		case x.rts > tn || x.wts > tn:
			err = ErrConflict
		case p != 0 && p < tn:
			m = o.park(m, x, w)
			continue
		default: // a new pending version, or ours again
			x.pending, x.wts = Version{TN: tn, Data: data, Tombstone: tombstone}, tn
		}
		o.unlock(m)
		return err
	}
}

// ResolvePending commits (install, collecting at watermark as Install
// does) or aborts (drop) the pending version created by transaction tn,
// and returns what the install returns. Each request parked on the
// version is told and woken before it returns. It is a no-op if the
// transaction has no pending version here.
func (o *Object) ResolvePending(tn uint64, commit bool, watermark func() uint64) (dropped int, older bool) {
	m := o.lock()
	x := o.to(false)
	if x == nil || x.pending.TN != tn {
		o.unlock(m)
		return 0, false
	}
	v, waiters := x.pending, x.waiters
	x.pending, x.waiters = Version{}, nil
	if commit {
		m, dropped, older = o.install(m, v, watermark)
	}
	o.unlock(m)
	for r := waiters; r != nil; {
		w, next := r.w, r.next // once woken, r is its waiter's again
		if w != nil {
			w.Parked(false)
		}
		r.wake <- struct{}{}
		r = next
	}
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

// VersionCount returns the number of committed versions (GC metrics).
func (o *Object) VersionCount() int {
	w := o.lock()
	o.unlock(w)
	return int(w >> lenShift)
}

// PendingCount returns the number of pending versions: 0 or 1.
func (o *Object) PendingCount() (n int) {
	m := o.lock()
	if x := o.to(false); x != nil && x.pending.TN != 0 {
		n = 1
	}
	o.unlock(m)
	return n
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

// CheckInvariants validates chain order; for tests.
func (o *Object) CheckInvariants() error {
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

// upTo returns the pending version's number if it is at or below tn,
// else 0; x may be nil. A request by tn waits for that version unless it
// is tn's own (Figure 3's blocking condition, for reads and writes alike).
func (x *toState) upTo(tn uint64) uint64 {
	if x == nil || x.pending.TN > tn {
		return 0
	}
	return x.pending.TN
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

// CheckKey refuses a key longer than the store holds. Every engine's
// write path and Bootstrap call it before a write buffers the key, logs
// it or installs it.
func CheckKey(key string) error {
	if len(key) > MaxKey {
		return fmt.Errorf("storage: key of %d bytes, longer than %d", len(key), MaxKey)
	}
	return nil
}

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

// Bootstrap installs an initial committed version (TN 0 by convention)
// for key. It is used to load data before transaction processing starts.
func (s *Store) Bootstrap(key string, data []byte) {
	s.GetOrCreate(key).InstallCommitted(Version{TN: 0, Data: data})
}
