// Package lock implements the two-phase-locking substrate used by the
// VC+2PL engine (paper Figure 4) and the single-version and CTL-based
// baselines.
//
// The manager provides shared/exclusive locks with FIFO queues and lock
// upgrade, plus two deadlock-handling policies, one per place the
// engines run:
//
//   - Detect: build the waits-for relation lazily and run a cycle check
//     whenever a request blocks; the requester that would close a cycle
//     is the victim (ErrDeadlock). A standalone engine uses it.
//   - Timeout: a blocked request fails with ErrTimeout after a bound. A
//     cluster site uses it: its local waits-for relation cannot see a
//     cycle that spans sites.
//
// Victims must abort and call ReleaseAll; the engines above retry them.
// Note the paper's observation (Section 4.4): deadlocks are entirely a
// concurrency-control phenomenon. Transactions interact with the version
// control module only after their lock-point, so the VC module can never
// participate in a deadlock — this package is the only place blocking
// cycles can arise in the VC+2PL engine.
//
// # Striping
//
// The lock table is hash-striped: each stripe owns a disjoint slice of
// the key space under its own mutex, so uncontended acquisitions on
// unrelated keys never serialize on a shared lock. Per-transaction state
// (held keys, current wait) lives under a small per-transaction
// mutex; who holds a key, and in which mode, is recorded once, in the
// key's lockState under its stripe mutex. The lock order is stripe mutex
// → transaction mutex, one of each at a time; nothing ever takes a stripe
// mutex while holding a transaction mutex, which is what makes
// cross-stripe release and grant safe.
//
// The slow path — deadlock detection, which must observe wait-for
// edges that span stripes — is serialized by a single detector mutex
// taken only when a request actually blocks. Under that mutex the
// detector walks the wait-for relation locking one stripe (or one
// transaction) at a time. This is sound because the edges of a real
// deadlock cycle are stable: every transaction on the cycle is
// parked, so none of them can release the lock that would break an
// edge while the walk is in progress, and the request that closes a
// cycle always runs a detection pass after its edge is published. The
// converse does not hold — a concurrent grant outside the detector
// mutex can, in principle, let the walk observe two edges that never
// coexisted and abort a requester that was not truly deadlocked. Such
// spurious victims are safe (the transaction retries) and vanishingly
// rare; see DESIGN.md.
package lock

import (
	"errors"
	"fmt"
	"hash/maphash"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Mode is a lock mode.
type Mode int

const (
	// Shared is a read lock; compatible with other Shared locks.
	Shared Mode = iota
	// Exclusive is a write lock; compatible with nothing.
	Exclusive
)

func (m Mode) String() string {
	if m == Shared {
		return "S"
	}
	return "X"
}

// Policy selects the deadlock-handling strategy.
type Policy int

const (
	// Detect runs cycle detection on block and aborts the requester
	// closing a cycle.
	Detect Policy = iota
	// TimeoutPolicy aborts a request that waits longer than the
	// manager's timeout.
	TimeoutPolicy
)

// Errors returned by Acquire. All of them mean the transaction must abort
// (release its locks) and may be retried by the caller.
var (
	ErrDeadlock = errors.New("lock: deadlock detected, requester chosen as victim")
	ErrTimeout  = errors.New("lock: wait timed out")
	ErrUnknown  = errors.New("lock: unknown transaction")
)

// DefaultStripes is the stripe count used by NewManager. Power of two;
// sized so that a few dozen hot worker goroutines rarely collide.
const DefaultStripes = 32

// request is a transaction state's one wait request, made at its first
// wait and queued again for every later one: tx is fixed, and key and
// mode are rewritten under tx.mu for each wait.
type request struct {
	tx   *TxState
	key  string
	mode Mode
	// ready receives the request's verdict exactly once a wait. The
	// invariant that makes this safe across stripes: only the goroutine
	// that removes the request from its queue (under the stripe mutex)
	// may send.
	ready chan error
}

// TxState is one transaction's lock-manager state. The caller owns it —
// the VC+2PL engine keeps it inside its transaction struct — and hands
// it to BeginState at each begin; it may be begun again once ReleaseAll
// has returned. The detector holds a *TxState outside every mutex
// between two steps of a walk, so it records the id beside the pointer
// and follows the state only while the id still matches (walk).
type TxState struct {
	// id is written under mu (BeginState) and read under mu or under the
	// mutex of a stripe where the state holds or waits for a key: its
	// next BeginState comes after ReleaseAll has left every stripe.
	id uint64

	// mu guards the fields below. Lock order: a stripe mutex may be held
	// while taking mu; never the reverse.
	mu sync.Mutex
	// keys lists each held key once, in grant order (the mode is in the
	// key's lockState); keyBuf backs the first few.
	keys    []string
	keyBuf  [3]string
	waiting *request // req while it is queued
	req     *request // made at the first wait
}

// holder is one granted lock on a key.
type holder struct {
	tx   *TxState
	mode Mode
}

// lockState is one key's holders and FIFO wait queue. It is reachable
// only through its stripe's table or free list and touched only under
// that stripe's mutex; vacated holder and queue slots are cleared, so a
// parked lockState pins no transaction.
type lockState struct {
	holders   []holder
	holderBuf [2]holder // backs the common cases: one writer, two readers
	queue     []*request
}

// holderIdx returns tx's index among the holders, -1 if it holds nothing
// here. A nil lockState has no holders.
func (ls *lockState) holderIdx(tx *TxState) int {
	if ls != nil {
		for i := range ls.holders {
			if ls.holders[i].tx == tx {
				return i
			}
		}
	}
	return -1
}

// conflict reports whether a holder other than tx has a lock that rules
// out granting tx mode. For an upgrade (tx holds Shared, mode is
// Exclusive) "no conflict" is exactly "tx is the sole holder".
func (ls *lockState) conflict(tx *TxState, mode Mode) bool {
	for _, h := range ls.holders {
		if h.tx != tx && (mode == Exclusive || h.mode == Exclusive) {
			return true
		}
	}
	return false
}

// grant makes tx a holder in mode: an upgrade rewrites its Shared entry
// in place, anything else adds a holder and lists key for ReleaseAll.
// The caller holds the stripe mutex and tx.mu.
func (ls *lockState) grant(tx *TxState, key string, mode Mode) {
	if i := ls.holderIdx(tx); i >= 0 {
		ls.holders[i].mode = mode
		return
	}
	ls.holders = append(ls.holders, holder{tx, mode})
	tx.keys = append(tx.keys, key)
}

// unqueue removes queue entry i, shifting the rest down in place: the
// backing array is reused and the vacated slot pins no request.
func (ls *lockState) unqueue(i int) {
	n := len(ls.queue) - 1
	copy(ls.queue[i:], ls.queue[i+1:])
	ls.queue[n] = nil
	ls.queue = ls.queue[:n]
}

// freeListCap bounds the emptied lockStates a stripe parks for reuse;
// past it they are left to the collector.
const freeListCap = 32

// stripe is one hash partition of the lock table.
type stripe struct {
	mu    sync.Mutex
	locks map[string]*lockState
	free  []*lockState // emptied, at most freeListCap
}

// newState enters a lockState for key, which has none: a parked one if
// there is one. The caller holds s.mu.
func (s *stripe) newState(key string) *lockState {
	var ls *lockState
	if n := len(s.free) - 1; n >= 0 {
		ls, s.free[n] = s.free[n], nil
		s.free = s.free[:n]
	} else {
		ls = new(lockState)
		ls.holders = ls.holderBuf[:0]
	}
	s.locks[key] = ls
	return ls
}

const txShardCount = 16

// txShard is one partition of the transaction registry.
type txShard struct {
	mu sync.Mutex
	m  map[uint64]*TxState
}

// Manager is a lock manager. It is safe for concurrent use.
type Manager struct {
	policy  Policy
	timeout time.Duration
	seed    maphash.Seed
	stripes []stripe // len is a power of two
	txs     [txShardCount]txShard

	// detectMu serializes the blocking slow path, cycle detection
	// (Detect). Fast-path grants and releases never touch it. It guards
	// the walk's scratch, reused so that a wait allocates nothing.
	detectMu sync.Mutex
	visited  map[*TxState]struct{}
	stack    []blocker

	waits      atomic.Uint64
	deadlocks  atomic.Uint64
	timeouts   atomic.Uint64
	collisions atomic.Uint64

	// onWait observes every blocked request when its wait ends; see
	// SetWaitObserver. onBlock observes it when the wait begins; see
	// SetBlockObserver. Both run outside every manager mutex.
	onWait  func(txID uint64, wait time.Duration)
	onBlock func(txID uint64, key string)
}

// NewManager creates a manager with the given policy and DefaultStripes
// lock-table stripes. timeout applies only to TimeoutPolicy (zero selects
// 50ms).
func NewManager(policy Policy, timeout time.Duration) *Manager {
	return NewManagerStriped(policy, timeout, 0)
}

// NewManagerStriped creates a manager with an explicit stripe count
// (rounded up to a power of two; 0 selects DefaultStripes, 1 reproduces
// the historical single-mutex lock table).
func NewManagerStriped(policy Policy, timeout time.Duration, stripes int) *Manager {
	if timeout <= 0 {
		timeout = 50 * time.Millisecond
	}
	if stripes <= 0 {
		stripes = DefaultStripes
	}
	n := 1
	for n < stripes {
		n <<= 1
	}
	m := &Manager{
		policy:  policy,
		timeout: timeout,
		seed:    maphash.MakeSeed(),
		stripes: make([]stripe, n),
		visited: make(map[*TxState]struct{}),
	}
	for i := range m.stripes {
		m.stripes[i].locks = make(map[string]*lockState)
	}
	for i := range m.txs {
		m.txs[i].m = make(map[uint64]*TxState)
	}
	return m
}

func (m *Manager) stripeFor(key string) *stripe {
	return &m.stripes[maphash.String(m.seed, key)&uint64(len(m.stripes)-1)]
}

// lockStripe takes s.mu, counting the acquisition as a collision when
// another goroutine already holds it (the stripe contention signal
// surfaced in obs snapshots).
func (m *Manager) lockStripe(s *stripe) {
	if s.mu.TryLock() {
		return
	}
	m.collisions.Add(1)
	s.mu.Lock()
}

func (m *Manager) lookup(txID uint64) *TxState {
	sh := &m.txs[txID%txShardCount]
	sh.mu.Lock()
	tx := sh.m[txID]
	sh.mu.Unlock()
	return tx
}

// Begin is BeginState on a new TxState, for callers with no struct of
// their own to keep one in. The second argument is ignored.
func (m *Manager) Begin(txID, _ uint64) {
	m.BeginState(new(TxState), txID)
}

// BeginState registers a transaction with the state it keeps here: a new
// one, or one whose last transaction ReleaseAll has released. Its fields
// are reset one by one under its mutex, never overwritten whole: a walk
// that holds the state from its last use may be holding the mutex too.
func (m *Manager) BeginState(tx *TxState, txID uint64) {
	tx.mu.Lock()
	tx.id, tx.keys, tx.waiting = txID, tx.keyBuf[:0], nil
	tx.mu.Unlock()
	sh := &m.txs[txID%txShardCount]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.m[txID]; ok {
		panic(fmt.Sprintf("lock: duplicate Begin(%d)", txID))
	}
	sh.m[txID] = tx
}

// SetWaitObserver installs fn, called once per blocked request when its
// wait ends — granted or failed — with the requester and the time spent
// blocked. The callback runs on the waiter's own goroutine with no
// manager, stripe or transaction mutex held, so a slow observer can
// never stall lock traffic on any key (TestSlowWaitObserver pins this
// down). It must be installed before the manager sees concurrent use
// (engines set it at construction).
func (m *Manager) SetWaitObserver(fn func(txID uint64, wait time.Duration)) {
	m.onWait = fn
}

// SetBlockObserver installs fn, called once per request at the moment it
// begins to wait (its entry is queued and visible to other transactions).
// Like the wait observer it runs on the requester's goroutine outside
// every mutex. The deterministic schedule-exploration harness
// (internal/schedtest) uses it to learn that a step has parked.
func (m *Manager) SetBlockObserver(fn func(txID uint64, key string)) {
	m.onBlock = fn
}

// Acquire blocks until the lock is granted or the transaction becomes a
// deadlock or timeout victim. Re-acquiring a held lock (same or weaker
// mode) is a no-op; Shared→Exclusive upgrades are supported and take
// priority over queued requests.
func (m *Manager) Acquire(txID uint64, key string, mode Mode) error {
	tx := m.lookup(txID)
	if tx == nil {
		return ErrUnknown
	}
	req := m.grantOrQueue(tx, key, mode)
	if req == nil {
		return nil
	}
	m.waits.Add(1)
	if m.onBlock != nil {
		m.onBlock(txID, key)
	}

	if m.policy == Detect {
		m.detectMu.Lock()
		victim := m.cycleFrom(tx) && m.cancelRequest(req)
		m.detectMu.Unlock()
		if victim {
			m.deadlocks.Add(1)
			return ErrDeadlock
		}
		// If a cycle was seen but the request had already been granted
		// concurrently, the verdict is on the channel; take it below.
	}

	waitStart := time.Now()
	err := m.await(req)
	if m.onWait != nil {
		m.onWait(txID, time.Since(waitStart))
	}
	return err
}

// grantOrQueue is Acquire's step under the key's stripe mutex and tx.mu:
// grant the lock (nil request), or queue a request and return it.
func (m *Manager) grantOrQueue(tx *TxState, key string, mode Mode) *request {
	s := m.stripeFor(key)
	m.lockStripe(s)
	defer s.mu.Unlock()
	tx.mu.Lock()
	defer tx.mu.Unlock()
	ls := s.locks[key]
	held := ls.holderIdx(tx)
	if held >= 0 && (mode == Shared || ls.holders[held].mode == Exclusive) {
		return nil
	}
	upgrade := held >= 0 // held Shared, want Exclusive
	if ls == nil {
		ls = s.newState(key)
	}
	// FIFO fairness: a fresh request queues behind existing waiters; an
	// upgrade goes ahead of them.
	if !ls.conflict(tx, mode) && (upgrade || len(ls.queue) == 0) {
		ls.grant(tx, key, mode)
		return nil
	}
	req := tx.req
	if req == nil {
		req = &request{tx: tx, ready: make(chan error, 1)}
		tx.req = req
	}
	select {
	case <-req.ready: // a verdict ReleaseAll sent that no wait took
	default:
	}
	req.key, req.mode = key, mode
	ls.queue = append(ls.queue, req)
	if upgrade {
		copy(ls.queue[1:], ls.queue)
		ls.queue[0] = req
	}
	tx.waiting = req
	return req
}

// await blocks on a queued request until it is granted or fails under
// the manager's policy.
func (m *Manager) await(req *request) error {
	if m.policy == TimeoutPolicy {
		timer := time.NewTimer(m.timeout)
		defer timer.Stop()
		select {
		case err := <-req.ready:
			return err
		case <-timer.C:
			if m.cancelRequest(req) {
				m.timeouts.Add(1)
				return ErrTimeout
			}
			// A grant raced the timer; its verdict is queued.
			return <-req.ready
		}
	}
	return <-req.ready
}

// cancelRequest removes req from its key's queue if it is still there,
// reporting whether it was. Whoever removes a request owns its verdict;
// a false return means some other path (grant, release) already
// resolved it and has sent — or is about to send — on req.ready.
func (m *Manager) cancelRequest(req *request) bool {
	s := m.stripeFor(req.key)
	m.lockStripe(s)
	ls := s.locks[req.key]
	if ls == nil || !m.removeRequest(s, ls, req) {
		s.mu.Unlock()
		return false
	}
	req.tx.mu.Lock()
	if req.tx.waiting == req {
		req.tx.waiting = nil
	}
	req.tx.mu.Unlock()
	s.mu.Unlock()
	return true
}

// ReleaseAll releases every lock held by txID, grants any now-compatible
// waiters, and forgets the transaction. It is the 2PL "shrinking phase"
// done all at once (strict 2PL), and also the abort path for victims.
func (m *Manager) ReleaseAll(txID uint64) {
	sh := &m.txs[txID%txShardCount]
	sh.mu.Lock()
	tx := sh.m[txID]
	delete(sh.m, txID)
	sh.mu.Unlock()
	if tx == nil {
		return
	}

	tx.mu.Lock()
	w := tx.waiting
	tx.waiting = nil
	tx.mu.Unlock()

	if w != nil {
		// Defensive: a transaction should never release while blocked,
		// but if the engine aborts it from another goroutine, clean up.
		// The blocked owner takes the verdict; one no wait took is
		// drained when the request is next queued (grantOrQueue).
		s := m.stripeFor(w.key)
		m.lockStripe(s)
		if ls := s.locks[w.key]; ls != nil && m.removeRequest(s, ls, w) {
			w.ready <- ErrUnknown
		}
		s.mu.Unlock()
	}
	// Nothing can add to tx.keys any more: the owner is here, and a grant
	// on its behalf needs a queued request, which is gone.
	for _, key := range tx.keys {
		s := m.stripeFor(key)
		m.lockStripe(s)
		ls := s.locks[key]
		if i := ls.holderIdx(tx); i >= 0 {
			n := len(ls.holders) - 1
			ls.holders[i] = ls.holders[n]
			ls.holders[n] = holder{}
			ls.holders = ls.holders[:n]
			m.grantWaiters(s, key, ls)
		}
		s.mu.Unlock()
	}
	clear(tx.keys) // a state kept for its next transaction pins no key
}

// HeldCount returns how many locks txID currently holds.
func (m *Manager) HeldCount(txID uint64) int {
	tx := m.lookup(txID)
	if tx == nil {
		return 0
	}
	tx.mu.Lock()
	defer tx.mu.Unlock()
	return len(tx.keys)
}

// Waits returns the number of requests that ever blocked.
func (m *Manager) Waits() uint64 { return m.waits.Load() }

// Deadlocks returns the number of deadlock victims.
func (m *Manager) Deadlocks() uint64 { return m.deadlocks.Load() }

// Timeouts returns the number of timed-out requests.
func (m *Manager) Timeouts() uint64 { return m.timeouts.Load() }

// Stripes returns the number of lock-table stripes.
func (m *Manager) Stripes() int { return len(m.stripes) }

// StripeCollisions returns how many stripe-mutex acquisitions found the
// stripe already locked — the striping contention signal: near zero means
// the stripe count is ample for the workload.
func (m *Manager) StripeCollisions() uint64 { return m.collisions.Load() }

// CheckIdle reports a transaction still registered or a key still in the
// lock table. It is meant for tests, once every transaction has released.
func (m *Manager) CheckIdle() error {
	for i := range m.txs {
		sh := &m.txs[i]
		sh.mu.Lock()
		n := len(sh.m)
		sh.mu.Unlock()
		if n != 0 {
			return fmt.Errorf("lock: %d transactions still registered in shard %d", n, i)
		}
	}
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.Lock()
		n := len(s.locks)
		s.mu.Unlock()
		if n != 0 {
			return fmt.Errorf("lock: %d keys still in stripe %d", n, i)
		}
	}
	return nil
}

// WaitEdge is one waits-for edge of the lock table: From is blocked on
// Key (requesting Mode) by To, which holds or is queued ahead with a
// conflicting mode.
type WaitEdge struct {
	From uint64 `json:"from"`
	To   uint64 `json:"to"`
	Key  string `json:"key"`
	Mode string `json:"mode"`
}

// WaitGraph is a point-in-time export of the waits-for relation, the
// structure cycle detection walks. Waiters counts transactions that were
// blocked when the graph was taken (an edgeless waiter is possible: its
// blocker can release between the waiter scan and the edge scan).
type WaitGraph struct {
	TakenAtNS int64      `json:"taken_at_ns"`
	Waiters   int        `json:"waiters"`
	Edges     []WaitEdge `json:"edges,omitempty"`
}

// WaitGraph captures the current waits-for graph for postmortem export
// (the flight recorder's bundles). It serializes against the blocking
// slow path via detectMu — the same discipline as cycle detection — so
// the edges it reports were simultaneously true. Fast-path grants and
// releases are unaffected.
func (m *Manager) WaitGraph() WaitGraph {
	m.detectMu.Lock()
	defer m.detectMu.Unlock()
	g := WaitGraph{TakenAtNS: time.Now().UnixNano()}
	for i := range m.txs {
		sh := &m.txs[i]
		sh.mu.Lock()
		txs := make([]*TxState, 0, len(sh.m))
		for _, tx := range sh.m {
			txs = append(txs, tx)
		}
		sh.mu.Unlock()
		for _, tx := range txs {
			w := tx.wait()
			if w.req == nil {
				continue
			}
			g.Waiters++
			for _, b := range m.blockersFor(nil, w) {
				g.Edges = append(g.Edges, WaitEdge{
					From: w.id, To: b.id, Key: w.key, Mode: w.mode.String(),
				})
			}
		}
	}
	sort.Slice(g.Edges, func(i, j int) bool {
		a, b := g.Edges[i], g.Edges[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		return a.To < b.To
	})
	return g
}

// grantWaiters grants queued requests from the front while possible, and
// removes the key's entry once nothing holds or waits on it. The caller
// holds s.mu.
func (m *Manager) grantWaiters(s *stripe, key string, ls *lockState) {
	for len(ls.queue) > 0 {
		req := ls.queue[0]
		if ls.conflict(req.tx, req.mode) {
			break
		}
		ls.unqueue(0)
		req.tx.mu.Lock()
		ls.grant(req.tx, key, req.mode)
		if req.tx.waiting == req {
			req.tx.waiting = nil
		}
		req.tx.mu.Unlock()
		req.ready <- nil
	}
	if len(ls.holders) == 0 && len(ls.queue) == 0 {
		delete(s.locks, key)
		if len(s.free) < freeListCap {
			s.free = append(s.free, ls)
		}
	}
}

// removeRequest unqueues req, reporting whether it was found; on success
// it also grants anything the removal unblocked. The caller holds s.mu.
func (m *Manager) removeRequest(s *stripe, ls *lockState, req *request) bool {
	for i, r := range ls.queue {
		if r == req {
			ls.unqueue(i)
			m.grantWaiters(s, req.key, ls)
			return true
		}
	}
	return false
}

// wait is a transaction's current wait as read under its mutex: its
// queued request (nil if none), and the id, key and mode it waits under.
// Once the mutex is released the owner may be granted and reuse the
// request for its next wait, so the walk reads the copies.
type wait struct {
	req  *request
	id   uint64
	key  string
	mode Mode
}

func (tx *TxState) wait() wait {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if w := tx.waiting; w != nil {
		return wait{w, tx.id, w.key, w.mode}
	}
	return wait{id: tx.id}
}

// blocker is a transaction found blocking a wait, with the id it had
// then, read under the key's stripe mutex.
type blocker struct {
	tx *TxState
	id uint64
}

// blockersFor appends to out the transactions w waits for: conflicting
// holders plus conflicting requests queued ahead of it. It briefly locks
// the key's stripe; the caller holds detectMu.
func (m *Manager) blockersFor(out []blocker, w wait) []blocker {
	s := m.stripeFor(w.key)
	m.lockStripe(s)
	defer s.mu.Unlock()
	ls := s.locks[w.key]
	if ls == nil {
		return out
	}
	self := w.req.tx
	for _, h := range ls.holders {
		if h.tx != self && (w.mode == Exclusive || h.mode == Exclusive) {
			out = append(out, blocker{h.tx, h.tx.id})
		}
	}
	for _, r := range ls.queue {
		if r == w.req {
			break
		}
		if r.tx != self && (w.mode == Exclusive || r.mode == Exclusive) {
			out = append(out, blocker{r.tx, r.tx.id})
		}
	}
	return out
}

// cycleFrom runs a DFS over the waits-for relation starting at start,
// returning true if start is reachable from itself. The caller holds
// detectMu; stripes and transactions are locked one at a time along the
// walk (see the package comment for why this is sound).
func (m *Manager) cycleFrom(start *TxState) bool {
	w := start.wait()
	if w.req == nil {
		return false
	}
	m.stack = m.blockersFor(m.stack[:0], w)
	return m.walk(start)
}

// walk pops the blockers on m.stack depth first, pushing each one's own
// blockers, and reports whether it reaches start. A state whose id no
// longer matches the one recorded beside it has released everything
// since and been begun again: it blocks no one, and its new
// transaction's edges are not followed (DESIGN.md §7.2). The scratch is
// cleared on the way out, so it pins no transaction between walks.
func (m *Manager) walk(start *TxState) bool {
	defer func() {
		clear(m.visited)
		clear(m.stack[:cap(m.stack)])
	}()
	for len(m.stack) > 0 {
		b := m.stack[len(m.stack)-1]
		m.stack = m.stack[:len(m.stack)-1]
		if b.tx == start {
			return true
		}
		if _, ok := m.visited[b.tx]; ok {
			continue
		}
		m.visited[b.tx] = struct{}{}
		if w := b.tx.wait(); w.req != nil && w.id == b.id {
			m.stack = m.blockersFor(m.stack, w)
		}
	}
	return false
}
