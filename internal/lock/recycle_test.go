package lock

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// checkTableEmpty asserts the lock table's memory discipline at rest:
// no key has an entry, no free list is over its cap, and a parked
// lockState has no holder or waiter and pins none through a vacated slot.
func checkTableEmpty(t *testing.T, m *Manager) {
	t.Helper()
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.Lock()
		if len(s.locks) != 0 {
			t.Errorf("stripe %d leaked %d lock states", i, len(s.locks))
		}
		if len(s.free) > freeListCap {
			t.Errorf("stripe %d parks %d lock states, cap %d", i, len(s.free), freeListCap)
		}
		for _, ls := range s.free {
			if len(ls.holders) != 0 || len(ls.queue) != 0 {
				t.Errorf("stripe %d parks a lockState with %d holders, %d waiters", i, len(ls.holders), len(ls.queue))
			}
			for _, h := range ls.holders[:cap(ls.holders)] {
				if h.tx != nil {
					t.Errorf("stripe %d: parked lockState pins tx %d in a holder slot", i, h.tx.id)
				}
			}
			for _, r := range ls.queue[:cap(ls.queue)] {
				if r != nil {
					t.Errorf("stripe %d: parked lockState pins a request of tx %d", i, r.tx.id)
				}
			}
		}
		s.mu.Unlock()
	}
}

// TestSteadyStateAllocations: with the caller owning its TxState, a
// transaction's lock traffic allocates nothing — not for a new key, not
// for an S→X upgrade, not for the release. Each run takes a fresh state,
// as the engine does.
func TestSteadyStateAllocations(t *testing.T) {
	m := NewManager(Detect, 0)
	const runs = 200
	states := make([]TxState, runs+1) // AllocsPerRun adds a warm-up run
	id := uint64(0)
	if n := testing.AllocsPerRun(runs, func() {
		id++
		m.BeginState(&states[id-1], id)
		for _, step := range []struct {
			key  string
			mode Mode
		}{{"a", Shared}, {"a", Exclusive}, {"b", Exclusive}} {
			if err := m.Acquire(id, step.key, step.mode); err != nil {
				t.Fatal(err)
			}
		}
		if got := m.HeldCount(id); got != 2 {
			t.Fatalf("HeldCount = %d after S, upgrade, second key; want 2", got)
		}
		m.ReleaseAll(id)
	}); n != 0 {
		t.Fatalf("BeginState + S + upgrade + second key + ReleaseAll allocates %v times, want 0", n)
	}
	checkTableEmpty(t, m)
	if err := m.CheckIdle(); err != nil {
		t.Fatal(err)
	}
}

// TestLockTableHygiene churns many transactions over far more distinct
// keys than there are stripes — so lockStates are made, parked, reused
// and dropped past the cap — with a few shared keys for waits and
// victims, and then holds the table to checkTableEmpty. Under the
// timeout policy the millisecond bound fires on deadlocked and merely
// slow waits alike, so timers race grants (await, cancelRequest).
func TestLockTableHygiene(t *testing.T) {
	for _, c := range []struct {
		name    string
		policy  Policy
		victims func(*Manager) uint64
	}{
		{"detect", Detect, (*Manager).Deadlocks},
		{"timeout", TimeoutPolicy, (*Manager).Timeouts},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := NewManagerStriped(c.policy, 2*time.Millisecond, 4)
			const (
				workers = 4
				rounds  = 300
				keys    = 1024 // 256 a stripe, eight times what it parks
				perTx   = 160  // 40 a stripe: one release overflows the free list
			)
			var ids atomic.Uint64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					rng := seed*2654435761 + 1
					for r := 0; r < rounds; r++ {
						id := ids.Add(1)
						m.Begin(id, id)
						ok := true
						for i := 0; i < perTx && ok; i++ {
							rng = rng*6364136223846793005 + 1442695040888963407
							ok = m.Acquire(id, fmt.Sprintf("u%d", rng>>33%keys), Exclusive) == nil
						}
						for i := 0; i < 2 && ok; i++ {
							rng = rng*6364136223846793005 + 1442695040888963407
							k := fmt.Sprintf("hot%d", rng>>33%3)
							ok = m.Acquire(id, k, Shared) == nil && m.Acquire(id, k, Exclusive) == nil
						}
						m.ReleaseAll(id)
					}
				}(uint64(w + 1))
			}
			wg.Wait()
			t.Logf("%d victims", c.victims(m))
			if c.victims(m) == 0 {
				t.Errorf("no %s victim in %d transactions", c.name, workers*rounds)
			}
			checkTableEmpty(t, m)
			parked := 0
			for i := range m.stripes {
				parked += len(m.stripes[i].free)
			}
			if parked == 0 {
				t.Error("no lockState was parked for reuse")
			}
		})
	}
}

// TestRecycledLockStateGrantsImmediately: a lockState that served a
// holder and a waiter on one key carries neither over to the next key
// that takes it from the free list — whether the waiter was granted the
// key when the holder released it or, under the timeout policy, gave up
// first.
func TestRecycledLockStateGrantsImmediately(t *testing.T) {
	for _, c := range []struct {
		name   string
		policy Policy
		want   error // the waiter's verdict
	}{
		{"granted", Detect, nil},
		{"timeout", TimeoutPolicy, ErrTimeout},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := NewManagerStriped(c.policy, time.Millisecond, 1)
			s := &m.stripes[0]
			m.Begin(1, 1)
			m.Begin(2, 2)
			if err := m.Acquire(1, "a", Exclusive); err != nil {
				t.Fatal(err)
			}
			blocked := make(chan struct{})
			m.SetBlockObserver(func(uint64, string) { close(blocked) })
			waited := make(chan error, 1)
			go func() { waited <- m.Acquire(2, "a", Shared) }()
			<-blocked
			if c.want != nil {
				if err := <-waited; !errors.Is(err, c.want) {
					t.Fatalf("waiter: err = %v, want %v", err, c.want)
				}
				if n := m.Timeouts(); n != 1 {
					t.Fatalf("%d timeout victims, want 1", n)
				}
			}
			m.ReleaseAll(1)
			if c.want == nil {
				if err := <-waited; err != nil {
					t.Fatal(err)
				}
			}
			m.ReleaseAll(2)
			s.mu.Lock()
			parked := len(s.free)
			s.mu.Unlock()
			if parked != 1 {
				t.Fatalf("%d lockStates parked after the key emptied, want 1", parked)
			}

			m.Begin(3, 3)
			granted := make(chan error, 1)
			go func() { granted <- m.Acquire(3, "b", Exclusive) }()
			select {
			case err := <-granted:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("a recycled lockState did not grant its next key at once")
			}
			s.mu.Lock()
			if len(s.free) != 0 || len(s.locks) != 1 {
				t.Errorf("free list %d, table %d while b is held; want the parked lockState in use", len(s.free), len(s.locks))
			}
			s.mu.Unlock()
			m.ReleaseAll(3)
			checkTableEmpty(t, m)
		})
	}
}

// TestDetectWaitAllocatesNothing: once a TxState has waited once, a wait
// allocates nothing — neither the request and its channel, which live in
// the state, nor a detection pass, whose visited set and stack are the
// manager's. Each run blocks one transaction behind another's exclusive
// lock, runs a detection pass over the wait (the waiter's own may find it
// already granted) and grants it; the waiter's state is begun again for
// the next run, as Update's are. The scratch pins no state between walks.
func TestDetectWaitAllocatesNothing(t *testing.T) {
	m := NewManager(Detect, 0)
	var holder, waiter TxState
	blocked := make(chan struct{})
	m.SetBlockObserver(func(uint64, string) { blocked <- struct{}{} })
	ids := make(chan uint64)
	defer close(ids)
	verdicts := make(chan error)
	go func() {
		for id := range ids {
			verdicts <- m.Acquire(id, "k", Exclusive)
		}
	}()
	id := uint64(0)
	const runs = 200
	if n := testing.AllocsPerRun(runs, func() {
		h, w := id+1, id+2
		id += 2
		m.BeginState(&holder, h)
		m.BeginState(&waiter, w)
		if err := m.Acquire(h, "k", Exclusive); err != nil {
			t.Fatal(err)
		}
		ids <- w
		<-blocked
		m.detectMu.Lock()
		if m.cycleFrom(&waiter) {
			t.Fatal("a wait behind a holder that waits for nothing read as a cycle")
		}
		m.detectMu.Unlock()
		m.ReleaseAll(h)
		if err := <-verdicts; err != nil {
			t.Fatal(err)
		}
		m.ReleaseAll(w)
	}); n != 0 {
		t.Fatalf("a blocked, detected and granted Acquire allocates %v times, want 0", n)
	}
	if got := m.Waits(); got != runs+1 {
		t.Fatalf("%d waits in %d runs", got, runs+1)
	}
	m.detectMu.Lock()
	if len(m.visited) != 0 {
		t.Errorf("the visited set holds %d states between walks", len(m.visited))
	}
	for _, b := range m.stack[:cap(m.stack)] {
		if b.tx != nil {
			t.Errorf("the walk's stack pins transaction %d between walks", b.id)
		}
	}
	m.detectMu.Unlock()
	checkTableEmpty(t, m)
	if err := m.CheckIdle(); err != nil {
		t.Fatal(err)
	}
}

// TestWalkSkipsAReincarnatedState: a walk that recorded a state as a
// blocker under one transaction's id, and reaches it once the state was
// released and begun again for another, does not follow the new
// transaction's wait — here a wait on the walk's own start, which would
// read as a cycle — and still finds a real two-transaction cycle beside
// it. The stale record is put on the walk's stack by hand: it is what a
// walk holds when the state is recycled between two of its steps.
func TestWalkSkipsAReincarnatedState(t *testing.T) {
	m := NewManager(Detect, 0)
	var start, b, recycled TxState
	blocked := make(chan uint64, 1)
	m.SetBlockObserver(func(id uint64, _ string) { blocked <- id })
	wait := func(id uint64, key string) <-chan error {
		c := make(chan error, 1)
		go func() { c <- m.Acquire(id, key, Exclusive) }()
		if got := <-blocked; got != id {
			t.Fatalf("transaction %d blocked, want %d", got, id)
		}
		return c
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	m.BeginState(&recycled, 1)
	must(m.Acquire(1, "x", Exclusive))
	m.ReleaseAll(1)
	m.BeginState(&recycled, 3) // the same state, now transaction 3's
	m.BeginState(&start, 10)
	m.BeginState(&b, 20)
	must(m.Acquire(10, "y", Exclusive))
	must(m.Acquire(20, "x", Exclusive))
	startDone := wait(10, "x") // 10 waits for 20, which waits for nothing
	threeDone := wait(3, "y")  // 3 waits for 10: no cycle

	m.detectMu.Lock()
	m.stack = append(m.stack[:0], blocker{&recycled, 1})
	if m.walk(&start) {
		t.Error("the walk followed transaction 3's wait through a state it recorded for transaction 1")
	}
	// 20 now waits for 10 (and for 3, queued ahead of it on y), and 10
	// for 20. Its own detection pass waits for detectMu, held here.
	bDone := make(chan error, 1)
	go func() { bDone <- m.Acquire(20, "y", Exclusive) }()
	if got := <-blocked; got != 20 {
		t.Fatalf("transaction %d blocked, want 20", got)
	}
	m.stack = append(m.stack[:0], blocker{&recycled, 1}, blocker{&b, 20})
	if !m.walk(&start) {
		t.Error("the walk missed the cycle 10 → 20 → 10 beside a stale record")
	}
	m.detectMu.Unlock()

	if err := <-bDone; !errors.Is(err, ErrDeadlock) {
		t.Fatalf("transaction 20 closing the cycle: err = %v, want ErrDeadlock", err)
	}
	m.ReleaseAll(20)
	must(<-startDone)
	m.ReleaseAll(10)
	must(<-threeDone)
	m.ReleaseAll(3)
	checkTableEmpty(t, m)
	if err := m.CheckIdle(); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseAllOfAWaiter reaches ReleaseAll's defensive path: a
// transaction released from another goroutine while it waits gets
// ErrUnknown. Its state, begun again, then waits afresh: a verdict left
// on the request's channel — as the defensive send's would be if no wait
// took it — is drained, not taken for the next wait's.
func TestReleaseAllOfAWaiter(t *testing.T) {
	m := NewManager(Detect, 0)
	var s TxState
	blocked := make(chan struct{}, 1)
	m.SetBlockObserver(func(uint64, string) { blocked <- struct{}{} })
	m.Begin(1, 1)
	if err := m.Acquire(1, "k", Exclusive); err != nil {
		t.Fatal(err)
	}
	m.BeginState(&s, 2)
	waited := make(chan error, 1)
	go func() { waited <- m.Acquire(2, "k", Exclusive) }()
	<-blocked
	m.ReleaseAll(2)
	if err := <-waited; !errors.Is(err, ErrUnknown) {
		t.Fatalf("a waiter released from outside: err = %v, want ErrUnknown", err)
	}
	if n := len(s.req.ready); n != 0 {
		t.Fatalf("%d verdicts left on the request after its wait", n)
	}

	s.req.ready <- ErrUnknown
	m.BeginState(&s, 3)
	go func() { waited <- m.Acquire(3, "k", Exclusive) }()
	<-blocked
	select {
	case err := <-waited:
		t.Fatalf("the next wait ended (%v) while k was still held", err)
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(1)
	if err := <-waited; err != nil {
		t.Fatalf("the next wait: err = %v, want the grant", err)
	}
	m.ReleaseAll(3)
	checkTableEmpty(t, m)
	if err := m.CheckIdle(); err != nil {
		t.Fatal(err)
	}
}
