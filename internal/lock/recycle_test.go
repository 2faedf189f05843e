package lock

import (
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
		m.BeginState(&states[id-1], id, id)
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
// and dropped past the cap — with a few shared keys for waits, wounds and
// deadlock victims, and then holds the table to checkTableEmpty.
func TestLockTableHygiene(t *testing.T) {
	for name, policy := range map[string]Policy{"detect": Detect, "woundwait": WoundWait} {
		t.Run(name, func(t *testing.T) {
			m := NewManagerStriped(policy, 0, 4)
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
// that takes it from the free list.
func TestRecycledLockStateGrantsImmediately(t *testing.T) {
	m := NewManagerStriped(Detect, 0, 1)
	s := &m.stripes[0]
	m.Begin(1, 1)
	m.Begin(2, 2)
	if err := m.Acquire(1, "a", Exclusive); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan struct{})
	m.SetBlockObserver(func(uint64, string) { close(blocked) })
	granted := make(chan error, 1)
	go func() { granted <- m.Acquire(2, "a", Shared) }()
	<-blocked
	m.ReleaseAll(1)
	if err := <-granted; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(2)
	s.mu.Lock()
	parked := len(s.free)
	s.mu.Unlock()
	if parked != 1 {
		t.Fatalf("%d lockStates parked after the key emptied, want 1", parked)
	}

	m.Begin(3, 3)
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
}
