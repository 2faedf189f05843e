package lock

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStripeCountRounding pins the stripe-count contract: defaults,
// power-of-two rounding, and the single-stripe compatibility mode.
func TestStripeCountRounding(t *testing.T) {
	cases := []struct{ ask, want int }{
		{0, DefaultStripes}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {32, 32}, {33, 64},
	}
	for _, c := range cases {
		if got := NewManagerStriped(Detect, 0, c.ask).Stripes(); got != c.want {
			t.Errorf("NewManagerStriped(stripes=%d).Stripes() = %d, want %d", c.ask, got, c.want)
		}
	}
}

// TestSlowWaitObserver verifies the satellite fix contract: the wait
// observer runs outside every manager mutex, so an arbitrarily slow
// observer cannot stall lock traffic on unrelated keys — or even on the
// same key.
func TestSlowWaitObserver(t *testing.T) {
	m := NewManager(Detect, 0)
	release := make(chan struct{})
	var observed atomic.Int32
	m.SetWaitObserver(func(txID uint64, wait time.Duration) {
		if txID != 2 || wait <= 0 {
			t.Errorf("wait observed as (tx %d, %v), want tx 2 and a positive wait", txID, wait)
		}
		observed.Add(1)
		<-release // hold the observer hostage
	})
	defer close(release)

	// tx1 holds k; tx2 blocks on k; releasing k ends tx2's wait and
	// parks tx2's goroutine inside the slow observer.
	m.Begin(1, 1)
	m.Begin(2, 2)
	if err := m.Acquire(1, "k", Exclusive); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() {
		blocked <- m.Acquire(2, "k", Exclusive)
	}()
	for m.Waits() == 0 {
		time.Sleep(time.Millisecond)
	}
	m.ReleaseAll(1)
	for observed.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	// With tx2's goroutine captive in the observer (and tx2 now holding
	// k), every lock operation on other keys — including keys hashing
	// to any stripe — must still complete promptly: the observer runs
	// with no manager mutex held.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := uint64(10); i < 30; i++ {
			m.Begin(i, i)
			for _, key := range []string{"k2", "other", fmt.Sprintf("u%d", i)} {
				if err := m.Acquire(i, key, Exclusive); err != nil {
					t.Errorf("Acquire(%d, %s): %v", i, key, err)
					return
				}
			}
			m.ReleaseAll(i)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("lock traffic stalled behind a slow wait observer")
	}

	// Unblock the captive observer and collect tx2.
	release <- struct{}{}
	if err := <-blocked; err != nil {
		t.Fatalf("tx2 Acquire after release: %v", err)
	}
	m.ReleaseAll(2)
}

// TestSlowBlockObserver gives the block observer the same guarantee.
func TestSlowBlockObserver(t *testing.T) {
	m := NewManager(Detect, 0)
	release := make(chan struct{})
	defer close(release)
	var fired atomic.Int32
	m.SetBlockObserver(func(txID uint64, key string) {
		fired.Add(1)
		<-release
	}, nil)

	m.Begin(1, 1)
	m.Begin(2, 2)
	if err := m.Acquire(1, "k", Exclusive); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() { blocked <- m.Acquire(2, "k", Exclusive) }()
	for fired.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Begin(3, 3)
		if err := m.Acquire(3, "elsewhere", Exclusive); err != nil {
			t.Errorf("Acquire: %v", err)
		}
		m.ReleaseAll(3)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("lock traffic stalled behind a slow block observer")
	}

	release <- struct{}{}
	m.ReleaseAll(1)
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(2)
}

// TestStripedStress hammers the striped manager from many goroutines with
// a deliberately adversarial mix — every transaction touches one global
// hot key, which it now and then holds past the timeout, plus a handful
// of uniformly distributed keys — under both deadlock policies. Run under -race (tier-1) this is the data-race net
// for the striped fast path, the cross-stripe release path, and the
// detector slow path at once. Mutual exclusion is checked with a plain
// counter guarded only by the hot key's exclusive lock, which must end
// exactly at the number of commits.
func TestStripedStress(t *testing.T) {
	for _, c := range []struct {
		name    string
		policy  Policy
		victims func(*Manager) uint64
	}{
		{"detect", Detect, (*Manager).Deadlocks},
		{"timeout", TimeoutPolicy, (*Manager).Timeouts},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := NewManagerStriped(c.policy, time.Millisecond, 8)
			const (
				workers = 8
				rounds  = 200
				keys    = 64
			)
			var inHot atomic.Int32
			var hotCount int64 // guarded by the hot key's X lock alone
			var commits atomic.Int64
			var ids atomic.Uint64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed int) {
					defer wg.Done()
					rng := uint64(seed)*2654435761 + 1
					for r := 0; r < rounds; r++ {
						id := ids.Add(1)
						m.Begin(id, id)
						ok := true
						// A few uniform keys first, then the hot key —
						// cross-stripe waits-for edges guaranteed.
						for i := 0; i < 3 && ok; i++ {
							rng = rng*6364136223846793005 + 1442695040888963407
							k := fmt.Sprintf("u%d", rng%keys)
							mode := Shared
							if rng&1 == 0 {
								mode = Exclusive
							}
							if err := m.Acquire(id, k, mode); err != nil {
								ok = false
							}
						}
						if ok && m.Acquire(id, "hot", Exclusive) == nil {
							if inHot.Add(1) != 1 {
								t.Error("mutual exclusion violated on hot key")
							}
							hotCount++
							if r%50 == 0 {
								// Outlast the timeout now and then, so
								// the hot key's waiters become victims.
								time.Sleep(2 * time.Millisecond)
							}
							inHot.Add(-1)
							commits.Add(1)
						}
						m.ReleaseAll(id)
					}
				}(w)
			}
			wg.Wait()
			if commits.Load() == 0 {
				t.Fatal("no transaction ever acquired the hot key")
			}
			t.Logf("%d victims, %d commits", c.victims(m), commits.Load())
			if c.policy == TimeoutPolicy && c.victims(m) == 0 {
				t.Error("no timeout victim")
			}
			if hotCount != commits.Load() {
				t.Errorf("counter under the hot lock = %d after %d commits", hotCount, commits.Load())
			}
			// The table must be empty: every key's lockState is deleted,
			// and parked clean, once nothing holds or waits on it.
			checkTableEmpty(t, m)
		})
	}
}

// TestStripeCollisionsCounted checks the contention counter stays still
// while one goroutine works alone and moves when another goroutine holds
// the stripe. The collision is forced by holding the stripe mutex from
// the test, not hoped for from a race, so the check never depends on
// scheduling.
func TestStripeCollisionsCounted(t *testing.T) {
	m := NewManagerStriped(Detect, 0, 1) // one stripe: all keys collide
	if m.StripeCollisions() != 0 {
		t.Fatalf("fresh manager reports %d collisions", m.StripeCollisions())
	}
	for id := uint64(1); id <= 100; id++ {
		m.Begin(id, id)
		if err := m.Acquire(id, fmt.Sprintf("k%d", id%16), Shared); err != nil {
			t.Fatalf("uncontended acquire: %v", err)
		}
		m.ReleaseAll(id)
	}
	if c := m.StripeCollisions(); c != 0 {
		t.Fatalf("uncontended work reports %d collisions", c)
	}

	s := &m.stripes[0]
	s.mu.Lock()
	m.Begin(1000, 1000)
	done := make(chan error, 1)
	go func() { done <- m.Acquire(1000, "k", Exclusive) }()
	deadline := time.Now().Add(5 * time.Second)
	for m.StripeCollisions() == 0 {
		if time.Now().After(deadline) {
			s.mu.Unlock()
			t.Fatal("acquire on a held stripe was not counted as a collision")
		}
		time.Sleep(time.Millisecond)
	}
	s.mu.Unlock()
	if err := <-done; err != nil {
		t.Fatalf("acquire after the stripe was released: %v", err)
	}
	m.ReleaseAll(1000)
	if c := m.StripeCollisions(); c != 1 {
		t.Fatalf("one held-stripe acquire reports %d collisions, want 1", c)
	}
	checkTableEmpty(t, m)
}
