package lock

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newDetect() *Manager { return NewManager(Detect, 0) }

func TestSharedLocksCoexist(t *testing.T) {
	m := newDetect()
	m.Begin(1, 1)
	m.Begin(2, 2)
	if err := m.Acquire(1, "x", Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, "x", Shared); err != nil {
		t.Fatal(err)
	}
	if got := m.HeldCount(1); got != 1 {
		t.Fatalf("held(1) = %d", got)
	}
}

func TestExclusiveBlocksShared(t *testing.T) {
	m := newDetect()
	m.Begin(1, 1)
	m.Begin(2, 2)
	if err := m.Acquire(1, "x", Exclusive); err != nil {
		t.Fatal(err)
	}
	done := make(chan error)
	go func() { done <- m.Acquire(2, "x", Shared) }()
	select {
	case err := <-done:
		t.Fatalf("shared acquired despite X holder: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestReacquireIsNoop(t *testing.T) {
	m := newDetect()
	m.Begin(1, 1)
	for i := 0; i < 3; i++ {
		if err := m.Acquire(1, "x", Shared); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Acquire(1, "x", Exclusive); err != nil {
		t.Fatal(err)
	}
	// X then S: still a no-op, keeps X.
	if err := m.Acquire(1, "x", Shared); err != nil {
		t.Fatal(err)
	}
	if got := m.HeldCount(1); got != 1 {
		t.Fatalf("held = %d, want 1", got)
	}
}

func TestUpgradeSoleHolder(t *testing.T) {
	m := newDetect()
	m.Begin(1, 1)
	if err := m.Acquire(1, "x", Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(1, "x", Exclusive); err != nil {
		t.Fatal(err)
	}
}

func TestUpgradeWaitsForOtherReaders(t *testing.T) {
	m := newDetect()
	m.Begin(1, 1)
	m.Begin(2, 2)
	if err := m.Acquire(1, "x", Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, "x", Shared); err != nil {
		t.Fatal(err)
	}
	done := make(chan error)
	go func() { done <- m.Acquire(1, "x", Exclusive) }()
	select {
	case err := <-done:
		t.Fatalf("upgrade granted with another reader: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(2)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestUpgradePriorityOverQueuedWriter(t *testing.T) {
	m := newDetect()
	m.Begin(1, 1)
	m.Begin(2, 2)
	m.Begin(3, 3)
	if err := m.Acquire(1, "x", Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, "x", Shared); err != nil {
		t.Fatal(err)
	}
	// T3 queues for X.
	t3 := make(chan error)
	go func() { t3 <- m.Acquire(3, "x", Exclusive) }()
	time.Sleep(10 * time.Millisecond)
	// T1 requests upgrade: must be served before T3 once T2 releases.
	t1 := make(chan error)
	go func() { t1 <- m.Acquire(1, "x", Exclusive) }()
	time.Sleep(10 * time.Millisecond)
	m.ReleaseAll(2)
	select {
	case err := <-t1:
		if err != nil {
			t.Fatal(err)
		}
	case err := <-t3:
		t.Fatalf("queued writer served before upgrade: %v", err)
	case <-time.After(2 * time.Second):
		t.Fatal("nobody granted")
	}
	m.ReleaseAll(1)
	if err := <-t3; err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	m := newDetect()
	m.Begin(1, 1)
	m.Begin(2, 2)
	if err := m.Acquire(1, "a", Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, "b", Exclusive); err != nil {
		t.Fatal(err)
	}
	t1 := make(chan error)
	go func() { t1 <- m.Acquire(1, "b", Exclusive) }()
	time.Sleep(20 * time.Millisecond)
	// Closing the cycle: T2 must be chosen as victim immediately.
	err := m.Acquire(2, "a", Exclusive)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	m.ReleaseAll(2)
	if err := <-t1; err != nil {
		t.Fatal(err)
	}
	if m.Deadlocks() != 1 {
		t.Fatalf("Deadlocks = %d", m.Deadlocks())
	}
}

func TestUpgradeUpgradeDeadlock(t *testing.T) {
	m := newDetect()
	m.Begin(1, 1)
	m.Begin(2, 2)
	if err := m.Acquire(1, "x", Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, "x", Shared); err != nil {
		t.Fatal(err)
	}
	t1 := make(chan error)
	go func() { t1 <- m.Acquire(1, "x", Exclusive) }()
	time.Sleep(20 * time.Millisecond)
	err := m.Acquire(2, "x", Exclusive)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	m.ReleaseAll(2)
	if err := <-t1; err != nil {
		t.Fatal(err)
	}
}

func TestTimeoutPolicy(t *testing.T) {
	m := NewManager(TimeoutPolicy, 30*time.Millisecond)
	m.Begin(1, 1)
	m.Begin(2, 2)
	if err := m.Acquire(1, "x", Exclusive); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := m.Acquire(2, "x", Shared)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("timed out too early: %v", d)
	}
	if m.Timeouts() != 1 {
		t.Fatalf("Timeouts = %d", m.Timeouts())
	}
	// The lock remains usable.
	m.ReleaseAll(1)
	m.Begin(3, 3)
	if err := m.Acquire(3, "x", Exclusive); err != nil {
		t.Fatal(err)
	}
}

func TestFIFOFairnessWriterNotStarved(t *testing.T) {
	m := newDetect()
	m.Begin(1, 1)
	if err := m.Acquire(1, "x", Shared); err != nil {
		t.Fatal(err)
	}
	m.Begin(2, 2)
	writer := make(chan error)
	go func() { writer <- m.Acquire(2, "x", Exclusive) }()
	time.Sleep(10 * time.Millisecond)
	// A later reader must queue behind the writer, not jump it.
	m.Begin(3, 3)
	reader := make(chan error)
	go func() { reader <- m.Acquire(3, "x", Shared) }()
	select {
	case <-reader:
		t.Fatal("late reader jumped the queued writer")
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(1)
	if err := <-writer; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(2)
	if err := <-reader; err != nil {
		t.Fatal(err)
	}
}

func TestAcquireUnknownTx(t *testing.T) {
	m := newDetect()
	if err := m.Acquire(99, "x", Shared); !errors.Is(err, ErrUnknown) {
		t.Fatalf("err = %v, want ErrUnknown", err)
	}
}

func TestReleaseAllUnknownIsNoop(t *testing.T) {
	m := newDetect()
	m.ReleaseAll(42)
}

// Stress: random transactions acquire random locks under each policy;
// mutual exclusion is asserted via a per-key owner check, and the run must
// terminate (no undetected deadlock). The subtest names are fixed so that
// they do not move when the Policy constants are renumbered.
func TestStressMutualExclusion(t *testing.T) {
	for _, tc := range []struct {
		name string
		pol  Policy
	}{{"policy=0", Detect}, {"policy=2", TimeoutPolicy}} {
		pol := tc.pol
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			m := NewManager(pol, 20*time.Millisecond)
			const keys = 8
			const workers = 8
			const txPerWorker = 150

			var owners [keys]atomic.Int64
			var ids atomic.Uint64

			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < txPerWorker; i++ {
						id := ids.Add(1)
						m.Begin(id, id)
						locked := make(map[int]Mode)
						aborted := false
						n := 1 + rng.Intn(4)
						for j := 0; j < n; j++ {
							k := rng.Intn(keys)
							mode := Shared
							if rng.Intn(2) == 0 {
								mode = Exclusive
							}
							if err := m.Acquire(id, fmt.Sprintf("k%d", k), mode); err != nil {
								aborted = true
								break
							}
							if prev, ok := locked[k]; !ok || (prev == Shared && mode == Exclusive) {
								locked[k] = mode
							}
							if locked[k] == Exclusive {
								if !owners[k].CompareAndSwap(0, int64(id)) && owners[k].Load() != int64(id) {
									panic("exclusive lock not exclusive")
								}
							}
						}
						for k, mode := range locked {
							if mode == Exclusive && owners[k].Load() == int64(id) {
								owners[k].Store(0)
							}
						}
						m.ReleaseAll(id)
						_ = aborted
					}
				}(w)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("stress run did not terminate (possible undetected deadlock)")
			}
		})
	}
}

func TestUnknownTxHoldsNothing(t *testing.T) {
	m := newDetect()
	if m.HeldCount(123) != 0 {
		t.Fatal("unknown tx holds locks")
	}
}

func TestDuplicateBeginPanics(t *testing.T) {
	m := newDetect()
	m.Begin(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Begin(1, 2)
}

// Three-transaction deadlock cycle: detection must still fire.
func TestThreeWayDeadlock(t *testing.T) {
	m := newDetect()
	for id := uint64(1); id <= 3; id++ {
		m.Begin(id, id)
	}
	keys := []string{"a", "b", "c"}
	for i, id := range []uint64{1, 2, 3} {
		if err := m.Acquire(id, keys[i], Exclusive); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, 2)
	go func() { errs <- m.Acquire(1, "b", Exclusive) }()
	time.Sleep(10 * time.Millisecond)
	go func() { errs <- m.Acquire(2, "c", Exclusive) }()
	time.Sleep(10 * time.Millisecond)
	// T3 -> a closes the 3-cycle; T3 must be the victim.
	if err := m.Acquire(3, "a", Exclusive); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	m.ReleaseAll(3)
	// T3's release frees "c": T2's wait resolves first.
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	// T2 releasing frees "b": T1's wait resolves.
	m.ReleaseAll(2)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(1)
}

// parkLog records the block and wake hooks' calls in order.
type parkLog struct {
	mu     sync.Mutex
	events []string
	parked chan uint64
}

func watchParks(m *Manager) *parkLog {
	p := &parkLog{parked: make(chan uint64, 4)}
	m.SetBlockObserver(func(id uint64, _ string) {
		p.add(fmt.Sprintf("park %d", id))
		p.parked <- id
	}, func(id uint64) { p.add(fmt.Sprintf("wake %d", id)) })
	return p
}

func (p *parkLog) add(ev string) {
	p.mu.Lock()
	p.events = append(p.events, ev)
	p.mu.Unlock()
}

func (p *parkLog) String() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return fmt.Sprint(p.events)
}

// TestReleaseReportsTheWake: a parked request's wake is reported by the
// ReleaseAll that grants it, before ReleaseAll returns.
func TestReleaseReportsTheWake(t *testing.T) {
	m := newDetect()
	p := watchParks(m)
	m.Begin(1, 1)
	m.Begin(2, 2)
	if err := m.Acquire(1, "k", Exclusive); err != nil {
		t.Fatal(err)
	}
	granted := make(chan error, 1)
	go func() { granted <- m.Acquire(2, "k", Shared) }()
	<-p.parked
	m.ReleaseAll(1)
	if got := p.String(); got != "[park 2 wake 2]" {
		t.Fatalf("after ReleaseAll: %s, want [park 2 wake 2]", got)
	}
	if err := <-granted; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(2)
}

// TestVictimDoesNotPark: the request that closes a cycle is refused at
// once and reports no park; its abort wakes the transaction it blocked.
func TestVictimDoesNotPark(t *testing.T) {
	m := newDetect()
	p := watchParks(m)
	m.Begin(1, 1)
	m.Begin(2, 2)
	if err := m.Acquire(1, "a", Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, "b", Exclusive); err != nil {
		t.Fatal(err)
	}
	granted := make(chan error, 1)
	go func() { granted <- m.Acquire(1, "b", Exclusive) }()
	<-p.parked
	if err := m.Acquire(2, "a", Exclusive); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	m.ReleaseAll(2)
	if err := <-granted; err != nil {
		t.Fatal(err)
	}
	if got := p.String(); got != "[park 1 wake 1]" {
		t.Fatalf("events %s, want [park 1 wake 1]", got)
	}
	m.ReleaseAll(1)
}

// TestTimeoutWakesItself: a request that times out reports its own wake.
func TestTimeoutWakesItself(t *testing.T) {
	m := NewManager(TimeoutPolicy, time.Millisecond)
	p := watchParks(m)
	m.Begin(1, 1)
	m.Begin(2, 2)
	if err := m.Acquire(1, "k", Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, "k", Exclusive); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if got := p.String(); got != "[park 2 wake 2]" {
		t.Fatalf("events %s, want [park 2 wake 2]", got)
	}
	m.ReleaseAll(1)
	m.ReleaseAll(2)
}
