package vc

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestStartInitial(t *testing.T) {
	c := New(0)
	if got := c.Start(); got != 0 {
		t.Fatalf("Start() = %d, want 0", got)
	}
	if got := c.TNC(); got != 1 {
		t.Fatalf("TNC() = %d, want 1", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterAssignsSequentialNumbers(t *testing.T) {
	c := New(0)
	for want := uint64(1); want <= 10; want++ {
		e := c.Register()
		if e.TN() != want {
			t.Fatalf("Register() tn = %d, want %d", e.TN(), want)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCompleteInOrderAdvancesVTNC(t *testing.T) {
	c := New(0)
	e1, e2, e3 := c.Register(), c.Register(), c.Register()
	c.Complete(e1)
	if got := c.VTNC(); got != 1 {
		t.Fatalf("after complete(1): vtnc = %d, want 1", got)
	}
	c.Complete(e2)
	c.Complete(e3)
	if got := c.VTNC(); got != 3 {
		t.Fatalf("after complete(1,2,3): vtnc = %d, want 3", got)
	}
	if got := c.QueueLen(); got != 0 {
		t.Fatalf("queue len = %d, want 0", got)
	}
}

// The heart of the Transaction Visibility Property: a younger transaction
// completing before an older one must not become visible until the older
// one resolves (paper Section 4.1).
func TestOutOfOrderCompletionDelaysVisibility(t *testing.T) {
	c := New(0)
	e1, e2 := c.Register(), c.Register()

	c.Complete(e2)
	if got := c.VTNC(); got != 0 {
		t.Fatalf("vtnc = %d after completing only younger txn, want 0", got)
	}
	if got := c.Start(); got != 0 {
		t.Fatalf("Start() = %d, want 0: T2's updates must stay invisible", got)
	}

	c.Complete(e1)
	if got := c.VTNC(); got != 2 {
		t.Fatalf("vtnc = %d, want 2 after both completed", got)
	}
}

func TestDiscardUnblocksVisibility(t *testing.T) {
	c := New(0)
	e1, e2, e3 := c.Register(), c.Register(), c.Register()
	c.Complete(e2)
	c.Complete(e3)
	if got := c.VTNC(); got != 0 {
		t.Fatalf("vtnc = %d, want 0 while T1 active", got)
	}
	c.Discard(e1) // T1 aborts: visibility may skip its number
	if got := c.VTNC(); got != 3 {
		t.Fatalf("vtnc = %d, want 3 after head discard", got)
	}
}

func TestDiscardMiddleLeavesVisibilityAlone(t *testing.T) {
	c := New(0)
	e1, e2, e3 := c.Register(), c.Register(), c.Register()
	c.Discard(e2)
	if got := c.VTNC(); got != 0 {
		t.Fatalf("vtnc = %d, want 0", got)
	}
	c.Complete(e1)
	// Gap rule: position 2 was discarded and can never be reassigned, so
	// visibility advances through it up to the next active entry.
	if got := c.VTNC(); got != 2 {
		t.Fatalf("vtnc = %d, want 2", got)
	}
	c.Complete(e3)
	if got := c.VTNC(); got != 3 {
		t.Fatalf("vtnc = %d, want 3", got)
	}
}

func TestVTNCSkipsDiscardedNumbers(t *testing.T) {
	c := New(0)
	e1 := c.Register()
	e2 := c.Register()
	e3 := c.Register()
	c.Complete(e1)
	c.Discard(e2)
	c.Complete(e3)
	// 2 was never a committed transaction; vtnc=3 asserts "all tn<=3
	// completed", which is vacuously true for the discarded 2.
	if got := c.VTNC(); got != 3 {
		t.Fatalf("vtnc = %d, want 3", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReserve(t *testing.T) {
	c := New(5)
	if got := c.Reserve(); got != 6 {
		t.Fatalf("Reserve() = %d, want 6", got)
	}
	if e := c.Register(); e.TN() != 6 {
		t.Fatalf("Register() after Reserve = %d, want 6", e.TN())
	}
}

// TestLag: the positions assigned but not yet visible, tnc-1-vtnc (the
// engine's VisibilityLag), count every number an older open entry holds
// back.
func TestLag(t *testing.T) {
	c := New(0)
	lag := func() uint64 { return c.TNC() - 1 - c.VTNC() }
	if got := lag(); got != 0 {
		t.Fatalf("lag = %d, want 0", got)
	}
	e1 := c.Register()
	e2 := c.Register()
	c.Complete(e2)
	if got := lag(); got != 2 {
		t.Fatalf("lag = %d, want 2 (positions 1,2 invisible)", got)
	}
	c.Complete(e1)
	if got := lag(); got != 0 {
		t.Fatalf("lag = %d, want 0", got)
	}
}

func TestResolveTwicePanics(t *testing.T) {
	c := New(0)
	e := c.Register()
	c.Complete(e)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double resolve")
		}
	}()
	c.Discard(e)
}

// TestResolutionsLeaveTheQueue: an entry stays in VCQueue until it
// resolves at the head, and a discard leaves at once.
func TestResolutionsLeaveTheQueue(t *testing.T) {
	c := New(0)
	e1, e2, e3 := c.Register(), c.Register(), c.Register()
	if got := c.QueueLen(); got != 3 {
		t.Fatalf("QueueLen = %d after three registrations, want 3", got)
	}
	c.Complete(e2) // behind the open e1: stays queued
	if got := c.QueueLen(); got != 3 {
		t.Fatalf("QueueLen = %d after a completion behind the head, want 3", got)
	}
	c.Discard(e3)
	if got := c.QueueLen(); got != 2 {
		t.Fatalf("QueueLen = %d after a discard, want 2", got)
	}
	c.Complete(e1) // drains e1 and e2
	if got := c.QueueLen(); got != 0 {
		t.Fatalf("QueueLen = %d after the head completed, want 0", got)
	}
}

// Property: under any interleaving of register/complete/discard, the two
// paper properties hold: vtnc is the largest fully-completed prefix
// position, and vtnc < tnc.
func TestPropertyRandomSchedules(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(0)
		type st struct {
			e        *Entry
			resolved bool
			aborted  bool
		}
		var txns []*st
		resolvedState := make(map[uint64]bool) // tn -> committed?

		for step := 0; step < 200; step++ {
			switch rng.Intn(3) {
			case 0:
				txns = append(txns, &st{e: c.Register()})
			default:
				// resolve a random unresolved txn
				var open []*st
				for _, s := range txns {
					if !s.resolved {
						open = append(open, s)
					}
				}
				if len(open) == 0 {
					continue
				}
				s := open[rng.Intn(len(open))]
				s.resolved = true
				if rng.Intn(4) == 0 {
					s.aborted = true
					c.Discard(s.e)
					resolvedState[s.e.TN()] = false
				} else {
					c.Complete(s.e)
					resolvedState[s.e.TN()] = true
				}
			}
			if err := c.CheckInvariants(); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			// Model check: expected vtnc = largest n such that every
			// tn in [1, n] is resolved (committed or aborted) and at
			// least... per Figure 1 vtnc is set to the tn of completed
			// head entries only; aborted entries are skipped over.
			expected := uint64(0)
			for n := uint64(1); ; n++ {
				done, assigned := resolvedState[n]
				_ = done
				if !assigned {
					// n unassigned or unresolved
					inUse := false
					for _, s := range txns {
						if s.e.TN() == n && !s.resolved {
							inUse = true
						}
					}
					if inUse {
						break
					}
					if n >= c.TNC() {
						break
					}
					// assigned+resolved map miss cannot happen; defensive
					break
				}
				expected = n
			}
			// expected counts a maximal resolved prefix, but Figure 1 only
			// advances vtnc onto *completed* entries; if the prefix ends in
			// aborted entries, vtnc may lag behind `expected`. Accept
			// vtnc <= expected, and require vtnc >= last committed tn in
			// the prefix.
			lastCommitted := uint64(0)
			for n := uint64(1); n <= expected; n++ {
				if resolvedState[n] {
					lastCommitted = n
				}
			}
			got := c.VTNC()
			if got > expected || got < lastCommitted {
				t.Logf("seed %d step %d: vtnc=%d, want in [%d,%d]", seed, step, got, lastCommitted, expected)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: visibility never regresses and never exposes an incomplete
// transaction, even under heavy concurrency.
func TestConcurrentRegisterComplete(t *testing.T) {
	c := New(0)
	const workers = 8
	const perWorker = 500

	// completedUpTo[tn] set before Complete(tn) is invoked.
	var mu sync.Mutex
	completed := make(map[uint64]bool)
	var maxCommitted uint64

	var workersWG, obsWG sync.WaitGroup
	stop := make(chan struct{})
	// Observer: every Start() snapshot must only cover completed txns.
	obsWG.Add(1)
	go func() {
		defer obsWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			sn := c.Start()
			mu.Lock()
			for n := uint64(1); n <= sn; n++ {
				if !completed[n] {
					mu.Unlock()
					panic("visibility property violated")
				}
			}
			mu.Unlock()
		}
	}()

	for w := 0; w < workers; w++ {
		workersWG.Add(1)
		go func(w int) {
			defer workersWG.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				e := c.Register()
				if rng.Intn(8) == 0 {
					mu.Lock()
					completed[e.TN()] = true // discarded: vacuously complete
					mu.Unlock()
					c.Discard(e)
					continue
				}
				// simulate some work
				if rng.Intn(4) == 0 {
					time.Sleep(time.Microsecond)
				}
				mu.Lock()
				completed[e.TN()] = true
				if e.TN() > maxCommitted {
					maxCommitted = e.TN()
				}
				mu.Unlock()
				c.Complete(e)
			}
		}(w)
	}
	workersWG.Wait()
	close(stop)
	obsWG.Wait()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := c.QueueLen(); got != 0 {
		t.Fatalf("final queue len = %d, want 0", got)
	}
	if got := c.VTNC(); got < maxCommitted || got > uint64(workers*perWorker) {
		t.Fatalf("final vtnc = %d, want in [%d,%d]", got, maxCommitted, workers*perWorker)
	}
}

func TestStartIsMonotone(t *testing.T) {
	c := New(0)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := uint64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			sn := c.Start()
			if sn < last {
				panic("Start regressed")
			}
			last = sn
		}
	}()
	for i := 0; i < 2000; i++ {
		e := c.Register()
		c.Complete(e)
	}
	close(stop)
	wg.Wait()
}

func TestStridedRegister(t *testing.T) {
	c := NewStrided(0, 2, 4)
	if got := c.TNC(); got != 2 {
		t.Fatalf("initial tnc = %d, want 2", got)
	}
	e1, e2 := c.Register(), c.Register()
	if e1.TN() != 2 || e2.TN() != 6 {
		t.Fatalf("tns = %d,%d, want 2,6", e1.TN(), e2.TN())
	}
	c.Complete(e1)
	// Gap rule: stride gaps (3..5) are unassignable, so vtnc runs up to
	// just below the still-active e2.
	if got := c.VTNC(); got != 5 {
		t.Fatalf("vtnc = %d, want 5", got)
	}
	c.Complete(e2)
	// Queue empty: vtnc = tnc-1 (tnc is 10 after e2's stride bump).
	if got := c.VTNC(); got != 9 {
		t.Fatalf("vtnc = %d, want 9", got)
	}
}

func TestStridedOffsetZero(t *testing.T) {
	c := NewStrided(0, 0, 4)
	if e := c.Register(); e.TN() != 4 {
		t.Fatalf("tn = %d, want 4 (first aligned value past 0)", e.TN())
	}
}

func TestRegisterExact(t *testing.T) {
	c := NewStrided(0, 1, 3) // local numbers 1, 4, 7, ...
	e1 := c.Register()       // 1
	adopted := new(Entry)
	if err := c.RegisterExact(adopted, 5); err != nil {
		t.Fatal(err)
	}
	if adopted.TN() != 5 {
		t.Fatalf("adopted tn = %d, want 5", adopted.TN())
	}
	// Local assignment resumes at the next residue-1 value past 5.
	e2 := c.Register()
	if e2.TN() != 7 {
		t.Fatalf("post-adopt tn = %d, want 7", e2.TN())
	}
	// Stale decisions are rejected.
	if err := c.RegisterExact(new(Entry), 3); err == nil {
		t.Fatal("RegisterExact(3) accepted behind tnc")
	}
	c.Complete(e1)
	c.Complete(adopted)
	c.Complete(e2)
	// Queue empty: vtnc = tnc-1 = 9 (gap rule; tnc realigned to 10).
	if got := c.VTNC(); got != 9 {
		t.Fatalf("vtnc = %d, want 9", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNextAligned(t *testing.T) {
	tests := []struct {
		after, offset, step, want uint64
	}{
		{0, 0, 1, 1},
		{5, 0, 1, 6},
		{0, 1, 4, 1},
		{1, 1, 4, 5},
		{2, 1, 4, 5},
		{4, 1, 4, 5},
		{5, 1, 4, 9},
		{0, 0, 4, 4},
		{7, 3, 4, 11},
		{6, 3, 4, 7},
	}
	for _, tc := range tests {
		if got := nextAligned(tc.after, tc.offset, tc.step); got != tc.want {
			t.Errorf("nextAligned(%d,%d,%d) = %d, want %d", tc.after, tc.offset, tc.step, got, tc.want)
		}
	}
}

func TestUnsafeCompleteEagerExposesYoung(t *testing.T) {
	c := New(0)
	e1, e2 := c.Register(), c.Register()
	c.UnsafeCompleteEager(e2)
	if got := c.VTNC(); got != 2 {
		t.Fatalf("eager vtnc = %d, want 2 (the whole point of the ablation)", got)
	}
	// The stranded older entry still drains without regressing vtnc.
	c.Complete(e1)
	if got := c.VTNC(); got != 2 {
		t.Fatalf("vtnc regressed to %d", got)
	}
	if got := c.QueueLen(); got != 0 {
		t.Fatalf("queue len = %d", got)
	}
}

func TestNewStridedValidation(t *testing.T) {
	for _, tc := range []struct{ off, step uint64 }{{0, 0}, {4, 4}, {5, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewStrided(0,%d,%d) did not panic", tc.off, tc.step)
				}
			}()
			NewStrided(0, tc.off, tc.step)
		}()
	}
}

func TestGapAdvanceOnEmptyQueue(t *testing.T) {
	c := NewStrided(0, 2, 5) // local numbers 2, 7, 12, ...
	e := c.Register()        // tn 2
	c.Complete(e)
	// tnc is now 7; positions 3..6 are unassignable, so vtnc = 6.
	if got := c.VTNC(); got != 6 {
		t.Fatalf("vtnc = %d, want 6 (gap rule)", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
