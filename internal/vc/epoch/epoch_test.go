package epoch

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvdb/internal/vc"
)

// Driven sequentially, the epoch watermark must equal strict's vtnc
// after every single operation: both advance to (oldest unresolved)-1,
// or tnc-1 once everything has resolved. This is the determinism the
// differential fuzz target leans on; here it is checked over random
// schedules with both implementations side by side.
func TestSequentialEquivalenceRandom(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := vc.New(0)
		e := NewWithShape(0, 4, 8)
		type pair struct{ hs, he *vc.Entry }
		var live []pair
		for step := 0; step < 300; step++ {
			switch rng.Intn(4) {
			case 0, 1:
				// Keep the watermark distance inside the ring capacity:
				// a sequential driver that lets a register block on the
				// capacity guard would deadlock.
				if e.Lag() >= e.capacity {
					continue
				}
				live = append(live, pair{s.Register(), e.Register()})
			case 2:
				if len(live) > 0 {
					j := rng.Intn(len(live))
					s.Complete(live[j].hs)
					e.Complete(live[j].he)
					live = append(live[:j], live[j+1:]...)
				}
			case 3:
				if len(live) > 0 {
					j := rng.Intn(len(live))
					s.Discard(live[j].hs)
					e.Discard(live[j].he)
					live = append(live[:j], live[j+1:]...)
				}
			}
			if sv, ev := s.VTNC(), e.VTNC(); sv != ev {
				t.Fatalf("seed %d step %d: strict vtnc %d, epoch vtnc %d", seed, step, sv, ev)
			}
			if st, et := s.TNC(), e.TNC(); st != et {
				t.Fatalf("seed %d step %d: strict tnc %d, epoch tnc %d", seed, step, st, et)
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
		for _, p := range live {
			s.Complete(p.hs)
			e.Complete(p.he)
		}
		if sv, ev := s.VTNC(), e.VTNC(); sv != ev || ev != e.TNC()-1 {
			t.Fatalf("seed %d final: strict vtnc %d, epoch vtnc %d, tnc %d", seed, sv, ev, e.TNC())
		}
	}
}

func TestBootstrapSnapshot(t *testing.T) {
	c := New(100)
	if got := c.Start(); got != 100 {
		t.Fatalf("Start = %d, want 100", got)
	}
	h := c.Register()
	if h.TN() != 101 {
		t.Fatalf("first tn = %d, want 101", h.TN())
	}
	if c.Start() != 100 {
		t.Fatalf("Start moved before completion: %d", c.Start())
	}
	c.Complete(h)
	if c.Start() != 101 {
		t.Fatalf("Start = %d after completion, want 101", c.Start())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Out-of-order completion: nothing becomes visible until the oldest
// completes, and then the whole batch publishes in one epoch.
func TestWatermarkBatching(t *testing.T) {
	c := NewWithShape(0, 2, 4)
	const n = 6
	hs := make([]*vc.Entry, n)
	for i := range hs {
		hs[i] = c.Register()
	}
	for i := n - 1; i > 0; i-- {
		c.Complete(hs[i])
		if c.VTNC() != 0 {
			t.Fatalf("vtnc %d with tn 1 outstanding", c.VTNC())
		}
	}
	before := c.Epoch()
	c.Complete(hs[0])
	if c.VTNC() != n {
		t.Fatalf("vtnc %d after full drain, want %d", c.VTNC(), n)
	}
	if got := c.Epoch() - before; got != 1 {
		t.Fatalf("final completion published %d epochs, want 1 batch", got)
	}
}

func TestDiscardUnblocksVisibility(t *testing.T) {
	c := NewWithShape(0, 2, 4)
	h1 := c.Register()
	h2 := c.Register()
	c.Complete(h2)
	if c.VTNC() != 0 {
		t.Fatalf("vtnc %d, want 0", c.VTNC())
	}
	c.Discard(h1)
	// The discarded tn 1 no longer holds the horizon; tn 2 is visible.
	if c.VTNC() != 2 {
		t.Fatalf("vtnc %d after discard, want 2", c.VTNC())
	}
	if c.Completions() != 1 || c.Discards() != 1 {
		t.Fatalf("counters %d/%d, want 1/1", c.Completions(), c.Discards())
	}
}

// Slot reuse across many ring generations with a tiny shape.
func TestSlotReuse(t *testing.T) {
	c := NewWithShape(0, 1, 2)
	for i := 0; i < 100; i++ {
		h := c.Register()
		c.Complete(h)
	}
	if c.VTNC() != 100 || c.TNC() != 101 {
		t.Fatalf("vtnc %d tnc %d", c.VTNC(), c.TNC())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// The capacity guard must block a registration that would overwrite an
// undrained slot, and release it once the watermark catches up.
func TestCapacityGuard(t *testing.T) {
	c := NewWithShape(0, 1, 2) // capacity 2
	h1 := c.Register()
	h2 := c.Register()
	released := make(chan *vc.Entry)
	go func() {
		released <- c.Register() // tn 3 reuses tn 1's slot: must wait
	}()
	select {
	case <-released:
		t.Fatal("Register returned with capacity exhausted")
	case <-time.After(50 * time.Millisecond):
	}
	c.Complete(h1)
	select {
	case h3 := <-released:
		if h3.TN() != 3 {
			t.Fatalf("tn %d, want 3", h3.TN())
		}
		c.Complete(h3)
	case <-time.After(2 * time.Second):
		t.Fatal("Register still blocked after watermark advanced")
	}
	c.Complete(h2)
	if c.VTNC() != 3 {
		t.Fatalf("vtnc %d, want 3", c.VTNC())
	}
}

func TestResolveTwicePanics(t *testing.T) {
	c := New(0)
	h := c.Register()
	c.Complete(h)
	defer func() {
		if recover() == nil {
			t.Fatal("second resolve did not panic")
		}
	}()
	c.Discard(h)
}

// An entry this controller never registered finds its slot empty.
func TestForeignHandlePanics(t *testing.T) {
	c := New(0)
	s := vc.New(0)
	h := s.Register()
	defer func() {
		if recover() == nil {
			t.Fatal("foreign entry did not panic")
		}
	}()
	c.Complete(h)
}

// The visible observer fires exactly once per completed registration —
// never for discards — when its tn crosses the published watermark.
func TestVisibleObserver(t *testing.T) {
	c := NewWithShape(0, 2, 4)
	var mu sync.Mutex
	seen := map[uint64]int{}
	c.SetVisibleObserver(func(tn uint64, d time.Duration) {
		mu.Lock()
		seen[tn]++
		mu.Unlock()
		if d < 0 {
			t.Errorf("negative lag %v for tn %d", d, tn)
		}
	})
	h1 := c.Register()
	h2 := c.Register()
	h3 := c.Register()
	c.Complete(h3)
	c.Discard(h2)
	c.Complete(h1)
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 2 || seen[1] != 1 || seen[3] != 1 {
		t.Fatalf("observer fired %v, want {1:1, 3:1}", seen)
	}
}

// Concurrent hammer: many goroutines register/complete/discard; the
// watermark must end at tnc-1 with invariants intact, and every
// mid-flight Start must be a resolved prefix position.
func TestConcurrentHammer(t *testing.T) {
	c := NewWithShape(0, 4, 64)
	var observed atomic.Uint64
	c.SetVisibleObserver(func(tn uint64, d time.Duration) { observed.Add(1) })
	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	var completes atomic.Uint64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				h := c.Register()
				if rng.Intn(8) == 0 {
					c.Discard(h)
				} else {
					c.Complete(h)
					completes.Add(1)
				}
				if s, v := c.Start(), c.VTNC(); s > v {
					t.Errorf("Start %d above vtnc %d", s, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	total := uint64(workers * perWorker)
	if tnc := c.TNC(); tnc != total+1 {
		t.Fatalf("tnc %d, want %d", tnc, total+1)
	}
	if vtnc := c.VTNC(); vtnc != total {
		t.Fatalf("vtnc %d, want %d", vtnc, total)
	}
	if got := c.Completions() + c.Discards(); got != total {
		t.Fatalf("resolutions %d, want %d", got, total)
	}
	if got := observed.Load(); got != completes.Load() {
		t.Fatalf("observer fired %d times, want %d", got, completes.Load())
	}
	if c.QueueLen() != 0 {
		t.Fatalf("outstanding %d after drain", c.QueueLen())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Epoch batches under concurrency: with contended lanes the number of
// publishes must not exceed the number of resolutions (and usually sits
// far below it — each epoch covers a batch).
func TestEpochCountBounded(t *testing.T) {
	c := NewWithShape(0, 2, 32)
	const n = 200
	hs := make([]*vc.Entry, n)
	for i := range hs {
		if i >= 32 {
			c.Complete(hs[i-32])
		}
		hs[i] = c.Register()
	}
	for i := n - 32; i < n; i++ {
		c.Complete(hs[i])
	}
	if e := c.Epoch(); e == 0 || e > n {
		t.Fatalf("epoch count %d outside (0, %d]", e, n)
	}
}

func TestUnsafeCompleteEagerExposesYoung(t *testing.T) {
	c := NewWithShape(0, 2, 4)
	h1 := c.Register()
	h2 := c.Register()
	c.UnsafeCompleteEager(h2)
	// The ablation publishes tn 2 with tn 1 still outstanding — the
	// Transaction Visibility Property is deliberately broken.
	if c.VTNC() != 2 {
		t.Fatalf("vtnc %d after eager complete, want 2", c.VTNC())
	}
	c.Complete(h1)
	if c.VTNC() != 2 {
		t.Fatalf("vtnc %d, want 2", c.VTNC())
	}
	if c.QueueLen() != 0 {
		t.Fatalf("outstanding %d", c.QueueLen())
	}
}

func TestMode(t *testing.T) {
	if New(0).Mode() != vc.ModeEpoch {
		t.Fatal("Mode != epoch")
	}
	var _ vc.Controller = New(0)
}
