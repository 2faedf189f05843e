package core

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvdb/internal/engine"
	"mvdb/internal/lock"
)

// TestEmbeddedStateLifetime drives 2PL from eight goroutines over a
// two-key hot set, under deadlock detection and under a millisecond lock
// timeout, so that victims happen while the detector walks lock states
// that live inside transaction structs, and while timers race grants. Every transaction writes both
// keys, in an order that alternates, so two that each hold one key
// deadlock on the other. Each worker makes a fixed number of attempts,
// committed or not. Once quiescent, the lock manager holds no
// transaction and no key, the strict controller's queue is empty and
// consistent and completed exactly the commits, and both keys hold the
// last committer's value.
func TestEmbeddedStateLifetime(t *testing.T) {
	for _, c := range []struct {
		name   string
		policy lock.Policy
		aborts func(*lock.Manager) uint64
	}{
		{"detect", lock.Detect, (*lock.Manager).Deadlocks},
		{"timeout", lock.TimeoutPolicy, (*lock.Manager).Timeouts},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := New(Options{Protocol: TwoPhaseLocking, LockPolicy: c.policy, LockTimeout: 2 * time.Millisecond})
			defer e.Close()
			keys := [2]string{"a", "b"}
			const workers, attempts = 8, 100
			var commits atomic.Int64
			var wg sync.WaitGroup
			for w := range workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range attempts {
						first := (w + i) % 2
						switch err := writeBoth(e, keys[first], keys[1-first], i%4 == 0); {
						case err == nil:
							commits.Add(1)
						case !engine.Retryable(err):
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()

			t.Logf("%d victims, %d commits", c.aborts(e.locks), commits.Load())
			if c.aborts(e.locks) == 0 {
				t.Errorf("no %s victim in %d contended transactions", c.name, workers*attempts)
			}
			if err := e.locks.CheckIdle(); err != nil {
				t.Error(err)
			}
			if err := e.vc.CheckInvariants(); err != nil {
				t.Error(err)
			}
			if n := e.vc.QueueLen(); n != 0 {
				t.Errorf("VCQueue holds %d entries at rest", n)
			}
			if n := e.vc.Completions(); n != uint64(commits.Load()) {
				t.Errorf("%d completions for %d commits", n, commits.Load())
			}
			a, _ := e.latest(keys[0])
			b, _ := e.latest(keys[1])
			if a.TN != b.TN || string(a.Data) != string(b.Data) {
				t.Errorf("a = %q at %d, b = %q at %d: want one transaction's writes", a.Data, a.TN, b.Data, b.TN)
			}
		})
	}
}

// writeBoth writes one value to a and then to b, taking exclusive locks
// in that order; yield gives the processor up in between.
func writeBoth(e *Engine, a, b string, yield bool) error {
	tx, err := e.Begin(engine.ReadWrite)
	if err != nil {
		return err
	}
	val := []byte(strconv.FormatUint(tx.ID(), 10))
	for i, k := range []string{a, b} {
		if i == 1 && yield {
			runtime.Gosched() // let another transaction take the other key
		}
		if err := tx.Put(k, val); err != nil {
			tx.Abort()
			return err
		}
	}
	return tx.Commit()
}
