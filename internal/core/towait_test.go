package core

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvdb/internal/engine"
	"mvdb/internal/vc"
)

// parkBalance is a recorder that keeps, per transaction, its parks less
// its wakes.
type parkBalance struct {
	engine.NopRecorder
	mu    sync.Mutex
	open  map[uint64]int
	parks int
}

func (p *parkBalance) RecordParked(id uint64, parked bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.open == nil {
		p.open = map[uint64]int{}
	}
	if parked {
		p.open[id]++
		p.parks++
	} else {
		p.open[id]--
	}
	if p.open[id] == 0 {
		delete(p.open, id)
	}
}

func (p *parkBalance) state() (parks int, open string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.open) > 0 {
		open = fmt.Sprint(p.open)
	}
	return p.parks, open
}

// TestTOWaitersRaceRecycledWriters runs pooled timestamp-ordering Updates
// over three keys, each reading one key and incrementing the next, so
// reads and writes wait on pending versions whose writers commit, abort
// (on purpose, or on a conflict) and go back to the pool, to be begun
// again under new ids while the requests they woke are still running.
// No waiter may hang, each transaction's parks and wakes must pair up —
// a wake that reached a struct's later incarnation would be a wake for an
// id that never parked — and each key must end at the number of
// increments that committed.
func TestTOWaitersRaceRecycledWriters(t *testing.T) {
	for _, mode := range []vc.Mode{vc.ModeStrict, vc.ModeEpoch} {
		t.Run(mode.String(), func(t *testing.T) {
			rec := &parkBalance{}
			e := New(Options{Protocol: TimestampOrdering, Visibility: mode, Recorder: rec})
			defer e.Close()
			keys := []string{"a", "b", "c"}
			if err := e.Bootstrap(map[string][]byte{"a": []byte("0"), "b": []byte("0"), "c": []byte("0")}); err != nil {
				t.Fatal(err)
			}
			incr := func(tx *Tx, key string) error {
				v, err := tx.Get(key)
				if err != nil {
					return err
				}
				n, _ := strconv.Atoi(string(v))
				return tx.Put(key, []byte(strconv.Itoa(n+1)))
			}
			var committed [3]atomic.Int64

			// One wait for certain: an increment of "a" held open until
			// a younger transaction, which every worker's first or second
			// round is, has parked on its pending version.
			held, release := make(chan struct{}), make(chan struct{})
			var first sync.WaitGroup
			first.Add(1)
			go func() {
				defer first.Done()
				err := e.Update(func(tx *Tx) error {
					if err := incr(tx, "a"); err != nil {
						return err
					}
					close(held)
					<-release
					return nil
				})
				if err == nil {
					committed[0].Add(1)
				}
			}()
			<-held
			go func() {
				for parks, _ := rec.state(); parks == 0; parks, _ = rec.state() {
					time.Sleep(50 * time.Microsecond)
				}
				close(release)
			}()

			errAbort := errors.New("abort")
			const workers, rounds = 4, 150
			var wg sync.WaitGroup
			for w := range workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range rounds {
						src, dst := (w+i)%3, (w+i+1)%3
						err := e.Update(func(tx *Tx) error {
							if _, err := tx.Get(keys[src]); err != nil {
								return err
							}
							if err := incr(tx, keys[dst]); err != nil {
								return err
							}
							runtime.Gosched() // hold the pending version a little
							if i%5 == 4 {
								return errAbort
							}
							return nil
						})
						switch {
						case err == nil:
							committed[dst].Add(1)
						case errors.Is(err, errAbort) || engine.Retryable(err):
						default:
							t.Error(err)
							return
						}
					}
				}()
			}
			done := make(chan struct{})
			go func() { wg.Wait(); first.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				panic("a timestamp-ordering wait never ended") // and print every goroutine
			}

			parks, open := rec.state()
			if open != "" {
				t.Errorf("parks less wakes by transaction: %s, want none", open)
			}
			ro, err := e.Begin(engine.ReadOnly)
			if err != nil {
				t.Fatal(err)
			}
			for i, k := range keys {
				v, _ := ro.Get(k)
				if n, _ := strconv.Atoi(string(v)); int64(n) != committed[i].Load() {
					t.Errorf("%s = %d, want the %d increments that committed", k, n, committed[i].Load())
				}
			}
			ro.Commit()
			t.Logf("%d parks", parks)
		})
	}
}
