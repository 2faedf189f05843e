package storage_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"mvdb/internal/core"
	"mvdb/internal/engine"
	"mvdb/internal/gc"
	"mvdb/internal/storage"
)

// Under 2PL and OCC no object ever allocates the timestamp-ordering
// state: concurrent read-modify-writes, deletes, snapshot reads, a scan,
// stats and a collection pass leave it unallocated on every Object. T/O
// is the control: the same workload must allocate it.
func TestOnlyTimestampOrderingAllocatesTOState(t *testing.T) {
	for _, p := range []core.Protocol{core.TwoPhaseLocking, core.Optimistic, core.TimestampOrdering} {
		t.Run(p.String(), func(t *testing.T) {
			e := core.New(core.Options{Protocol: p})
			if err := e.Bootstrap(map[string][]byte{"k0": []byte("0"), "k1": []byte("1")}); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for c := 0; c < 4; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						key := fmt.Sprintf("k%d", (c+i)%8)
						for {
							err := rmw(e, key, i%10 == 9)
							if err == nil {
								break
							}
							if !engine.Retryable(err) {
								t.Error(err)
								return
							}
						}
						ro, _ := e.Begin(engine.ReadOnly)
						ro.Get(key)
						ro.(engine.Scanner).Scan("k", func(string, []byte) bool { return true })
						ro.Commit()
					}
				}(c)
			}
			wg.Wait()
			e.Stats()
			gc.New(e, 0).Collect()

			allocated := 0
			e.Store().Range(func(_ string, o *storage.Object) bool {
				if storage.TOStateAllocated(o) {
					allocated++
				}
				return true
			})
			if p == core.TimestampOrdering {
				if allocated == 0 {
					t.Fatal("T/O workload allocated no T/O state")
				}
			} else if allocated != 0 {
				t.Fatalf("%d objects allocated T/O state under %v", allocated, p)
			}
		})
	}
}

func rmw(e *core.Engine, key string, del bool) error {
	tx, err := e.Begin(engine.ReadWrite)
	if err != nil {
		return err
	}
	if _, err := tx.Get(key); err != nil && !errors.Is(err, engine.ErrNotFound) {
		tx.Abort()
		return err
	}
	if del {
		err = tx.Delete(key)
	} else {
		err = tx.Put(key, []byte("v"))
	}
	if err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}
