// Analytics: long-running read-only reports over a live OLTP store — the
// workload the paper's introduction motivates. An order-processing
// workload updates inventory continuously while an analyst repeatedly
// scans the whole keyspace computing aggregates. Under the paper's
// version control the scans are pure snapshot reads: they never block a
// writer, are never blocked by one, and each report is internally
// consistent no matter how long it takes.
//
// The example also demonstrates the Section 6 trade-offs: the default
// snapshot may be slightly stale (visibility lag is printed), and a
// "fresh" report can opt into waiting via BeginReadOnlyRecent. The old
// versions no open report needs any more are collected as orders commit.
//
// Usage:
//
//	analytics [-products 200] [-orders 5000]
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mvdb"
)

func product(i int) string { return fmt.Sprintf("stock/%05d", i) }

func num(v []byte) int64 { return int64(binary.LittleEndian.Uint64(v)) }

func encode(n int64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(n))
	return b[:]
}

func main() {
	var (
		products = flag.Int("products", 200, "number of products")
		orders   = flag.Int("orders", 5000, "orders to process")
	)
	flag.Parse()

	db, err := mvdb.Open(mvdb.Options{Protocol: mvdb.TwoPhaseLocking})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	const initialStock = 1_000_000
	boot := make(map[string][]byte, *products)
	for i := 0; i < *products; i++ {
		boot[product(i)] = encode(initialStock)
	}
	if err := db.Bootstrap(boot); err != nil {
		log.Fatal(err)
	}
	totalStock := int64(*products) * initialStock

	var processed, reports, maxReportLag atomic.Int64

	// The analyst: full-store scans, each a single consistent snapshot.
	// Units only ever move between products (a "reallocation" workload),
	// so every consistent report must sum to exactly totalStock.
	stop := make(chan struct{})
	var reportWG sync.WaitGroup
	reportWG.Add(1)
	go func() {
		defer reportWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var sum int64
			var items int
			if lag := int64(db.VisibilityLag()); lag > maxReportLag.Load() {
				maxReportLag.Store(lag)
			}
			err := db.View(func(tx *mvdb.Tx) error {
				return tx.Scan("stock/", func(_ string, v []byte) bool {
					sum += num(v)
					items++
					return true
				})
			})
			if err != nil {
				log.Fatalf("report: %v", err)
			}
			if sum != totalStock {
				log.Fatalf("INCONSISTENT REPORT: sum=%d want=%d (items=%d)", sum, totalStock, items)
			}
			reports.Add(1)
		}
	}()

	// Order processing: move stock between products.
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < *orders/4; i++ {
				from, to := rng.Intn(*products), rng.Intn(*products)
				if from == to {
					continue
				}
				qty := int64(1 + rng.Intn(5))
				err := db.Update(func(tx *mvdb.Tx) error {
					fv, err := tx.Get(product(from))
					if err != nil {
						return err
					}
					if num(fv) < qty {
						return nil
					}
					tv, err := tx.Get(product(to))
					if err != nil {
						return err
					}
					if err := tx.Put(product(from), encode(num(fv)-qty)); err != nil {
						return err
					}
					return tx.Put(product(to), encode(num(tv)+qty))
				})
				if err != nil {
					log.Fatalf("order: %v", err)
				}
				processed.Add(1)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stop)
	reportWG.Wait()

	// A recency-rectified report observes everything processed above.
	fresh, err := db.BeginReadOnlyRecent()
	if err != nil {
		log.Fatal(err)
	}
	var finalSum int64
	fresh.Scan("stock/", func(_ string, v []byte) bool {
		finalSum += num(v)
		return true
	})
	fresh.Commit()

	st := db.Stats()
	fmt.Printf("orders processed   %d in %v (%.0f tx/s)\n",
		processed.Load(), elapsed.Round(time.Millisecond), float64(processed.Load())/elapsed.Seconds())
	fmt.Printf("reports completed  %d, every one internally consistent\n", reports.Load())
	fmt.Printf("max visibility lag observed by reports: %d positions\n", maxReportLag.Load())
	fmt.Printf("fresh (recency-rectified) report total: %d (expected %d)\n", finalSum, totalStock)
	fmt.Printf("read-only commits  %d — zero blocking, zero aborts caused (by_ro=%d)\n",
		st.CommitsRO, st.RWAbortsByRO)
	fmt.Printf("gc                 %d versions collected as orders committed\n", st.GCReclaimed)
	if finalSum != totalStock {
		log.Fatal("FINAL REPORT INCONSISTENT")
	}
}
