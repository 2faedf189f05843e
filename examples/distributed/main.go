// Distributed: a multi-site bank. Accounts are partitioned across sites;
// transfers frequently cross sites (two-phase commit with max-vote
// transaction numbers); global read-only audits take ONE start number at
// a home site and read everywhere — no a-priori site list, no locks, no
// votes — and must always balance (paper Section 6).
//
// Usage:
//
//	distributed [-sites 3] [-accounts 60] [-workers 6] [-transfers 500] [-latency 0]
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

	"mvdb/cluster"
)

const initialBalance = 1000

func acct(i int) string { return fmt.Sprintf("acct/%04d", i) }

func bal(v []byte) int64 { return int64(binary.LittleEndian.Uint64(v)) }

func enc(n int64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(n))
	return b[:]
}

func main() {
	var (
		sites     = flag.Int("sites", 3, "number of sites")
		accounts  = flag.Int("accounts", 60, "number of accounts")
		workers   = flag.Int("workers", 6, "transfer workers")
		transfers = flag.Int("transfers", 500, "transfers per worker")
		latency   = flag.Duration("latency", 0, "simulated one-way message latency")
	)
	flag.Parse()

	c, err := cluster.Open(cluster.Options{Sites: *sites, Latency: *latency})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	boot := make(map[string][]byte, *accounts)
	perSite := make([]int, *sites)
	for i := 0; i < *accounts; i++ {
		boot[acct(i)] = enc(initialBalance)
		perSite[c.SiteOf(acct(i))]++
	}
	if err := c.Bootstrap(boot); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("accounts per site: %v\n", perSite)
	want := int64(*accounts) * initialBalance

	var committed, crossSite atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < *transfers; i++ {
				from, to := rng.Intn(*accounts), rng.Intn(*accounts)
				if from == to {
					continue
				}
				amount := int64(1 + rng.Intn(5))
				err := c.Update(func(tx *cluster.Tx) error {
					fv, err := tx.Get(acct(from))
					if err != nil {
						return err
					}
					if bal(fv) < amount {
						return nil
					}
					tv, err := tx.Get(acct(to))
					if err != nil {
						return err
					}
					if err := tx.Put(acct(from), enc(bal(fv)-amount)); err != nil {
						return err
					}
					return tx.Put(acct(to), enc(bal(tv)+amount))
				})
				if err != nil {
					log.Fatalf("transfer: %v", err)
				}
				committed.Add(1)
				if c.SiteOf(acct(from)) != c.SiteOf(acct(to)) {
					crossSite.Add(1)
				}
			}
		}(w)
	}

	// Concurrent global audits, anchored at rotating home sites.
	stop := make(chan struct{})
	var auditWG sync.WaitGroup
	var audits atomic.Int64
	auditWG.Add(1)
	go func() {
		defer auditWG.Done()
		home := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			tx, err := c.BeginReadOnlyAtHome(home % *sites)
			home++
			if err != nil {
				log.Fatal(err)
			}
			var total int64
			err = tx.Scan("acct/", func(_ string, v []byte) bool {
				total += bal(v)
				return true
			})
			tx.Commit()
			if err != nil {
				log.Fatal(err)
			}
			if total != want {
				log.Fatalf("GLOBAL AUDIT VIOLATION: %d != %d", total, want)
			}
			audits.Add(1)
		}
	}()

	wg.Wait()
	elapsed := time.Since(start)
	close(stop)
	auditWG.Wait()

	var final int64
	c.View(func(tx *cluster.Tx) error {
		return tx.Scan("acct/", func(_ string, v []byte) bool {
			final += bal(v)
			return true
		})
	})

	fmt.Printf("transfers committed %d (%d cross-site) in %v (%.0f tx/s)\n",
		committed.Load(), crossSite.Load(), elapsed.Round(time.Millisecond),
		float64(committed.Load())/elapsed.Seconds())
	fmt.Printf("global audits       %d, all balanced; final total %d (expected %d)\n",
		audits.Load(), final, want)
	fmt.Printf("bus messages        %d; read-only visibility waits %d (fillers %d)\n",
		c.Messages(), c.Stats().RecencyWaits, c.Fillers())
	if final != want {
		log.Fatal("CONSERVATION VIOLATED")
	}
}
