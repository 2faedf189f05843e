// Bank: the classic concurrent-transfer workload. Read-write transactions
// move money between accounts under the selected concurrency control
// while read-only auditors continuously verify that the total balance is
// conserved — each audit is a consistent snapshot (paper Figure 2), so it
// holds even while transfers are mid-flight, and the auditors never slow
// the transfers down.
//
// Usage:
//
//	bank [-protocol 2pl|to|occ] [-accounts 64] [-workers 8] [-transfers 2000]
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

const initialBalance = 1000

func protocolFlag(name string) mvdb.Protocol {
	switch name {
	case "to":
		return mvdb.TimestampOrdering
	case "occ":
		return mvdb.Optimistic
	case "2pl":
		return mvdb.TwoPhaseLocking
	default:
		log.Fatalf("unknown protocol %q (want 2pl, to or occ)", name)
		return 0
	}
}

func acct(i int) string { return fmt.Sprintf("acct/%04d", i) }

func balance(v []byte) int64 { return int64(binary.LittleEndian.Uint64(v)) }

func encode(n int64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(n))
	return b[:]
}

func main() {
	var (
		protoName = flag.String("protocol", "2pl", "concurrency control: 2pl, to, occ")
		accounts  = flag.Int("accounts", 64, "number of accounts")
		workers   = flag.Int("workers", 8, "concurrent transfer workers")
		transfers = flag.Int("transfers", 2000, "transfers per worker")
	)
	flag.Parse()

	db, err := mvdb.Open(mvdb.Options{Protocol: protocolFlag(*protoName)})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	boot := make(map[string][]byte, *accounts)
	for i := 0; i < *accounts; i++ {
		boot[acct(i)] = encode(initialBalance)
	}
	if err := db.Bootstrap(boot); err != nil {
		log.Fatal(err)
	}
	want := int64(*accounts) * initialBalance

	var audits, auditViolations, done atomic.Int64

	// Auditors: read-only transactions, running flat out, concurrently
	// with the transfers.
	stopAudit := make(chan struct{})
	var auditWG sync.WaitGroup
	for a := 0; a < 2; a++ {
		auditWG.Add(1)
		go func() {
			defer auditWG.Done()
			for {
				select {
				case <-stopAudit:
					return
				default:
				}
				var total int64
				err := db.View(func(tx *mvdb.Tx) error {
					return tx.Scan("acct/", func(_ string, v []byte) bool {
						total += balance(v)
						return true
					})
				})
				if err != nil {
					log.Fatalf("audit: %v", err)
				}
				audits.Add(1)
				if total != want {
					auditViolations.Add(1)
					log.Printf("AUDIT VIOLATION: total=%d want=%d", total, want)
				}
			}
		}()
	}

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
				amount := int64(1 + rng.Intn(10))
				err := db.Update(func(tx *mvdb.Tx) error {
					fv, err := tx.Get(acct(from))
					if err != nil {
						return err
					}
					if balance(fv) < amount {
						return nil // insufficient funds: commit a no-op
					}
					tv, err := tx.Get(acct(to))
					if err != nil {
						return err
					}
					if err := tx.Put(acct(from), encode(balance(fv)-amount)); err != nil {
						return err
					}
					return tx.Put(acct(to), encode(balance(tv)+amount))
				})
				if err != nil {
					log.Fatalf("transfer: %v", err)
				}
				done.Add(1)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stopAudit)
	auditWG.Wait()

	// Final audit.
	var total int64
	db.View(func(tx *mvdb.Tx) error {
		return tx.Scan("acct/", func(_ string, v []byte) bool {
			total += balance(v)
			return true
		})
	})

	st := db.Stats()
	fmt.Printf("protocol            %s\n", protocolFlag(*protoName))
	fmt.Printf("transfers committed %d in %v (%.0f tx/s)\n",
		done.Load(), elapsed.Round(time.Millisecond), float64(done.Load())/elapsed.Seconds())
	fmt.Printf("audits completed    %d (violations: %d)\n", audits.Load(), auditViolations.Load())
	fmt.Printf("final total         %d (expected %d)\n", total, want)
	fmt.Printf("engine aborts       conflict=%d deadlock=%d\n",
		st.AbortsConflict, st.AbortsDeadlock)
	fmt.Printf("rw aborts caused by read-only txns: %d (the paper's guarantee: always 0)\n",
		st.RWAbortsByRO)
	if total != want || auditViolations.Load() > 0 {
		log.Fatal("CONSERVATION VIOLATED")
	}
}
