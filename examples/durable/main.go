// Durable: write-ahead logging, crash recovery, and checkpoints that
// bound the log — the "transaction and system recovery" role of multiple
// versions that the paper's first sentence invokes.
//
// The program runs three lives of the same database directory:
//
//  1. write a batch of orders and "crash" without closing;
//  2. recover, verify every committed order survived, checkpoint (which
//     drops the log prefix the snapshot covers), and write more;
//  3. recover again from snapshot + log suffix and audit everything.
//
// Usage:
//
//	durable [-dir <path>] [-orders 500]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"mvdb"
)

func orderKey(i int) string { return fmt.Sprintf("order/%06d", i) }

func main() {
	var (
		dir    = flag.String("dir", "", "database directory (default: temp)")
		orders = flag.Int("orders", 500, "orders per life")
	)
	flag.Parse()

	if *dir == "" {
		tmp, err := os.MkdirTemp("", "mvdb-durable-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(tmp)
		*dir = tmp
	}
	walPath := filepath.Join(*dir, "commit.log")

	// --- Life 1: write and crash. -------------------------------------
	// GroupCommit is what makes the log durable: an Update returns only
	// after an fsync has covered its commit record, so every order
	// acknowledged below survives a power cut. With WALPath alone the
	// log is written but fsynced only on Close.
	db, err := mvdb.Open(mvdb.Options{WALPath: walPath, GroupCommit: true})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < *orders; i++ {
		if err := db.Update(func(tx *mvdb.Tx) error {
			return tx.PutString(orderKey(i), fmt.Sprintf("life1-%d", i))
		}); err != nil {
			log.Fatal(err)
		}
	}
	// The process "dies" here. Close stands in for that: every
	// acknowledged commit is already on disk, so it adds nothing the
	// recovery below relies on.
	logged := db.Stats().WALSizeBytes
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("life 1: %d orders committed; log is %d bytes; process dies\n", *orders, logged)

	// --- Life 2: recover, checkpoint, write more. ---------------------
	db2, err := mvdb.Open(mvdb.Options{WALPath: walPath, GroupCommit: true})
	if err != nil {
		log.Fatal(err)
	}
	count := 0
	db2.View(func(tx *mvdb.Tx) error {
		return tx.Scan("order/", func(string, []byte) bool { count++; return true })
	})
	fmt.Printf("life 2: recovered %d orders from the log\n", count)
	if count != *orders {
		log.Fatalf("LOST COMMITS: recovered %d of %d", count, *orders)
	}

	// The log's size counts the prefix a checkpoint moves aside until the
	// snapshot covers it.
	before := db2.Stats().WALSizeBytes
	if err := db2.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	after := db2.Stats().WALSizeBytes
	fmt.Printf("life 2: checkpointed; the snapshot covers the log, which drops %d -> %d bytes\n", before, after)
	if after >= before {
		log.Fatal("CHECKPOINT KEPT THE LOG PREFIX")
	}
	for i := *orders; i < 2*(*orders); i++ {
		if err := db2.Update(func(tx *mvdb.Tx) error {
			return tx.PutString(orderKey(i), fmt.Sprintf("life2-%d", i))
		}); err != nil {
			log.Fatal(err)
		}
	}
	logged = db2.Stats().WALSizeBytes
	if err := db2.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("life 2: wrote %d more; log is %d bytes\n", *orders, logged)

	// --- Life 3: recover from snapshot + suffix and audit. ------------
	db3, err := mvdb.Open(mvdb.Options{WALPath: walPath})
	if err != nil {
		log.Fatal(err)
	}
	defer db3.Close()
	count = 0
	bad := 0
	db3.View(func(tx *mvdb.Tx) error {
		return tx.Scan("order/", func(k string, v []byte) bool {
			count++
			if len(v) == 0 {
				bad++
			}
			return true
		})
	})
	fmt.Printf("life 3: snapshot+suffix recovery sees %d orders (%d corrupt)\n", count, bad)
	if count != 2*(*orders) || bad != 0 {
		log.Fatal("RECOVERY INCOMPLETE")
	}
	fmt.Println("all committed state survived two restarts")
}
