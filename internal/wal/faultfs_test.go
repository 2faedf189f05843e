package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"mvdb/internal/faultfs"
)

// The group-commit flusher dies mid-batch (power cut at its fsync with a
// torn tail), Replay truncates to validLen, and the log reopens and
// keeps accepting commits — the reopen-after-torn-batch-tail path.
func TestReopenAfterTornBatchTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "commit.log")

	// Phase 1: three durable commits, then a batch whose fsync is cut
	// with 7 surviving torn bytes (mid-record garbage).
	fs := faultfs.New(faultfs.Plan{Rules: []faultfs.Rule{
		{Op: faultfs.OpSync, Path: "commit.log", Nth: 4, Fault: faultfs.Fault{Crash: true, Torn: 7}},
	}})
	w, err := CreateWith(path, Options{Policy: SyncBatch, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append(Record{TN: uint64(i + 1), Writes: []Write{{Key: "k", Value: []byte(fmt.Sprintf("v%d", i+1))}}}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	// The doomed batch: two concurrent committers so the flusher batches
	// them; both must be told their commit is NOT durable.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.Append(Record{TN: uint64(10 + i), Writes: []Write{{Key: "k", Value: []byte("doomed")}}})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("append %d acknowledged after flusher died", i)
		}
	}
	w.Close()
	if err := fs.ApplyCrash(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: recovery sees the three durable records, drops the torn
	// tail, and the reopened writer keeps accepting commits.
	var recovered []uint64
	validLen, err := ReplayFS(faultfs.OS, path, func(r Record) error {
		recovered = append(recovered, r.TN)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 3 {
		t.Fatalf("recovered %v, want TNs 1..3", recovered)
	}
	fi, _ := os.Stat(path)
	if fi.Size() <= validLen {
		t.Fatalf("no torn tail survived to truncate (size %d, validLen %d)", fi.Size(), validLen)
	}
	w2, err := OpenAppendWith(path, validLen, Options{Policy: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(Record{TN: 4, Writes: []Write{{Key: "k", Value: []byte("post-crash")}}}); err != nil {
		t.Fatalf("post-recovery append: %v", err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	recovered = recovered[:0]
	if _, err := ReplayFS(faultfs.OS, path, func(r Record) error {
		recovered = append(recovered, r.TN)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 4 || recovered[3] != 4 {
		t.Fatalf("after reopen recovered %v, want [1 2 3 4]", recovered)
	}
}

// A transient error — the filesystem recovers immediately — on the
// log's fsync or on a write to it must still break the writer for good,
// under every policy: a failed fsync leaves the kernel's dirty-page state
// unknowable (the fsync-gate rule) and a failed write may have left half
// a record behind, so reporting any later record durable would let
// recovery replay a commit whose predecessor in the log was reported
// lost. Every later Append returns the same error, and what a reopen
// finds is a prefix of what was appended.
func TestTransientFsyncErrorIsSticky(t *testing.T) {
	policies := []struct {
		name   string
		policy SyncPolicy
	}{{"group-commit", SyncBatch}, {"never", SyncNever}}
	faults := []struct {
		name string
		rule faultfs.Rule
	}{
		// Sync #1 of a policy that syncs covers record 1.
		{"sync", faultfs.Rule{Op: faultfs.OpSync, Path: "commit.log", Nth: 2, Fault: faultfs.Fault{Err: true}}},
		{"write", faultfs.Rule{Op: faultfs.OpWrite, Path: "commit.log", Nth: 2, Fault: faultfs.Fault{Err: true}}},
	}
	// Larger than half the writer's buffer, so under SyncNever the second
	// record spills to the file from inside Enqueue.
	big := make([]byte, 40<<10)
	for _, pc := range policies {
		t.Run(pc.name, func(t *testing.T) {
			for _, fc := range faults {
				if pc.policy == SyncNever && fc.name == "sync" {
					continue // never syncs before Close
				}
				t.Run(fc.name, func(t *testing.T) { stickyCase(t, pc.policy, fc.rule, big) })
			}
		})
	}
}

func stickyCase(t *testing.T, policy SyncPolicy, rule faultfs.Rule, big []byte) {
	path := filepath.Join(t.TempDir(), "commit.log")
	fs := faultfs.New(faultfs.Plan{Rules: []faultfs.Rule{rule}})
	w, err := CreateWith(path, Options{Policy: policy, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	var broken error
	acked := 0
	for tn := uint64(1); tn <= 4; tn++ {
		err := w.Append(Record{TN: tn, Writes: []Write{{Key: "a", Value: big}}})
		switch {
		case broken == nil && err == nil:
			acked++
		case broken == nil:
			if !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("append %d: err = %v, want ErrInjected", tn, err)
			}
			broken = err
		case err != broken:
			t.Fatalf("append %d on the broken writer: err = %v, want the sticky %v", tn, err, broken)
		}
	}
	if broken == nil {
		t.Fatal("the injected fault never fired")
	}
	if err := w.Flush(); err != broken {
		t.Fatalf("Flush on the broken writer: err = %v, want the sticky %v", err, broken)
	}
	if err := w.Close(); err != broken {
		t.Fatalf("Close on the broken writer: err = %v, want the sticky %v", err, broken)
	}
	var tns []uint64
	if _, err := ReplayFS(faultfs.OS, path, func(r Record) error { tns = append(tns, r.TN); return nil }); err != nil {
		t.Fatal(err)
	}
	// The record that hit the fault may be physically present — it was
	// never acknowledged; nothing after it may be.
	if (policy != SyncNever && len(tns) < acked) || len(tns) > acked+1 {
		t.Fatalf("reopen found %v, want records 1..%d and at most the one that failed", tns, acked)
	}
	for i, tn := range tns {
		if tn != uint64(i+1) {
			t.Fatalf("reopen found %v, not a prefix of the log", tns)
		}
	}
}

// A corrupt torn tail (garbled sector, CRC mismatch) is cut at the last
// intact record.
func TestReplayStopsAtCorruptTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "commit.log")
	fs := faultfs.New(faultfs.Plan{Rules: []faultfs.Rule{
		{Op: faultfs.OpSync, Path: "commit.log", Nth: 3, Fault: faultfs.Fault{Crash: true, Torn: 1 << 20, Corrupt: true}},
	}})
	w, err := CreateWith(path, Options{Policy: SyncBatch, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	w.Append(Record{TN: 1, Writes: []Write{{Key: "a", Value: []byte("1")}}})
	w.Append(Record{TN: 2, Writes: []Write{{Key: "a", Value: []byte("2")}}})
	if err := w.Append(Record{TN: 3, Writes: []Write{{Key: "a", Value: []byte("3")}}}); err == nil {
		t.Fatal("append through crash succeeded")
	}
	w.Close()
	if err := fs.ApplyCrash(); err != nil {
		t.Fatal(err)
	}
	var tns []uint64
	if _, err := ReplayFS(faultfs.OS, path, func(r Record) error { tns = append(tns, r.TN); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(tns) != 2 {
		t.Fatalf("recovered %v, want the 2 intact records (corrupt tail cut)", tns)
	}
}
