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
	w2, err := OpenAppendWith(path, Options{Policy: SyncBatch}, replayed(validLen))
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

// logSyncs counts the fsyncs issued on the file at path.
func logSyncs(fs *faultfs.FaultFS, path string) int {
	n := 0
	for _, op := range fs.Trace() {
		if op.Op == faultfs.OpSync && op.Path == path {
			n++
		}
	}
	return n
}

// TestFlushSyncsOnlyWhatIsUncovered: an fsync covers an enqueued record
// or nothing is issued. Close, Flush and Rotate over a log whose every
// ticket an fsync already covers issue none; over one uncovered record,
// exactly one. A broken writer still reports its sticky error, also when
// the failed record never got a ticket.
func TestFlushSyncsOnlyWhatIsUncovered(t *testing.T) {
	ops := []struct {
		name string
		do   func(w *Writer, path string) error
	}{
		{"Close", func(w *Writer, _ string) error { return w.Close() }},
		{"Flush", func(w *Writer, _ string) error { return w.Flush() }},
		{"Rotate", func(w *Writer, path string) error { return w.Rotate(path + ".old") }},
	}
	open := func(t *testing.T, policy SyncPolicy, plan faultfs.Plan) (*Writer, *faultfs.FaultFS, string) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "commit.log")
		fs := faultfs.New(plan)
		fs.EnableTrace()
		w, err := CreateWith(path, Options{Policy: policy, FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		return w, fs, path
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			t.Run("covered", func(t *testing.T) {
				w, fs, path := open(t, SyncBatch, faultfs.Plan{})
				if err := w.Append(rec(1, "k", "v")); err != nil {
					t.Fatal(err)
				}
				if err := op.do(w, path); err != nil {
					t.Fatal(err)
				}
				if n := logSyncs(fs, path); n != 1 {
					t.Fatalf("%d fsyncs, want 1: the flusher's, and none from %s", n, op.name)
				}
			})
			t.Run("uncovered", func(t *testing.T) {
				w, fs, path := open(t, SyncNever, faultfs.Plan{})
				if _, err := w.Enqueue(rec(1, "k", "v")); err != nil {
					t.Fatal(err)
				}
				if err := op.do(w, path); err != nil {
					t.Fatal(err)
				}
				if n := logSyncs(fs, path); n != 1 {
					t.Fatalf("%d fsyncs, want 1 from %s", n, op.name)
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				if n := logSyncs(fs, path); n != 1 {
					t.Fatalf("%d fsyncs after Close, want still 1", n)
				}
			})
			t.Run("broken", func(t *testing.T) {
				// A record too big for the buffer goes straight to the
				// file, and the write fails inside Enqueue: the writer is
				// broken with every ticket it handed out covered.
				w, _, path := open(t, SyncNever, faultfs.Plan{Rules: []faultfs.Rule{
					{Op: faultfs.OpWrite, Path: "commit.log", Fault: faultfs.Fault{Err: true}},
				}})
				_, broken := w.Enqueue(Record{TN: 1, Writes: []Write{{Key: "k", Value: make([]byte, 80<<10)}}})
				if !errors.Is(broken, faultfs.ErrInjected) {
					t.Fatalf("Enqueue: err = %v, want ErrInjected", broken)
				}
				if err := op.do(w, path); err != broken {
					t.Fatalf("%s on the broken writer: err = %v, want the sticky %v", op.name, err, broken)
				}
			})
		})
	}
}

// TestOpenAppendSyncsWhatItReplayed: reopening the log fsyncs it unless
// it is empty. An intact non-empty log is fsynced once before the first
// append, because its records may never have reached the disk and
// recovery makes them visible; a torn tail is then cut and the cut
// fsynced too. The directory is fsynced in every case.
func TestOpenAppendSyncsWhatItReplayed(t *testing.T) {
	cases := []struct {
		name string
		// prepare leaves the log at path and returns the length to open at.
		prepare func(t *testing.T, path string) int64
		syncs   int
		// truncate: the log is cut to the replayed length, and an fsync
		// follows the cut.
		truncate bool
	}{
		{"missing", func(*testing.T, string) int64 { return 0 }, 0, false},
		{"empty", func(t *testing.T, path string) int64 {
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
			return 0
		}, 0, false},
		{"intact", func(t *testing.T, path string) int64 {
			writeLog(t, path, 2)
			fi, _ := os.Stat(path)
			return fi.Size()
		}, 1, false},
		{"torn", func(t *testing.T, path string) int64 {
			writeLog(t, path, 2)
			fi, _ := os.Stat(path)
			if err := os.Truncate(path, fi.Size()-3); err != nil {
				t.Fatal(err)
			}
			validLen, err := ReplayFS(faultfs.OS, path, func(Record) error { return nil })
			if err != nil || validLen >= fi.Size()-3 {
				t.Fatalf("replay of the torn log: validLen %d, err %v", validLen, err)
			}
			return validLen
		}, 2, true},
		{"garbage-only", func(t *testing.T, path string) int64 {
			if err := os.WriteFile(path, []byte{1, 2, 3}, 0o644); err != nil {
				t.Fatal(err)
			}
			return 0
		}, 2, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "commit.log")
			validLen := tc.prepare(t, path)
			fs := faultfs.New(faultfs.Plan{})
			fs.EnableTrace()
			w, err := OpenAppendWith(path, Options{Policy: SyncBatch, FS: fs}, replayed(validLen))
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Append(rec(9, "k", "v")); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			var syncs, syncDirs int
			truncated, syncedCut := false, false
			for _, op := range fs.Trace() {
				switch {
				case op.Op == faultfs.OpWrite:
					if syncs != tc.syncs || syncDirs != 1 || truncated != tc.truncate || syncedCut != tc.truncate {
						t.Fatalf("before the first append: %d log fsyncs, %d directory fsyncs, truncated %v, cut fsynced %v; want %d, 1, %v, %v",
							syncs, syncDirs, truncated, syncedCut, tc.syncs, tc.truncate, tc.truncate)
					}
					return
				case op.Op == faultfs.OpSync && op.Path == path:
					syncs++
					syncedCut = truncated
				case op.Op == faultfs.OpSyncDir && op.Path == dir:
					syncDirs++
				case op.Op == faultfs.OpTruncate && op.Path == path:
					if int64(op.N) != validLen {
						t.Fatalf("truncated the log to %d bytes, want %d", op.N, validLen)
					}
					truncated = true
				}
			}
			t.Fatal("the append never wrote")
		})
	}
}

// writeLog writes n one-write records to a fresh log at path.
func writeLog(t *testing.T, path string, n int) {
	t.Helper()
	w, err := CreateWith(path, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if _, err := w.Enqueue(rec(uint64(i), "k", "v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
