package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"mvdb/internal/faultfs"
)

// freeSyncFS is the real filesystem with every fsync free: a file Sync
// is counted and returns at once (or after stall, a modelled device's
// latency), and a directory fsync does nothing. Over it, opening and
// loading a log costs CPU only, and the syncs a lifecycle issues are a
// count.
type freeSyncFS struct {
	faultfs.FS
	syncs atomic.Int64
	stall time.Duration
}

func newFreeSyncFS() *freeSyncFS { return &freeSyncFS{FS: faultfs.OS} }

type freeSyncFile struct {
	faultfs.File
	fs *freeSyncFS
}

func (f freeSyncFile) Sync() error {
	f.fs.syncs.Add(1)
	time.Sleep(f.fs.stall)
	return nil
}

func (fs *freeSyncFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return freeSyncFile{f, fs}, nil
}

func (fs *freeSyncFS) Open(name string) (faultfs.File, error) {
	return fs.OpenFile(name, os.O_RDONLY, 0)
}

func (*freeSyncFS) SyncDir(string) error { return nil }

// loadDurable commits n Updates of per ascending keys each through e:
// the shape of a bulk load. Given a permutation of the n*per key
// numbers, it writes them in that order instead.
func loadDurable(tb testing.TB, e *Engine, n, per int, order ...int) {
	tb.Helper()
	val := make([]byte, 64)
	for i := 0; i < n; i++ {
		err := e.Update(func(tx *Tx) error {
			for j := 0; j < per; j++ {
				k := i*per + j
				if order != nil {
					k = order[k]
				}
				if err := tx.Put(fmt.Sprintf("k%05d", k), val); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
}

// TestDurableLifecycleSyncs: a fresh open, n durable load commits, Close
// and a reopen issue n+1 fsyncs — one per commit and the reopen's over
// the log it replayed. Opening an empty log and closing one whose every
// record is covered issue none.
func TestDurableLifecycleSyncs(t *testing.T) {
	const n, per = 8, 50
	for _, p := range allProtocols() {
		t.Run(p.String(), func(t *testing.T) {
			fs := newFreeSyncFS()
			path := filepath.Join(t.TempDir(), "commit.log")
			e := openFS(t, fs, path, p)
			if got := fs.syncs.Load(); got != 0 {
				t.Fatalf("opening an empty log issued %d fsyncs, want 0", got)
			}
			loadDurable(t, e, n, per)
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if got := fs.syncs.Load(); got != n {
				t.Fatalf("load and Close issued %d fsyncs, want %d, one per commit", got, n)
			}
			re := openFS(t, fs, path, p)
			defer re.Close()
			if got := fs.syncs.Load(); got != n+1 {
				t.Fatalf("the lifecycle issued %d fsyncs, want %d", got, n+1)
			}
			if got := re.Store().Len(); got != n*per {
				t.Fatalf("recovered %d keys, want %d", got, n*per)
			}
		})
	}
}

// BenchmarkNew builds and closes an in-memory engine: what each store,
// baseline and cluster site pays before its first transaction.
func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := New(Options{}).Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpenDurable reopens a 4 000-key log written as 8 records of
// 500 writes — a bulk load's shape. With fsyncs free it measures the CPU
// of recovery: replay, the store and the index. With each file fsync
// stalled 1 ms, like the benchmark rig's modelled device, it measures
// what a reopen waits: the log's fsync runs beside the replay, so about
// the larger of the two rather than their sum. random-keys is free-sync
// over a log whose keys were first written in random order, so the
// replay inserts them into the key table out of order.
func BenchmarkOpenDurable(b *testing.B) {
	for _, bc := range []struct {
		name   string
		stall  time.Duration
		random bool
	}{{"free-sync", 0, false}, {"1ms-sync", time.Millisecond, false}, {"random-keys", 0, true}} {
		b.Run(bc.name, func(b *testing.B) {
			fs := newFreeSyncFS()
			path := filepath.Join(b.TempDir(), "commit.log")
			e, err := OpenDurable(path, Options{}, DurableOptions{FS: fs})
			if err != nil {
				b.Fatal(err)
			}
			var order []int
			if bc.random {
				order = rand.New(rand.NewSource(1)).Perm(8 * 500)
			}
			loadDurable(b, e, 8, 500, order...)
			if err := e.Close(); err != nil {
				b.Fatal(err)
			}
			fs.stall = bc.stall
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				re, err := OpenDurable(path, Options{}, DurableOptions{FS: fs})
				if err != nil {
					b.Fatal(err)
				}
				if err := re.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
