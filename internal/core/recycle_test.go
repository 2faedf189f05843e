package core

import (
	"errors"
	"sync/atomic"
	"testing"

	"mvdb/internal/engine"
	"mvdb/internal/vc"
)

// blockCommit is a recorder that parks one transaction's commit after
// its registration and before its VCcomplete: RecordCommit runs once
// commitTail has given back what concurrency control held.
type blockCommit struct {
	engine.NopRecorder
	hold    atomic.Uint64 // the transaction to park
	entered chan struct{}
	release chan struct{}
}

func (r *blockCommit) RecordCommit(id, _ uint64) {
	if id == r.hold.Load() {
		r.entered <- struct{}{}
		<-r.release
	}
}

// TestLinkedEntryIsNotReused: under the strict controller, a commit that
// completes while an older one is still open — the higher number first —
// leaves its entry linked in VCQueue until the older one completes and
// the drain unlinks both. Update pools the struct anyway, but the next
// Update, on the same P, must not begin it again while its entry is
// linked; the queue stays consistent and empties once the older commit
// completes. Ten rounds, since -race drops some of the pool's Puts.
func TestLinkedEntryIsNotReused(t *testing.T) {
	val := []byte("v")
	for _, p := range allProtocols() {
		t.Run(p.String(), func(t *testing.T) {
			rec := &blockCommit{entered: make(chan struct{}), release: make(chan struct{})}
			e := New(Options{Protocol: p, Recorder: rec})
			defer e.Close()
			for range 10 {
				older, err := e.BeginTx(engine.ReadWrite)
				if err != nil {
					t.Fatal(err)
				}
				if err := older.Put("older", val); err != nil {
					t.Fatal(err)
				}
				rec.hold.Store(older.ID())
				committed := make(chan error, 1)
				go func() { committed <- older.Commit() }()
				<-rec.entered

				var first *Tx
				if err := e.Update(func(tx *Tx) error { first = tx; return tx.Put("a", val) }); err != nil {
					t.Fatal(err)
				}
				if n := e.vc.QueueLen(); n != 2 {
					t.Fatalf("VCQueue holds %d entries, want the open older one and the completed newer one", n)
				}
				if err := e.Update(func(tx *Tx) error {
					if tx == first {
						return errors.New("Update began a struct whose entry is still linked in VCQueue")
					}
					return tx.Put("b", val)
				}); err != nil {
					t.Fatal(err)
				}
				rec.release <- struct{}{}
				if err := <-committed; err != nil {
					t.Fatal(err)
				}
				if err := e.vc.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				if n := e.vc.QueueLen(); n != 0 {
					t.Fatalf("VCQueue holds %d entries at rest", n)
				}
			}
		})
	}
}

// countVTNC counts reads of vtnc. On a path of Updates alone each is one
// computation of the collection watermark, which reads vtnc once and
// then scans the registry (Registry.min).
type countVTNC struct {
	vc.Controller
	reads atomic.Int64
}

func (c *countVTNC) VTNC() uint64 {
	c.reads.Add(1)
	return c.Controller.VTNC()
}

// TestWatermarkOncePerCommit: a commit computes the collection watermark
// at most once, however many of its keys find their chains full. Every
// commit here writes the same four keys, so their chains fill together
// and each commit collects on all four; computing the watermark per
// install read vtnc and scanned the registry's 64 slots four times a
// commit.
func TestWatermarkOncePerCommit(t *testing.T) {
	val := []byte("v")
	for _, p := range allProtocols() {
		t.Run(p.String(), func(t *testing.T) {
			e := New(Options{Protocol: p})
			defer e.Close()
			c := &countVTNC{Controller: e.vc}
			e.vc = c
			const commits = 50
			for range commits {
				if err := e.Update(func(tx *Tx) error {
					for _, k := range []string{"a", "b", "c", "d"} {
						if err := tx.Put(k, val); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			if n := e.stats.GCReclaimed.Load(); n < 4*(commits/2) {
				t.Fatalf("installs reclaimed %d versions in %d commits of 4 keys: chains did not fill", n, commits)
			}
			if n := c.reads.Load(); n > commits {
				t.Errorf("the watermark was computed %d times in %d commits, want at most once a commit", n, commits)
			}
		})
	}
}
