package core

import (
	"path/filepath"
	"testing"
	"time"

	"mvdb/internal/engine"
	"mvdb/internal/faultfs"
	"mvdb/internal/obs"
)

// The read-write phases of a commit tile it: they do not overlap, so
// together they are at most the Begin→Commit time a client measures,
// and with the log's fsync dominating they are nearly all of it. A
// phase that opened before the one it follows ended (a visible-wait
// running from register rather than from the committer's VCcomplete)
// would count the fsync twice and read about 2.
func TestPhasesTileACommit(t *testing.T) {
	const (
		updates = 30
		fsync   = 3 * time.Millisecond
	)
	for _, p := range []Protocol{TwoPhaseLocking, TimestampOrdering, Optimistic} {
		t.Run(p.String(), func(t *testing.T) {
			fs := faultfs.New(faultfs.Plan{Rules: []faultfs.Rule{{
				Op: faultfs.OpSync, Path: "commit.log",
				Fault: faultfs.Fault{Delay: fsync, Sticky: true},
			}}})
			e, err := OpenDurable(filepath.Join(t.TempDir(), "commit.log"),
				Options{Protocol: p, PhaseTiming: true}, DurableOptions{FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if err := e.Bootstrap(map[string][]byte{"k": nil}); err != nil {
				t.Fatal(err)
			}

			var external time.Duration
			for i := 0; i < updates; i++ {
				start := time.Now()
				tx, err := e.BeginTx(engine.ReadWrite)
				if err != nil {
					t.Fatal(err)
				}
				v, err := tx.Get("k")
				if err != nil {
					t.Fatal(err)
				}
				if err := tx.Put("k", append(v, 'x')); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				external += time.Since(start)
			}

			var phases time.Duration
			row := obs.ProtoIdx(p).String()
			for _, ps := range e.Stats().Phases {
				if ps.Protocol == row {
					phases += time.Duration(ps.Durations.TotalNanoseconds)
				}
			}
			if r := float64(phases) / float64(external); r < 0.9 || r > 1.0 {
				t.Fatalf("%s phases sum to %v of %v Begin→Commit time (%.2f), want 0.9–1.0",
					row, phases, external, r)
			}
		})
	}
}

// Every phase cell's slowest-sample exemplar names a transaction of its
// own row. Views begin first, so transaction ids and serialization
// numbers differ: a cell that kept a tn (or 0) would name a View, or
// nothing, instead of a committer.
func TestPhaseExemplarsAreTransactionIDs(t *testing.T) {
	for _, p := range []Protocol{TwoPhaseLocking, TimestampOrdering, Optimistic} {
		t.Run(p.String(), func(t *testing.T) {
			e := New(Options{Protocol: p, PhaseTiming: true})
			defer e.Close()
			if err := e.Bootstrap(map[string][]byte{"k": nil}); err != nil {
				t.Fatal(err)
			}
			ids := map[string]map[uint64]bool{obs.ProtoRO.String(): {}, obs.ProtoIdx(p).String(): {}}
			ro, rw := ids[obs.ProtoRO.String()], ids[obs.ProtoIdx(p).String()]

			for i := 0; i < 20; i++ {
				if err := e.View(func(tx *Tx) error {
					ro[tx.ID()] = true
					_, err := tx.Get("k")
					return err
				}); err != nil {
					t.Fatal(err)
				}
			}
			update := func() {
				tx, err := e.BeginTx(engine.ReadWrite)
				if err != nil {
					t.Fatal(err)
				}
				rw[tx.ID()] = true
				if _, err := tx.Get("k"); err != nil {
					t.Fatal(err)
				}
				if err := tx.Put("k", []byte("v")); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 5; i++ {
				update()
			}

			// A read-only transaction pinned one past the visible end
			// waits (the RO row's visible-wait) until the next commit.
			pinned := make(chan *Tx, 1)
			go func() {
				tx, err := e.BeginReadOnlyAt(e.VTNC() + 1)
				if err != nil {
					t.Error(err)
				}
				pinned <- tx
			}()
			eventually(t, "the recency wait", func() bool { return e.Stats().RecencyWaits > 0 })
			update()
			tx := <-pinned
			if tx == nil {
				t.FailNow()
			}
			ro[tx.ID()] = true
			tx.Commit()

			seen := map[string]bool{}
			for _, ps := range e.Stats().Phases {
				seen[ps.Protocol+"/"+ps.Phase] = true
				if !ids[ps.Protocol][ps.SlowestTx] {
					t.Errorf("%s/%s slowest tx %d is no %s transaction", ps.Protocol, ps.Phase, ps.SlowestTx, ps.Protocol)
				}
			}
			for _, cell := range []string{
				obs.ProtoIdx(p).String() + "/" + obs.PhaseVisibleWait.String(),
				obs.ProtoRO.String() + "/" + obs.PhaseVisibleWait.String(),
			} {
				if !seen[cell] {
					t.Errorf("no %s samples", cell)
				}
			}
		})
	}
}
