package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"mvdb/internal/engine"
	"mvdb/internal/history"
	"mvdb/internal/vc"
)

// Section 6: "some applications may not be willing to sacrifice currency
// ... such transactions can be dealt with by executing them as pseudo
// read-write transactions." A read-write transaction that never writes
// reads the LATEST committed state (bypassing the visibility lag), at the
// cost of going through concurrency control.
func TestPseudoReadWriteSeesLatest(t *testing.T) {
	for _, p := range allProtocols() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			e := newEngine(t, p, nil)
			mustCommitWrite(t, e, map[string]string{"k": "0"})

			// Create a visibility lag: an older registered transaction is
			// still active while a younger one commits (T/O only; for the
			// others the lag window is empty but the test still verifies
			// currency).
			var older engine.Tx
			if p == TimestampOrdering {
				older, _ = e.Begin(engine.ReadWrite)
				if err := older.Put("unrelated", []byte("x")); err != nil {
					t.Fatal(err)
				}
			}
			mustCommitWrite(t, e, map[string]string{"k": "latest"})

			if p == TimestampOrdering {
				// The plain read-only transaction is stale...
				ro, _ := e.Begin(engine.ReadOnly)
				if got, _ := ro.Get("k"); string(got) == "latest" {
					t.Fatal("expected stale snapshot while older txn active")
				}
				ro.Commit()
			}

			// ...but the pseudo read-write transaction shows currency.
			prw, _ := e.Begin(engine.ReadWrite)
			got, err := prw.Get("k")
			if err != nil {
				t.Fatal(err)
			}
			if p == TimestampOrdering {
				// Under T/O a pseudo-rw reader is serialized at its own
				// timestamp, which is younger than the committed write.
				if string(got) != "latest" {
					t.Fatalf("pseudo-rw read %q, want latest", got)
				}
			} else if string(got) != "latest" {
				t.Fatalf("pseudo-rw read %q, want latest", got)
			}
			if err := prw.Commit(); err != nil {
				t.Fatal(err)
			}
			if older != nil {
				if err := older.Commit(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// A pure-reader read-write transaction still occupies a serialization
// position (the paper's default for transactions of unknown class), and
// histories that include it check out.
func TestUnknownClassDefaultsToSerializedReader(t *testing.T) {
	rec := history.NewRecorder()
	e := New(Options{Protocol: TwoPhaseLocking, Recorder: rec})
	defer e.Close()
	mustCommitWrite(t, e, map[string]string{"a": "1", "b": "2"})

	r, _ := e.Begin(engine.ReadWrite) // class unknown -> read-write
	if _, err := r.Get("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("b"); err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.SN(); !ok {
		t.Fatal("pure reader did not get a serialization position")
	}
	if err := rec.Check(); err != nil {
		t.Fatal(err)
	}
}

// Snapshot scans participate in the history check: a torn scan would be
// caught as an MVSG cycle. Run a scan concurrently with multi-key writers
// and verify the recorded history stays serializable.
func TestScanHistoryChecked(t *testing.T) {
	rec := history.NewRecorder()
	e := New(Options{Protocol: TwoPhaseLocking, Recorder: rec})
	defer e.Close()
	boot := map[string][]byte{}
	for i := 0; i < 8; i++ {
		boot[fmt.Sprintf("s%d", i)] = []byte{0}
	}
	if err := e.Bootstrap(boot); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := byte(1); round <= 20; round++ {
			tx, _ := e.Begin(engine.ReadWrite)
			for i := 0; i < 8; i++ {
				if err := tx.Put(fmt.Sprintf("s%d", i), []byte{round}); err != nil {
					panic(err)
				}
			}
			if err := tx.Commit(); err != nil {
				panic(err)
			}
		}
	}()
	for i := 0; i < 50; i++ {
		ro, _ := e.Begin(engine.ReadOnly)
		var first []byte
		sc := ro.(engine.Scanner)
		if err := sc.Scan("s", func(k string, v []byte) bool {
			if first == nil {
				first = v
			} else if v[0] != first[0] {
				t.Errorf("torn scan: %q saw %d, first saw %d", k, v[0], first[0])
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		ro.Commit()
	}
	<-done
	if err := rec.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestRecreateAfterDelete(t *testing.T) {
	for _, p := range allProtocols() {
		t.Run(p.String(), func(t *testing.T) {
			e := newEngine(t, p, nil)
			mustCommitWrite(t, e, map[string]string{"k": "v1"})
			tx, _ := e.Begin(engine.ReadWrite)
			if err := tx.Delete("k"); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			mustCommitWrite(t, e, map[string]string{"k": "v2"})
			ro, _ := e.Begin(engine.ReadOnly)
			if got, err := ro.Get("k"); err != nil || string(got) != "v2" {
				t.Fatalf("Get = (%q,%v), want v2", got, err)
			}
			ro.Commit()
		})
	}
}

// Deep version chains: binary search must find the right version at every
// historical snapshot. An open snapshot keeps the installs from
// collecting the history.
func TestDeepVersionChainSnapshots(t *testing.T) {
	e := newEngine(t, TimestampOrdering, nil)
	hold, _ := e.Begin(engine.ReadOnly)
	defer hold.Commit()
	var tns []uint64
	for i := 0; i < 200; i++ {
		tx, _ := e.Begin(engine.ReadWrite)
		if err := tx.Put("k", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		tn, _ := tx.SN()
		tns = append(tns, tn)
	}
	for i, tn := range tns {
		ro, err := e.BeginReadOnlyAt(tn)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ro.Get("k")
		if err != nil || string(got) != fmt.Sprintf("v%d", i) {
			t.Fatalf("snapshot %d: got (%q,%v), want v%d", tn, got, err, i)
		}
		ro.Commit()
	}
}

// parkLog is a recorder that keeps the park events, and the order of
// each against the test's own marks.
type parkLog struct {
	engine.NopRecorder
	mu     sync.Mutex
	events []string
}

func (p *parkLog) RecordParked(id uint64, parked bool) {
	p.mark(fmt.Sprintf("%d parked %v", id, parked))
}

func (p *parkLog) mark(s string) {
	p.mu.Lock()
	p.events = append(p.events, s)
	p.mu.Unlock()
}

func (p *parkLog) log() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.Clone(p.events)
}

// A BeginReadOnlyRecent that waits for an older transaction parks in the
// recorder's eyes, and the commit or abort that lets it through tells it
// before it returns, as a lock's or a pending version's resolver does.
func TestRecencyWaitIsAPark(t *testing.T) {
	for _, mode := range []vc.Mode{vc.ModeStrict, vc.ModeEpoch} {
		for _, commit := range []bool{true, false} {
			t.Run(fmt.Sprintf("%v/commit=%v", mode, commit), func(t *testing.T) {
				rec := &parkLog{}
				e := New(Options{Protocol: TimestampOrdering, Visibility: mode, Recorder: rec})
				older, _ := e.Begin(engine.ReadWrite) // registered at begin: tnc passes it
				if err := older.Put("k", []byte("v")); err != nil {
					t.Fatal(err)
				}
				got := make(chan uint64)
				go func() {
					ro, err := e.BeginReadOnlyRecent()
					if err != nil {
						t.Error(err)
					}
					got <- ro.ID()
					ro.Commit()
				}()
				eventually(t, "the recency wait's park", func() bool { return len(rec.log()) > 0 })
				if commit {
					if err := older.Commit(); err != nil {
						t.Fatal(err)
					}
				} else {
					older.Abort()
				}
				rec.mark("resolved")
				id := <-got
				want := []string{fmt.Sprintf("%d parked true", id), fmt.Sprintf("%d parked false", id), "resolved"}
				if got := rec.log(); !slices.Equal(got, want) {
					t.Fatalf("events %q, want %q", got, want)
				}
			})
		}
	}
}
