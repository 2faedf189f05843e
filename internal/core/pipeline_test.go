package core

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvdb/internal/engine"
	"mvdb/internal/faultfs"
)

// gateFS is a faultfs.FS over real files whose log fsyncs a test can
// hold and fail: while armed, every Sync of the commit log announces
// itself on entered, then blocks until the test sends its verdict on
// verdict (nil: go on and fsync).
type gateFS struct {
	faultfs.FS
	armed   atomic.Bool
	entered chan struct{}
	verdict chan error
}

func newGateFS() *gateFS {
	return &gateFS{FS: faultfs.OS, entered: make(chan struct{}), verdict: make(chan error)}
}

func (g *gateFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasSuffix(name, "commit.log") {
		return f, err
	}
	return &gateFile{File: f, g: g}, nil
}

type gateFile struct {
	faultfs.File
	g *gateFS
}

func (f *gateFile) Sync() error {
	if f.g.armed.Load() {
		f.g.entered <- struct{}{}
		if err := <-f.g.verdict; err != nil {
			return err
		}
	}
	return f.File.Sync()
}

var errGate = errors.New("gate: injected fsync failure")

// abandon disarms the gate and fails whatever fsync it still holds, so a
// test that has already failed can close its log instead of hanging.
func (g *gateFS) abandon() {
	g.armed.Store(false)
	select {
	case <-g.entered:
		g.verdict <- errGate
	case g.verdict <- errGate:
	default:
	}
}

// within fails the test if fn has not returned after five seconds — at
// the parent order (locks held across the fsync) the steps below block
// for as long as the gate is held.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s still blocked after 5s", what)
	}
}

// eventually polls cond until it holds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("%s: never happened", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// pipeline is one engine over a gated log, with the transaction number
// of every visibility event in order.
type pipeline struct {
	t    *testing.T
	fs   *gateFS
	e    *Engine
	rec  *countingRecorder
	mu   sync.Mutex
	seen []uint64 // tn, in the order they became visible
}

func openPipeline(t *testing.T, p Protocol) *pipeline {
	t.Helper()
	pl := &pipeline{t: t, fs: newGateFS(), rec: &countingRecorder{}}
	var err error
	pl.e, err = OpenDurable(filepath.Join(t.TempDir(), "commit.log"),
		Options{Protocol: p, Recorder: pl.rec, PhaseTiming: true},
		DurableOptions{FS: pl.fs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pl.fs.abandon(); pl.e.Close() })
	return pl
}

func (pl *pipeline) view(key string) string {
	pl.t.Helper()
	ro, err := pl.e.Begin(engine.ReadOnly)
	if err != nil {
		pl.t.Fatal(err)
	}
	defer ro.Commit()
	v, err := ro.Get(key)
	if err != nil {
		pl.t.Fatalf("View Get(%q): %v", key, err)
	}
	return string(v)
}

func (pl *pipeline) appends() uint64 {
	a, _, _ := pl.e.log.Counters()
	return a
}

// awaitInstalled returns once value is the newest version of key in the
// store. The gate's entered says T1's record is being fsynced, which
// under SyncBatch the flusher may start before T1 has put its versions
// in.
func awaitInstalled(t *testing.T, e *Engine, key, value string) {
	t.Helper()
	eventually(t, "the committer in its fsync wait installing "+key, func() bool {
		v, _ := e.latest(key)
		return string(v.Data) == value
	})
}

// inFlight commits tx on its own goroutine and returns the channel its
// result arrives on.
func inFlight(tx engine.Tx) <-chan error {
	c := make(chan error, 1)
	go func() { c <- tx.Commit() }()
	return c
}

// script runs the pipelined-commit scenario up to the point where T1
// sits in its fsync wait and its dependent T2 — which read T1's value —
// has enqueued behind it: neither is acknowledged, neither is visible.
// It returns the two pending commits and their transactions.
func (pl *pipeline) script() (c1, c2 <-chan error, t1, t2 engine.Tx) {
	t, e := pl.t, pl.e
	mustCommitWrite(t, e, map[string]string{"k": "v0"})
	vtnc0, base := e.VTNC(), pl.appends()
	pl.fs.armed.Store(true)

	t1, _ = e.Begin(engine.ReadWrite)
	if err := t1.Put("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	c1 = inFlight(t1)
	within(t, "T1 reaching its fsync", func() { <-pl.fs.entered })
	awaitInstalled(t, e, "k", "v1")

	// T1 has given back its lock / the validation section / its pending
	// version: T2 gets through all of them and reads what T1 wrote.
	t2, _ = e.Begin(engine.ReadWrite)
	within(t, "T2 reading T1's key", func() {
		if v, err := t2.Get("k"); err != nil || string(v) != "v1" {
			t.Errorf("T2 Get(k) = (%q, %v), want T1's v1", v, err)
		}
	})
	if err := t2.Put("k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	c2 = inFlight(t2)
	eventually(t, "T2 enqueueing behind T1", func() bool { return pl.appends() == base+2 })

	if got := pl.view("k"); got != "v0" {
		t.Fatalf("View during the fsync wait read %q, want v0", got)
	}
	if got := e.VTNC(); got != vtnc0 {
		t.Fatalf("vtnc moved to %d during the fsync wait (was %d)", got, vtnc0)
	}
	select {
	case err := <-c1:
		t.Fatalf("T1's Commit returned (%v) before its record was durable", err)
	case err := <-c2:
		t.Fatalf("T2's Commit returned (%v) before its record was durable", err)
	default:
	}
	return c1, c2, t1, t2
}

var pipelineCases = []struct {
	name     string
	protocol Protocol
}{
	{"2pl/batch", TwoPhaseLocking},
	{"to/batch", TimestampOrdering},
	{"occ/batch", Optimistic},
}

// Concurrency control is given back at enqueue; acknowledgement and
// visibility wait for durability and come in tn order.
func TestPipelinedCommit(t *testing.T) {
	for _, c := range pipelineCases {
		t.Run(c.name, func(t *testing.T) {
			pl := openPipeline(t, c.protocol)
			// Replaces the engine's own tap (phase timing is on), which
			// this test does not read.
			pl.e.VC().SetVisibleObserver(func(tn uint64, _ time.Duration) {
				pl.mu.Lock()
				pl.seen = append(pl.seen, tn)
				pl.mu.Unlock()
			})
			c1, c2, t1, t2 := pl.script()

			pl.fs.armed.Store(false) // T2's own fsync, if it needs one, goes straight through
			pl.fs.verdict <- nil
			within(t, "both commits returning", func() {
				if err := <-c1; err != nil {
					t.Errorf("T1 Commit: %v", err)
				}
				if err := <-c2; err != nil {
					t.Errorf("T2 Commit: %v", err)
				}
			})
			tn1, _ := t1.SN()
			tn2, _ := t2.SN()
			if tn1 >= tn2 {
				t.Fatalf("tn(T1) = %d, tn(T2) = %d: the dependent is not serialized after its writer", tn1, tn2)
			}
			pl.e.VC().WaitVisible(tn2)
			pl.mu.Lock()
			seen := append([]uint64(nil), pl.seen...)
			pl.mu.Unlock()
			if n := len(seen); n < 2 || seen[n-2] != tn1 || seen[n-1] != tn2 {
				t.Fatalf("visibility order %v, want ... %d %d", seen, tn1, tn2)
			}
			if got := pl.view("k"); got != "v2" {
				t.Fatalf("View after both commits read %q, want v2", got)
			}
		})
	}
}

// The same script with the fsync failing: the writer and its dependent
// both abort with cause log, their versions are withdrawn, and the
// broken log takes no further record.
func TestPipelinedCommitLogFailure(t *testing.T) {
	for _, c := range pipelineCases {
		t.Run(c.name, func(t *testing.T) {
			pl := openPipeline(t, c.protocol)
			c1, c2, t1, t2 := pl.script()
			appends := pl.appends()

			pl.fs.verdict <- errGate
			within(t, "both commits failing", func() {
				for _, c := range []<-chan error{c1, c2} {
					if err := <-c; !errors.Is(err, errGate) || !strings.Contains(err.Error(), "core: commit log") {
						t.Errorf("Commit over the failed fsync: err = %v", err)
					}
				}
			})
			if v, _ := pl.e.Store().Get("k").LatestCommitted(); string(v.Data) != "v0" {
				t.Fatalf("latest version of k is %q (tn %d), want the pre-T1 v0", v.Data, v.TN)
			}
			tn2, _ := t2.SN()
			if tn1, _ := t1.SN(); pl.e.VTNC() < tn2 || tn1 >= tn2 {
				t.Fatalf("vtnc = %d, want past tn(T1) = %d and tn(T2) = %d", pl.e.VTNC(), tn1, tn2)
			}
			if got := pl.view("k"); got != "v0" {
				t.Fatalf("View after the failure read %q, want v0", got)
			}

			// A third commit fails before it reaches the log.
			t3, _ := pl.e.Begin(engine.ReadWrite)
			if err := t3.Put("k", []byte("v3")); err != nil {
				t.Fatal(err)
			}
			if err := t3.Commit(); !errors.Is(err, errGate) {
				t.Fatalf("commit on the broken log: err = %v, want the sticky fsync error", err)
			}
			if pl.appends() != appends {
				t.Fatalf("the broken log accepted a record (%d appends, was %d)", pl.appends(), appends)
			}

			sn := pl.e.Snapshot()
			if sn.AbortsLog != 3 || sn.AbortsTotal() != 3 || pl.rec.aborts != 3 || sn.CommitsRW != 1 {
				t.Fatalf("after three log aborts: AbortsLog %d, AbortsTotal %d, recorder aborts %d, CommitsRW %d",
					sn.AbortsLog, sn.AbortsTotal(), pl.rec.aborts, sn.CommitsRW)
			}
		})
	}
}

// Invariant 4: a read-write transaction with an empty write set still
// takes a ticket, so it is neither acknowledged before the writer of
// what it read nor acknowledged at all if that writer's record is lost.
func TestEmptyWriteSetWaitsForItsDependency(t *testing.T) {
	for _, fail := range []bool{false, true} {
		for _, p := range []Protocol{TwoPhaseLocking, TimestampOrdering, Optimistic} {
			name := p.String() + "/durable"
			if fail {
				name = p.String() + "/lost"
			}
			t.Run(name, func(t *testing.T) {
				pl := openPipeline(t, p)
				mustCommitWrite(t, pl.e, map[string]string{"k": "v0"})
				base := pl.appends()
				pl.fs.armed.Store(true)
				t1, _ := pl.e.Begin(engine.ReadWrite)
				if err := t1.Put("k", []byte("v1")); err != nil {
					t.Fatal(err)
				}
				c1 := inFlight(t1)
				within(t, "T1 reaching its fsync", func() { <-pl.fs.entered })
				awaitInstalled(t, pl.e, "k", "v1")

				r, _ := pl.e.Begin(engine.ReadWrite)
				if v, err := r.Get("k"); err != nil || string(v) != "v1" {
					t.Fatalf("reader Get(k) = (%q, %v), want T1's v1", v, err)
				}
				cr := inFlight(r)
				eventually(t, "the reader's empty record enqueueing", func() bool { return pl.appends() == base+2 })
				select {
				case err := <-cr:
					t.Fatalf("reader acknowledged (%v) while what it read was not durable", err)
				default:
				}

				var verdict error
				if fail {
					verdict = errGate
				}
				pl.fs.armed.Store(false)
				pl.fs.verdict <- verdict
				within(t, "both commits returning", func() {
					for _, c := range []<-chan error{c1, cr} {
						if err := <-c; !errors.Is(err, verdict) {
							t.Errorf("Commit: err = %v, want %v", err, verdict)
						}
					}
				})
			})
		}
	}
}
