package core

import (
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mvdb/internal/engine"
	"mvdb/internal/lock"
	"mvdb/internal/obs"
	"mvdb/internal/wal"
)

// countingRecorder is the Options.Recorder sink of the agreement test.
type countingRecorder struct {
	engine.NopRecorder
	mu                             sync.Mutex
	begins, reads, commits, aborts int64
}

func (r *countingRecorder) add(n *int64) { r.mu.Lock(); *n++; r.mu.Unlock() }

func (r *countingRecorder) RecordBegin(uint64, engine.Class)  { r.add(&r.begins) }
func (r *countingRecorder) RecordRead(uint64, string, uint64) { r.add(&r.reads) }
func (r *countingRecorder) RecordCommit(uint64, uint64)       { r.add(&r.commits) }
func (r *countingRecorder) RecordAbort(uint64)                { r.add(&r.aborts) }

// sinkScript drives one engine through a known number of commits and of
// aborts per cause. Every conflict scenario below is forced by the order
// of calls, never by timing: where a second goroutine is needed (a lock
// request that must block), the script waits on the lock manager's own
// counter before its next step. Where timing picks which transaction a
// conflict aborts (a deadlock's victim), the counts do not depend on it.
type sinkScript struct {
	t *testing.T
	e *Engine

	commitsRW, commitsRO, abortsRO int64
	reads                          int64
	installs                       int64            // commits that got as far as putting their versions in
	aborts                         map[string]int64 // by Stats cause
}

func (s *sinkScript) begin(class engine.Class) engine.Tx {
	s.t.Helper()
	tx, err := s.e.Begin(class)
	if err != nil {
		s.t.Fatal(err)
	}
	return tx
}

func (s *sinkScript) must(err error) {
	s.t.Helper()
	if err != nil {
		s.t.Fatal(err)
	}
}

// get reads a key that exists or not; either way one read is recorded.
func (s *sinkScript) get(tx engine.Tx, key string) {
	s.t.Helper()
	if _, err := tx.Get(key); err != nil && !errors.Is(err, engine.ErrNotFound) {
		s.t.Fatal(err)
	}
	s.reads++
}

func (s *sinkScript) commit(tx engine.Tx) {
	s.t.Helper()
	s.must(tx.Commit())
	s.commitsRW++
	s.installs++
}

// aborted checks that err is the engine error of an abort the script
// provoked, and books it under its Stats cause.
func (s *sinkScript) aborted(err, want error, cause string) {
	s.t.Helper()
	if !errors.Is(err, want) {
		s.t.Fatalf("%s abort: err = %v, want %v", cause, err, want)
	}
	s.aborts[cause]++
}

// blockedPut runs tx.Put(key) on a second goroutine and returns once
// the lock manager's Waits counter shows the request has blocked. The
// channel delivers the Put's result.
func (s *sinkScript) blockedPut(tx engine.Tx, key string, counter func() uint64) <-chan error {
	before := counter()
	done := make(chan error, 1)
	go func() { done <- tx.Put(key, []byte("v")) }()
	eventually(s.t, "the lock request blocking", func() bool { return counter() != before })
	return done
}

// common is the part of the script every read-write protocol runs.
func (s *sinkScript) common() {
	for i := 0; i < 3; i++ {
		tx := s.begin(engine.ReadWrite)
		s.get(tx, "a")
		s.must(tx.Put("a", []byte{byte(i)}))
		s.must(tx.Put("b", []byte{byte(i)}))
		s.commit(tx)
	}
	for i := 0; i < 2; i++ {
		tx := s.begin(engine.ReadWrite)
		s.must(tx.Put("u", []byte("v")))
		tx.Abort()
		s.aborts["user"]++
	}
}

// logFailures loses three commits to the log: one whose fsync fails, a
// dependent that read its value and enqueued behind it while that fsync
// was in flight, and one that finds the writer already broken.
func (s *sinkScript) logFailures(fs *gateFS, log *wal.Writer) {
	logged := func(err error) {
		s.t.Helper()
		if !strings.Contains(err.Error(), "core: commit log") {
			s.t.Fatalf("commit over failed fsync: err = %v", err)
		}
		s.aborted(err, errGate, "log")
	}
	base, _, _ := log.Counters()
	fs.armed.Store(true)
	t1 := s.begin(engine.ReadWrite)
	s.must(t1.Put("z", []byte("v")))
	c1 := inFlight(t1)
	within(s.t, "the doomed commit reaching its fsync", func() { <-fs.entered })
	awaitInstalled(s.t, s.e, "z", "v")
	t2 := s.begin(engine.ReadWrite)
	s.get(t2, "z")
	s.must(t2.Put("z", []byte("w")))
	c2 := inFlight(t2)
	eventually(s.t, "the dependent enqueueing", func() bool { a, _, _ := log.Counters(); return a == base+2 })
	fs.verdict <- errGate
	logged(<-c1)
	logged(<-c2)
	s.installs += 2 // both had their versions in, and withdrew them

	t3 := s.begin(engine.ReadWrite)
	s.must(t3.Put("z", []byte("v")))
	logged(t3.Commit())
}

var sinkCases = []struct {
	name      string
	protocol  Protocol
	policy    lock.Policy
	conflicts func(s *sinkScript)
}{
	{"2pl/detect", TwoPhaseLocking, lock.Detect, func(s *sinkScript) {
		t1, t2 := s.begin(engine.ReadWrite), s.begin(engine.ReadWrite)
		s.must(t1.Put("x", []byte("1")))
		s.must(t2.Put("y", []byte("2")))
		t1Put := s.blockedPut(t1, "y", s.e.locks.Waits)
		// t2's request closes the cycle. The victim is the request whose
		// detection walk sees it: t1 counts its wait before it walks, so
		// its walk may come after t2 has queued and pick t1 instead.
		if err := t2.Put("x", []byte("2")); err != nil {
			s.aborted(err, engine.ErrDeadlock, "deadlock")
			s.must(<-t1Put)
			s.commit(t1)
		} else {
			s.aborted(<-t1Put, engine.ErrDeadlock, "deadlock")
			s.commit(t2)
		}
	}},
	{"2pl/timeout", TwoPhaseLocking, lock.TimeoutPolicy, func(s *sinkScript) {
		t1, t2 := s.begin(engine.ReadWrite), s.begin(engine.ReadWrite)
		s.must(t1.Put("x", []byte("1")))
		s.aborted(t2.Put("x", []byte("2")), engine.ErrDeadlock, "timeout")
		s.commit(t1)
	}},
	{"to", TimestampOrdering, lock.Detect, func(s *sinkScript) {
		for i := 0; i < 2; i++ {
			old, young := s.begin(engine.ReadWrite), s.begin(engine.ReadWrite)
			s.get(young, "a") // raises r-ts(a) past old
			s.aborted(old.Put("a", []byte("late")), engine.ErrConflict, "conflict")
			s.commit(young)
		}
	}},
	{"occ", Optimistic, lock.Detect, func(s *sinkScript) {
		overwrite := func() {
			tx := s.begin(engine.ReadWrite)
			s.must(tx.Put("a", []byte("moved")))
			s.commit(tx)
		}
		t1 := s.begin(engine.ReadWrite)
		s.get(t1, "a")
		overwrite()
		s.must(t1.Put("b", []byte("stale")))
		s.aborted(t1.Commit(), engine.ErrConflict, "conflict")
		t1 = s.begin(engine.ReadWrite)
		s.get(t1, "a")
		overwrite()
		_, err := t1.Get("a")
		s.aborted(err, engine.ErrConflict, "conflict")
	}},
	{"ro", TwoPhaseLocking, lock.Detect, func(s *sinkScript) {
		for i := 0; i < 4; i++ {
			tx := s.begin(engine.ReadOnly)
			s.get(tx, "a")
			s.get(tx, "never-written")
			s.must(tx.Commit())
			s.commitsRO++
		}
		for i := 0; i < 2; i++ {
			tx := s.begin(engine.ReadOnly)
			s.get(tx, "b")
			tx.Abort()
			s.aborts["user"]++
			s.abortsRO++
		}
	}},
}

// TestSinkAgreement runs, per protocol, a script with a known number of
// commits and of aborts per cause against an engine with every sink on
// — Recorder, stats, phase timing — over a log whose fsync fails after
// the script's last good commit, and requires all of them to report the
// script's numbers.
func TestSinkAgreement(t *testing.T) {
	for _, c := range sinkCases {
		t.Run(c.name, func(t *testing.T) {
			fs := newGateFS()
			rec := &countingRecorder{}
			e, err := OpenDurable(filepath.Join(t.TempDir(), "commit.log"), Options{
				Protocol: c.protocol, LockPolicy: c.policy, LockTimeout: 5 * time.Millisecond,
				Recorder: rec, PhaseTiming: true,
			}, DurableOptions{FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()

			s := &sinkScript{t: t, e: e, aborts: map[string]int64{}}
			s.common()
			c.conflicts(s)
			s.logFailures(fs, e.log)

			var abortsTotal int64
			for _, n := range s.aborts {
				abortsTotal += n
			}
			commits := s.commitsRW + s.commitsRO
			eq := func(what string, got, want int64) {
				t.Helper()
				if got != want {
					t.Errorf("%s = %d, want %d", what, got, want)
				}
			}

			sn := e.Stats()
			eq("Stats.CommitsRW", sn.CommitsRW, s.commitsRW)
			eq("Stats.CommitsRO", sn.CommitsRO, s.commitsRO)
			eq("Stats.AbortsConflict", sn.AbortsConflict, s.aborts["conflict"])
			eq("Stats.AbortsDeadlock", sn.AbortsDeadlock, s.aborts["deadlock"])
			eq("Stats.AbortsTimeout", sn.AbortsTimeout, s.aborts["timeout"])
			eq("Stats.AbortsUser", sn.AbortsUser, s.aborts["user"])
			eq("Stats.AbortsLog", sn.AbortsLog, s.aborts["log"])
			eq("Stats.AbortsTotal", sn.AbortsTotal(), abortsTotal)
			eq("Stats.BeginsRW", sn.BeginsRW, s.commitsRW+abortsTotal-s.abortsRO)
			eq("Stats.BeginsRO", sn.BeginsRO, s.commitsRO+s.abortsRO)

			eq("recorder begins", rec.begins, commits+abortsTotal)
			eq("recorder commits", rec.commits, commits)
			eq("recorder aborts", rec.aborts, abortsTotal)
			eq("recorder reads", rec.reads, s.reads)

			var installs int64
			for _, ps := range sn.Phases {
				if ps.Phase == obs.PhaseInstall.String() {
					installs += int64(ps.Durations.Count)
				}
			}
			eq("install phase samples", installs, s.installs)
		})
	}
}
