// Package schedtest is a deterministic schedule-exploration harness for
// the transaction engines: it enumerates every interleaving of a small
// set of transaction scripts and replays each one against a fresh
// engine, with the offline MVSG checker (internal/history) and the
// online auditor (internal/audit) riding the recorder plumbing.
//
// The harness turns the repo's correctness argument from "randomized
// stress found nothing" into "every schedule of this conflict pattern
// was executed and certified": for the real engines every interleaving
// must produce a serializable history (checker accepts, auditor silent),
// and for the deliberately broken baselines (internal/baseline) at least
// one interleaving must trip both oracles.
//
// Execution model: one goroutine per script, paced by a scheduler that
// is itself a recorder on the engine (engine.ParkRecorder). The engines
// report a park when a step starts to wait for another transaction (a
// 2PL lock wait, a T/O request waiting on an older pending write), and
// the step that releases it reports the wake before it returns. The
// scheduler hands out one step at a time, and the next only once every
// step handed out has finished or parked. A slot whose script is parked
// is deferred: each time nothing runs, the earliest slot left whose
// script has no step out goes next. The realized interleaving is the
// nominal one with parked suffixes shifted later, exactly as a real
// scheduler would run it; every realized execution is a legal
// concurrent history, so the oracles apply unconditionally. It is
// decided by the engine's events, not by timing, so replaying a
// schedule gives the same run: the same outcomes, the same parked steps
// and the same verdicts. No timer paces the steps; drainGrace only
// bounds a run that stops making progress.
package schedtest

import (
	"errors"
	"log/slog"
	"maps"
	"slices"
	"sync"
	"time"

	"mvdb/internal/audit"
	"mvdb/internal/engine"
	"mvdb/internal/history"
)

// OpKind is one step of a transaction script.
type OpKind int

const (
	// Get reads Key into the script's Reads map ("" on ErrNotFound).
	Get OpKind = iota
	// Put writes Value to Key.
	Put
	// Delete tombstones Key.
	Delete
	// Commit finishes the transaction.
	Commit
	// Abort discards the transaction.
	Abort
	// Begin explicitly starts the transaction. Scripts that omit it
	// begin implicitly at their first operation; an explicit Begin exists
	// so a schedule can fix the begin order independently of the first
	// data access (the A1 ablation needs tn assigned before a rival
	// commits).
	Begin
)

// Op is one script step.
type Op struct {
	Kind  OpKind
	Key   string
	Value string
}

// Script is one transaction: a name (for failure messages), a class, and
// the ordered operations. A script that does not end in Commit/Abort is
// aborted by the harness as part of its last step.
type Script struct {
	Name  string
	Class engine.Class
	Ops   []Op
}

// Outcome is what one script did in one run.
type Outcome struct {
	Name      string
	Committed bool
	// Err is the first operation error (nil for a clean run). Retryable
	// aborts (deadlock, conflict, timeout) land here; after one,
	// the script's remaining operations are skipped.
	Err error
	// Reads holds the last observed value per key ("" for a miss).
	Reads map[string]string
	// Parked lists, ascending, the indices of the operations that parked
	// (waited for another transaction) at least once.
	Parked []int
}

// RunResult is the verdict of one schedule replay.
type RunResult struct {
	Schedule []int
	Outcomes []Outcome
	// Final is the committed state after the run, read by a fresh
	// read-only transaction over every key the suite touches (missing
	// keys are absent from the map). That read also closes any MVSG
	// cycle a write-order anomaly left open, so the oracles below see it.
	Final map[string]string
	// HistoryErr is the offline MVSG checker's verdict (nil = serializable).
	HistoryErr error
	// Alarms is the online auditor's alarm count for the run.
	Alarms uint64
	// Stalled reports that the run was abandoned because it had not
	// finished by drainGrace: a parked step nothing could wake. It
	// indicates a harness or engine bug, never a legal outcome; Explore
	// fails the test on it.
	Stalled bool
}

// Suite binds scripts to an engine constructor.
type Suite struct {
	Scripts []Script
	// Bootstrap is the pre-transactional state (version 0).
	Bootstrap map[string]string
	// NewEngine builds a fresh engine for one run with the given
	// recorder attached (the harness passes engine.Multi of the offline
	// recorder and the online auditor).
	NewEngine func(rec engine.Recorder) engine.Engine
}

// drainGrace bounds a run; exceeding it marks the run Stalled. It is a
// stall detector only: no step waits on it.
const drainGrace = 10 * time.Second

// Interleavings enumerates every interleaving of n scripts with the
// given operation counts, as schedules of script indices. The count is
// the multinomial coefficient (sum(lengths))! / prod(lengths[i]!).
func Interleavings(lengths []int) [][]int {
	total := 0
	for _, l := range lengths {
		total += l
	}
	remaining := append([]int(nil), lengths...)
	cur := make([]int, 0, total)
	var out [][]int
	var rec func()
	rec = func() {
		if len(cur) == total {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := range remaining {
			if remaining[i] == 0 {
				continue
			}
			remaining[i]--
			cur = append(cur, i)
			rec()
			cur = cur[:len(cur)-1]
			remaining[i]++
		}
	}
	rec()
	return out
}

// Lengths returns the suite's per-script operation counts.
func (s *Suite) Lengths() []int {
	lengths := make([]int, len(s.Scripts))
	for i, sc := range s.Scripts {
		lengths[i] = len(sc.Ops)
	}
	return lengths
}

// Keys returns the sorted union of keys the suite can touch.
func (s *Suite) Keys() []string {
	set := map[string]bool{}
	for k := range s.Bootstrap {
		set[k] = true
	}
	for _, sc := range s.Scripts {
		for _, op := range sc.Ops {
			set[op.Key] = true
		}
	}
	delete(set, "")
	return slices.Sorted(maps.Keys(set))
}

// Run replays one schedule (a sequence of script indices; index i must
// appear exactly len(Scripts[i].Ops) times) against a fresh engine and
// returns the oracles' verdicts.
func (s *Suite) Run(schedule []int) RunResult {
	sched := &scheduler{scripts: make([]scriptState, len(s.Scripts))}
	sched.cond.L = &sched.mu
	rec := history.NewRecorder()
	aud := audit.New(audit.Options{
		Window: 256,
		Queue:  256, // far more than a run's events
		Logger: slog.New(slog.DiscardHandler),
	})
	eng := s.NewEngine(engine.Multi(rec, aud, sched))
	defer eng.Close()
	defer aud.Close()

	data := make(map[string][]byte, len(s.Bootstrap))
	for k, v := range s.Bootstrap {
		data[k] = []byte(v)
	}
	// Both core engines and the baselines expose Bootstrap.
	if err := eng.(interface{ Bootstrap(map[string][]byte) error }).Bootstrap(data); err != nil {
		panic("schedtest: bootstrap: " + err.Error())
	}

	res := RunResult{Schedule: schedule, Outcomes: make([]Outcome, len(s.Scripts))}
	for i := range s.Scripts {
		res.Outcomes[i] = Outcome{Name: s.Scripts[i].Name, Reads: map[string]string{}}
		sched.scripts[i] = scriptState{start: make(chan struct{}, 1), out: &res.Outcomes[i]}
		go runScript(eng, s.Scripts[i], sched, i)
	}
	if res.Stalled = !sched.run(schedule); res.Stalled {
		return res
	}

	// Final read-only pass: the committed state, and the read that lets
	// the oracles see write-order anomalies (A1's overwritten-but-visible
	// version is only observable through a snapshot read).
	res.Final = map[string]string{}
	if ro, err := eng.Begin(engine.ReadOnly); err == nil {
		for _, k := range s.Keys() {
			if v, err := ro.Get(k); err == nil {
				res.Final[k] = string(v)
			}
		}
		ro.Commit()
	}

	aud.Drain()
	res.Alarms = aud.AlarmsTotal()
	res.HistoryErr = rec.Check()
	return res
}

// scheduler paces one run. It is a recorder on the engine: the park
// events tell it which step handed out is waiting on another
// transaction, and it hands out the next step only once every step
// handed out has finished or parked.
type scheduler struct {
	engine.NopRecorder
	mu      sync.Mutex
	cond    sync.Cond // L is mu; broadcast on every change below
	scripts []scriptState
	stalled bool
}

// scriptState is one script's progress.
type scriptState struct {
	start  chan struct{} // the token for its next step
	out    *Outcome      // its Parked is written under the mutex
	tx     uint64        // its transaction's id, once it has begun
	handed int           // steps handed out
	done   int           // steps finished
	// parks is the current step's parks minus its wakes: positive while
	// the step is parked. A wake can overtake the park it answers, so it
	// can dip below zero for a moment.
	parks int
}

// locked runs f under the scheduler's mutex and wakes run.
func (sched *scheduler) locked(f func()) {
	sched.mu.Lock()
	defer sched.mu.Unlock()
	f()
	sched.cond.Broadcast()
}

// RecordParked implements engine.ParkRecorder. A transaction of no
// script (the final read) is ignored.
func (sched *scheduler) RecordParked(txID uint64, parked bool) {
	sched.locked(func() {
		for i := range sched.scripts {
			st := &sched.scripts[i]
			if st.tx != txID {
				continue
			}
			if !parked {
				st.parks--
				continue
			}
			st.parks++
			if p := st.out.Parked; len(p) == 0 || p[len(p)-1] != st.done {
				st.out.Parked = append(p, st.done)
			}
		}
	})
}

// run hands out the schedule's steps and waits for the last to finish,
// reporting false if the run stalled. Each time no step handed out is
// running, it hands out the earliest slot left whose script has no step
// out; it waits on the engine's events for everything else.
func (sched *scheduler) run(schedule []int) bool {
	watchdog := time.AfterFunc(drainGrace, func() { sched.locked(func() { sched.stalled = true }) })
	defer watchdog.Stop()
	left := slices.Clone(schedule)
	sched.mu.Lock()
	defer sched.mu.Unlock()
	for !sched.stalled {
		running, idle := false, true
		for _, st := range sched.scripts {
			running = running || st.handed > st.done && st.parks <= 0
			idle = idle && st.handed == st.done
		}
		k := slices.IndexFunc(left, func(i int) bool { return sched.scripts[i].handed == sched.scripts[i].done })
		switch {
		case !running && k >= 0:
			// The script has no step out, so its token channel is
			// empty and the send does not block.
			st := &sched.scripts[left[k]]
			left = slices.Delete(left, k, k+1)
			st.handed++
			st.start <- struct{}{}
		case !running && len(left) == 0 && idle:
			return true
		default: // a step runs, or every script with a slot left is parked
			sched.cond.Wait()
		}
	}
	return false
}

// runScript executes script i one step per token from the scheduler.
// Its transaction begins at its first step (an explicit Begin, or the
// first operation). After a failed operation the transaction is dead
// and the remaining steps are no-ops, so schedules keep their nominal
// length.
func runScript(eng engine.Engine, sc Script, sched *scheduler, i int) {
	st, out := &sched.scripts[i], sched.scripts[i].out
	var tx engine.Tx
	var err error
	dead := false
	for k, op := range sc.Ops {
		<-st.start
		if !dead && tx == nil && op.Kind != Abort {
			if tx, err = eng.Begin(sc.Class); err == nil {
				sched.locked(func() { st.tx = tx.ID() })
			}
		}
		if !dead && err == nil {
			switch op.Kind {
			case Get:
				var v []byte
				if v, err = tx.Get(op.Key); err == nil || errors.Is(err, engine.ErrNotFound) {
					out.Reads[op.Key], err = string(v), nil
				}
			case Put:
				err = tx.Put(op.Key, []byte(op.Value))
			case Delete:
				err = tx.Delete(op.Key)
			case Commit:
				if err = tx.Commit(); err == nil {
					out.Committed, dead, tx = true, true, nil
				}
			case Abort:
				dead = true
			}
		}
		if err != nil && !dead {
			out.Err, dead = err, true
		}
		if tx != nil && (dead || k == len(sc.Ops)-1) {
			tx.Abort()
			tx = nil
		}
		sched.locked(func() { st.done++ })
	}
}

// Explore replays every interleaving of the suite's scripts, calling
// check on each result, and returns the number of schedules run. A
// stalled run is reported through fail (the harness guarantees every
// legal schedule drains).
func (s *Suite) Explore(fail func(format string, args ...any), check func(RunResult)) int {
	schedules := Interleavings(s.Lengths())
	for _, sched := range schedules {
		r := s.Run(sched)
		if r.Stalled {
			fail("schedule %v stalled", sched)
			continue
		}
		check(r)
	}
	return len(schedules)
}
