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
// Execution model: one goroutine per script, lock-stepped by the
// scheduler. The scheduler dispatches exactly one operation per schedule
// slot and waits briefly for it to finish; an operation that does not
// finish is *blocked* (a 2PL lock wait, a T/O read waiting on an older
// pending write) and the scheduler moves on — the op completes
// asynchronously once another script unblocks it. The realized
// interleaving may therefore locally reorder around blocked operations,
// exactly as a real scheduler would; every realized execution is still a
// legal concurrent history, so the oracles apply unconditionally.
package schedtest

import (
	"errors"
	"log/slog"
	"sort"
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
// the ordered operations. A read-write script that does not end in
// Commit/Abort is aborted by the harness at the end of the run.
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
	// Stalled reports that the run was abandoned because an operation
	// stayed blocked past the drain deadline. It indicates a harness or
	// engine bug, never a legal outcome; Explore fails the test on it.
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

const (
	// opGrace is how long the scheduler waits for a dispatched operation
	// before declaring it blocked and moving to the next slot.
	opGrace = 10 * time.Millisecond
	// drainGrace bounds the end-of-run drain; exceeding it marks the
	// run Stalled.
	drainGrace = 10 * time.Second
)

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
	set := map[string]struct{}{}
	for k := range s.Bootstrap {
		set[k] = struct{}{}
	}
	for _, sc := range s.Scripts {
		for _, op := range sc.Ops {
			if op.Key != "" {
				set[op.Key] = struct{}{}
			}
		}
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Run replays one schedule (a sequence of script indices; index i must
// appear exactly len(Scripts[i].Ops) times) against a fresh engine and
// returns the oracles' verdicts.
func (s *Suite) Run(schedule []int) RunResult {
	rec := history.NewRecorder()
	aud := audit.New(audit.Options{
		Window: 256,
		Logger: slog.New(slog.DiscardHandler),
	})
	eng := s.NewEngine(engine.Multi(rec, aud))
	defer eng.Close()
	defer aud.Close()

	if len(s.Bootstrap) > 0 {
		data := make(map[string][]byte, len(s.Bootstrap))
		for k, v := range s.Bootstrap {
			data[k] = []byte(v)
		}
		// Both core engines and the baseline wrappers expose Bootstrap.
		if b, ok := eng.(interface{ Bootstrap(map[string][]byte) error }); ok {
			if err := b.Bootstrap(data); err != nil {
				panic("schedtest: bootstrap: " + err.Error())
			}
		} else {
			panic("schedtest: engine does not support Bootstrap")
		}
	}

	res := RunResult{Schedule: schedule, Outcomes: make([]Outcome, len(s.Scripts))}
	n := len(s.Scripts)
	start := make([]chan struct{}, n)
	done := make([]chan struct{}, n)
	var wg sync.WaitGroup
	for i := range s.Scripts {
		// start is buffered to the script length so tokens for a script
		// whose current operation is blocked queue up instead of
		// stalling the scheduler; the worker still consumes them
		// strictly one operation at a time, in program order.
		start[i] = make(chan struct{}, len(s.Scripts[i].Ops))
		done[i] = make(chan struct{}, len(s.Scripts[i].Ops))
		res.Outcomes[i] = Outcome{Name: s.Scripts[i].Name, Reads: map[string]string{}}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runScript(eng, s.Scripts[i], start[i], done[i], &res.Outcomes[i])
		}(i)
	}

	// Lock-step dispatch: one start token per schedule slot, then a
	// short wait for its completion. A blocked operation (lock wait,
	// pending-version wait) does not finish inside its slot; its start —
	// and any later tokens for the same script — queue in the buffered
	// channel and the worker consumes them in program order once the op
	// unblocks. A schedule slot that lands while its script is blocked is
	// therefore *deferred*, never executed out of order: the realized
	// interleaving is the nominal one with blocked suffixes shifted
	// later, which is exactly what a real scheduler would produce.
	for _, i := range schedule {
		start[i] <- struct{}{}
		select {
		case <-done[i]:
		case <-time.After(opGrace):
			// Blocked (or merely slow): it completes asynchronously and
			// its done token is consumed by a later slot's wait or by
			// the final drain.
		}
	}

	// Drain: every start token is out; wait for the workers to finish.
	// Blocked operations resolve as rival scripts commit, abort, or are
	// cleaned up (the end-of-script auto-abort releases their locks).
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(drainGrace):
		res.Stalled = true
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

// runScript executes one script in lock-step: one operation per start
// token, one done token per finished operation. After a failed operation
// the transaction is dead and the remaining slots are consumed as no-ops
// so schedules keep their nominal length.
func runScript(eng engine.Engine, sc Script, start <-chan struct{}, done chan<- struct{}, out *Outcome) {
	var tx engine.Tx
	dead := false
	fail := func(err error) {
		if out.Err == nil {
			out.Err = err
		}
		if tx != nil {
			tx.Abort()
		}
		dead = true
	}
	begin := func() {
		if tx != nil || dead {
			return
		}
		t, err := eng.Begin(sc.Class)
		if err != nil {
			fail(err)
			return
		}
		tx = t
	}
	for _, op := range sc.Ops {
		<-start
		if !dead {
			switch op.Kind {
			case Begin:
				begin()
			case Get:
				if begin(); !dead {
					v, err := tx.Get(op.Key)
					switch {
					case err == nil:
						out.Reads[op.Key] = string(v)
					case errors.Is(err, engine.ErrNotFound):
						out.Reads[op.Key] = ""
					default:
						fail(err)
					}
				}
			case Put:
				if begin(); !dead {
					if err := tx.Put(op.Key, []byte(op.Value)); err != nil {
						fail(err)
					}
				}
			case Delete:
				if begin(); !dead {
					if err := tx.Delete(op.Key); err != nil {
						fail(err)
					}
				}
			case Commit:
				if begin(); !dead {
					if err := tx.Commit(); err != nil {
						fail(err)
					} else {
						out.Committed = true
						dead = true
					}
				}
			case Abort:
				if tx != nil {
					tx.Abort()
				}
				dead = true
			}
		}
		done <- struct{}{}
	}
	if tx != nil && !dead {
		tx.Abort()
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
