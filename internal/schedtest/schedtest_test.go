package schedtest

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"mvdb/internal/baseline"
	"mvdb/internal/core"
	"mvdb/internal/engine"
	"mvdb/internal/vc"
)

func TestInterleavingsEnumeration(t *testing.T) {
	cases := []struct {
		lengths []int
		want    int
	}{
		{[]int{1}, 1},
		{[]int{2, 2}, 6},
		{[]int{3, 3}, 20},
		{[]int{3, 2}, 10},
		{[]int{4, 2}, 15},
		{[]int{2, 2, 2}, 90},
		{[]int{3, 3, 2}, 560},
	}
	for _, c := range cases {
		got := Interleavings(c.lengths)
		if len(got) != c.want {
			t.Errorf("Interleavings(%v): %d schedules, want %d", c.lengths, len(got), c.want)
		}
		seen := map[string]bool{}
		for _, sched := range got {
			key := fmt.Sprint(sched)
			if seen[key] {
				t.Fatalf("duplicate schedule %v", sched)
			}
			seen[key] = true
			counts := make([]int, len(c.lengths))
			for _, i := range sched {
				counts[i]++
			}
			for i, n := range counts {
				if n != c.lengths[i] {
					t.Fatalf("schedule %v uses script %d %d times, want %d", sched, i, n, c.lengths[i])
				}
			}
		}
	}
}

// protocols are the real engine configurations every conflict suite
// must hold for: the three concurrency controls crossed with both
// visibility modes. The epoch rows certify that swapping the strict
// drain for the decentralized watermark preserves serializability under
// exhaustive interleaving enumeration with both oracles watching.
func protocols() map[string]core.Options {
	m := map[string]core.Options{}
	for pname, p := range map[string]core.Protocol{
		"2pl": core.TwoPhaseLocking,
		"tso": core.TimestampOrdering,
		"occ": core.Optimistic,
	} {
		for vname, v := range map[string]vc.Mode{
			"strict": vc.ModeStrict,
			"epoch":  vc.ModeEpoch,
		} {
			m[pname+"/"+vname] = core.Options{Protocol: p, Visibility: v}
		}
	}
	return m
}

func realEngine(opts core.Options) func(rec engine.Recorder) engine.Engine {
	return func(rec engine.Recorder) engine.Engine {
		o := opts // runs may build engines concurrently
		o.Recorder = rec
		return core.New(o)
	}
}

// requireClean is the per-run baseline every real engine must meet: a
// serializable history, a silent auditor, and no non-retryable errors.
func requireClean(t *testing.T, r RunResult) {
	t.Helper()
	if msg := unclean(r); msg != "" {
		t.Errorf("schedule %v: %s", r.Schedule, msg)
	}
}

// unclean says how r falls short of requireClean's baseline ("" if it
// does not).
func unclean(r RunResult) string {
	if r.HistoryErr != nil {
		return fmt.Sprintf("checker rejected: %v", r.HistoryErr)
	}
	if r.Alarms != 0 {
		return fmt.Sprintf("auditor raised %d alarms", r.Alarms)
	}
	for _, o := range r.Outcomes {
		if o.Err != nil && !engine.Retryable(o.Err) {
			return fmt.Sprintf("%s failed non-retryably: %v", o.Name, o.Err)
		}
		if o.Committed && o.Err != nil {
			return fmt.Sprintf("%s both committed and errored (%v)", o.Name, o.Err)
		}
	}
	return ""
}

// parallel calls f(i) for every i in [0, n) on a few goroutines. Runs
// are independent, and one run alone leaves the CPUs idle while its
// goroutines hand steps to each other.
func parallel(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range 2 * runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// TestWriteWriteConflict explores every interleaving of two transactions
// that each write the pair (x, y) to their own tag: serializability means
// the final state always has x == y, whichever commits last.
func TestWriteWriteConflict(t *testing.T) {
	for name, p := range protocols() {
		t.Run(name, func(t *testing.T) {
			suite := &Suite{
				Bootstrap: map[string]string{"x": "0", "y": "0"},
				Scripts: []Script{
					{Name: "T1", Ops: []Op{{Kind: Put, Key: "x", Value: "a"}, {Kind: Put, Key: "y", Value: "a"}, {Kind: Commit}}},
					{Name: "T2", Ops: []Op{{Kind: Put, Key: "x", Value: "b"}, {Kind: Put, Key: "y", Value: "b"}, {Kind: Commit}}},
				},
				NewEngine: realEngine(p),
			}
			n := suite.Explore(t.Fatalf, func(r RunResult) {
				requireClean(t, r)
				if r.Final["x"] != r.Final["y"] {
					t.Errorf("schedule %v: torn pair x=%q y=%q", r.Schedule, r.Final["x"], r.Final["y"])
				}
				commits := 0
				for _, o := range r.Outcomes {
					if o.Committed {
						commits++
					}
				}
				if commits == 0 {
					t.Errorf("schedule %v: both writers aborted", r.Schedule)
				}
			})
			if n != 20 {
				t.Fatalf("explored %d schedules, want all 20", n)
			}
		})
	}
}

// TestWriteSkew explores the classic write-skew pattern: T1 reads x and
// writes y, T2 reads y and writes x. A serializable engine must never let
// both commit having both read the unmodified bootstrap values.
func TestWriteSkew(t *testing.T) {
	for name, p := range protocols() {
		t.Run(name, func(t *testing.T) {
			suite := &Suite{
				Bootstrap: map[string]string{"x": "0", "y": "0"},
				Scripts: []Script{
					{Name: "T1", Ops: []Op{{Kind: Get, Key: "x"}, {Kind: Put, Key: "y", Value: "1"}, {Kind: Commit}}},
					{Name: "T2", Ops: []Op{{Kind: Get, Key: "y"}, {Kind: Put, Key: "x", Value: "1"}, {Kind: Commit}}},
				},
				NewEngine: realEngine(p),
			}
			n := suite.Explore(t.Fatalf, func(r RunResult) {
				requireClean(t, r)
				t1, t2 := r.Outcomes[0], r.Outcomes[1]
				if t1.Committed && t2.Committed && t1.Reads["x"] == "0" && t2.Reads["y"] == "0" {
					t.Errorf("schedule %v: write skew committed (both read stale)", r.Schedule)
				}
			})
			if n != 20 {
				t.Fatalf("explored %d schedules, want all 20", n)
			}
		})
	}
}

// TestDeadlockPair explores opposite-order lock acquisition under 2PL
// with deadlock detection: in the interleavings that close the waits-for
// cycle exactly one transaction is chosen as victim, the other commits,
// and the oracles stay silent throughout. The survivor parked on the
// victim's lock, and the victim's abort woke it.
func TestDeadlockPair(t *testing.T) {
	deadlocked := 0
	n := deadlockSuite().Explore(t.Fatalf, func(r RunResult) {
		requireClean(t, r)
		victims, commits := 0, 0
		for _, o := range r.Outcomes {
			if o.Err != nil {
				victims++
			}
			if o.Committed {
				commits++
			}
		}
		for _, o := range r.Outcomes {
			if victims == 1 && o.Err == nil && len(o.Parked) == 0 {
				t.Errorf("schedule %v: %s survived a deadlock without parking", r.Schedule, o.Name)
			}
		}
		if victims > 1 {
			t.Errorf("schedule %v: both transactions aborted", r.Schedule)
		}
		if commits == 0 {
			t.Errorf("schedule %v: nothing committed", r.Schedule)
		}
		if victims == 1 {
			deadlocked++
		}
	})
	if n != 20 {
		t.Fatalf("explored %d schedules, want all 20", n)
	}
	if deadlocked == 0 {
		t.Fatal("no interleaving produced a deadlock; the suite is not exercising the detector")
	}
	t.Logf("deadlock victim chosen in %d/%d schedules", deadlocked, n)
}

func deadlockSuite() *Suite {
	return &Suite{
		Bootstrap: map[string]string{"a": "0", "b": "0"},
		Scripts: []Script{
			{Name: "T1", Ops: []Op{{Kind: Put, Key: "a", Value: "1"}, {Kind: Put, Key: "b", Value: "1"}, {Kind: Commit}}},
			{Name: "T2", Ops: []Op{{Kind: Put, Key: "b", Value: "2"}, {Kind: Put, Key: "a", Value: "2"}, {Kind: Commit}}},
		},
		NewEngine: realEngine(core.Options{Protocol: core.TwoPhaseLocking}),
	}
}

// TestReadOnlyIndependence runs two conflicting writers plus a read-only
// observer under every protocol: the observer must commit cleanly in
// every interleaving — it never parks, never aborts, never alarms.
// (Three scripts: this is the 90-schedule tier above the 2-transaction
// suites.) Reed's MVTO is the positive control: its read-only reads
// wait for older pending writes, so some schedule must park one.
func TestReadOnlyIndependence(t *testing.T) {
	engines := map[string]func(engine.Recorder) engine.Engine{
		"mvto": func(rec engine.Recorder) engine.Engine { return baseline.NewMVTO(rec) },
	}
	for name, p := range protocols() {
		engines[name] = realEngine(p)
	}
	for name, newEngine := range engines {
		t.Run(name, func(t *testing.T) {
			suite := &Suite{
				Bootstrap: map[string]string{"x": "0"},
				Scripts: []Script{
					{Name: "W1", Ops: []Op{{Kind: Put, Key: "x", Value: "1"}, {Kind: Commit}}},
					{Name: "W2", Ops: []Op{{Kind: Put, Key: "x", Value: "2"}, {Kind: Commit}}},
					{Name: "RO", Class: engine.ReadOnly, Ops: []Op{{Kind: Get, Key: "x"}, {Kind: Commit}}},
				},
				NewEngine: newEngine,
			}
			roParked := 0
			n := suite.Explore(t.Fatalf, func(r RunResult) {
				requireClean(t, r)
				ro := r.Outcomes[2]
				if ro.Err != nil || !ro.Committed {
					t.Errorf("schedule %v: read-only tx (committed=%v, err=%v)", r.Schedule, ro.Committed, ro.Err)
				}
				if got := ro.Reads["x"]; got != "0" && got != "1" && got != "2" {
					t.Errorf("schedule %v: read-only tx saw impossible x=%q", r.Schedule, got)
				}
				if len(ro.Parked) > 0 {
					roParked++
				}
			})
			if n != 90 {
				t.Fatalf("explored %d schedules, want all 90", n)
			}
			switch {
			case name == "mvto" && roParked == 0:
				t.Fatal("the read-only script never parked: the control shows nothing")
			case name != "mvto" && roParked > 0:
				t.Fatalf("the read-only script parked in %d/%d schedules", roParked, n)
			}
			t.Logf("the read-only script parked in %d/%d schedules", roParked, n)
		})
	}
}

// TestSerialSchedulesCommit pins the degenerate case: a schedule that
// never interleaves must commit both transactions under every protocol.
func TestSerialSchedulesCommit(t *testing.T) {
	for name, p := range protocols() {
		t.Run(name, func(t *testing.T) {
			suite := &Suite{
				Bootstrap: map[string]string{"x": "0", "y": "0"},
				Scripts: []Script{
					{Name: "T1", Ops: []Op{{Kind: Put, Key: "x", Value: "a"}, {Kind: Put, Key: "y", Value: "a"}, {Kind: Commit}}},
					{Name: "T2", Ops: []Op{{Kind: Get, Key: "x"}, {Kind: Put, Key: "y", Value: "b"}, {Kind: Commit}}},
				},
				NewEngine: realEngine(p),
			}
			for _, order := range [][]int{
				{0, 0, 0, 1, 1, 1},
				{1, 1, 1, 0, 0, 0},
			} {
				r := suite.Run(order)
				if r.Stalled {
					t.Fatalf("serial schedule %v stalled", order)
				}
				requireClean(t, r)
				for _, o := range r.Outcomes {
					if !o.Committed {
						t.Errorf("serial schedule %v: %s did not commit (err=%v)", order, o.Name, o.Err)
					}
				}
			}
		})
	}
}

// a1Suite is the early-registration ablation's conflict pattern: T1 pins
// its transaction number at Begin, T2 commits an overwrite of x, then T1
// reads and overwrites it with the smaller number. On the broken engine
// some interleaving produces a non-serializable history; on the correct
// engine every interleaving must stay clean.
func a1Suite(newEngine func(engine.Recorder) engine.Engine) *Suite {
	return &Suite{
		Bootstrap: map[string]string{"x": "0"},
		Scripts: []Script{
			{Name: "T1", Ops: []Op{{Kind: Begin}, {Kind: Get, Key: "x"}, {Kind: Put, Key: "x", Value: "t1"}, {Kind: Commit}}},
			{Name: "T2", Ops: []Op{{Kind: Put, Key: "x", Value: "t2"}, {Kind: Commit}}},
		},
		NewEngine: newEngine,
	}
}

// a2Suite is the eager-visibility ablation's pattern: an anti-dependency
// from T1 to T2 on z, plus a read-only observer that can catch the
// inconsistent snapshot (T2's z visible, T1's y not) when vtnc advances
// in completion order.
func a2Suite(newEngine func(engine.Recorder) engine.Engine) *Suite {
	return &Suite{
		Bootstrap: map[string]string{"y": "0", "z": "0"},
		Scripts: []Script{
			{Name: "T1", Ops: []Op{{Kind: Get, Key: "z"}, {Kind: Put, Key: "y", Value: "t1"}, {Kind: Commit}}},
			{Name: "T2", Ops: []Op{{Kind: Put, Key: "z", Value: "t2"}, {Kind: Commit}}},
			{Name: "RO", Class: engine.ReadOnly, Ops: []Op{{Kind: Get, Key: "z"}, {Kind: Get, Key: "y"}, {Kind: Commit}}},
		},
		NewEngine: newEngine,
	}
}

// TestBrokenBaselinesAlarm replays every interleaving of each ablation's
// conflict pattern against the deliberately broken engine and against
// the corresponding correct engine: the broken engine must trip the
// oracles in at least one schedule, the correct engine in none. This is
// the end-to-end proof that the schedule harness plus the two auditors
// have real detection power, not just the absence of false positives.
func TestBrokenBaselinesAlarm(t *testing.T) {
	cases := []struct {
		name    string
		broken  func() *Suite
		control func() *Suite
	}{
		{
			name:    "early-register-2pl",
			broken:  func() *Suite { return a1Suite(baseline.NewBrokenEarlyRegister) },
			control: func() *Suite { return a1Suite(realEngine(core.Options{Protocol: core.TwoPhaseLocking})) },
		},
		{
			name:    "eager-visibility-tso",
			broken:  func() *Suite { return a2Suite(baseline.NewBrokenEagerVisibility) },
			control: func() *Suite { return a2Suite(realEngine(core.Options{Protocol: core.TimestampOrdering})) },
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var checker, auditor, caught int
			n := c.broken().Explore(t.Fatalf, func(r RunResult) {
				checker += b2i(r.HistoryErr != nil)
				auditor += b2i(r.Alarms > 0)
				caught += b2i(r.HistoryErr != nil || r.Alarms > 0)
			})
			if caught == 0 {
				t.Fatalf("broken engine survived all %d schedules with both oracles silent", n)
			}
			t.Logf("oracles caught the broken engine in %d/%d schedules (checker %d, auditor %d)", caught, n, checker, auditor)

			c.control().Explore(t.Fatalf, func(r RunResult) {
				if r.HistoryErr != nil {
					t.Errorf("control schedule %v: checker rejected the correct engine: %v", r.Schedule, r.HistoryErr)
				}
				if r.Alarms != 0 {
					t.Errorf("control schedule %v: auditor alarmed on the correct engine", r.Schedule)
				}
			})
		})
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestReplayIsExact replays every schedule of the deadlock pair and of
// both A2 suites 20 times: each replay must give the RunResult the first
// run gave — every outcome with its parked steps, the final state and
// both oracles' verdicts. The scheduler is paced by the engine's park
// events, not by timing, so nothing else is allowed to vary.
func TestReplayIsExact(t *testing.T) {
	const replays = 20
	suites := map[string]*Suite{
		"deadlock-pair": deadlockSuite(),
		"a2-broken":     a2Suite(baseline.NewBrokenEagerVisibility),
		"a2-control":    a2Suite(realEngine(core.Options{Protocol: core.TimestampOrdering})),
	}
	for name, suite := range suites {
		t.Run(name, func(t *testing.T) {
			schedules := Interleavings(suite.Lengths())
			parallel(len(schedules), func(i int) {
				want := replayed(suite.Run(schedules[i]))
				for n := 1; n < replays; n++ {
					if got := replayed(suite.Run(schedules[i])); got != want {
						t.Errorf("schedule %v, replay %d:\n got %s\nwant %s", schedules[i], n, got, want)
						return
					}
				}
			})
		})
	}
}

// replayed is what a replay must reproduce of r. The checker's verdict
// is whether it rejected; its message may name any cycle it found.
func replayed(r RunResult) string {
	return fmt.Sprintf("%+v final=%v serializable=%v alarms=%d stalled=%v",
		r.Outcomes, r.Final, r.HistoryErr == nil, r.Alarms, r.Stalled)
}
