package schedtest

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"mvdb/internal/baseline"
	"mvdb/internal/engine"
)

// dataOps are the grammar's data operations: a read or a write of x or y.
var dataOps = []Op{{Kind: Get, Key: "x"}, {Kind: Get, Key: "y"}, {Kind: Put, Key: "x"}, {Kind: Put, Key: "y"}}

// grammarSuites returns the generated scope: the script combinations a
// small read/write grammar over the keys x and y produces,
//
//	pairs:   T1 = [Begin] op op Commit       T2 = Get x Commit | Put x Commit
//	triples: T1 = Get k Put k' Commit        T2 = Put x Commit
//	         RO = Get x Get y Commit (read-only)
//
// where op reads or writes x or y, and k and k' are x or y. T2 only
// touches x: renaming x and y into each other maps every combination
// with T2 on y onto one listed. A1's pattern is the pair T1 = Begin Get x
// Put x Commit, T2 = Put x Commit; A2's (with z renamed x) is the triple
// T1 = Get x Put y Commit.
func grammarSuites() [][]Script {
	named := func(name string, class engine.Class, ops ...Op) Script {
		for i := range ops {
			if ops[i].Kind == Put {
				ops[i].Value = strings.ToLower(name)
			}
		}
		return Script{Name: name, Class: class, Ops: append(ops, Op{Kind: Commit})}
	}
	var out [][]Script
	for _, begin := range []bool{false, true} {
		for _, a := range dataOps {
			for _, b := range dataOps {
				for _, c := range []Op{{Kind: Get, Key: "x"}, {Kind: Put, Key: "x"}} {
					t1 := named("T1", engine.ReadWrite, a, b)
					if begin {
						t1.Ops = append([]Op{{Kind: Begin}}, t1.Ops...)
					}
					out = append(out, []Script{t1, named("T2", engine.ReadWrite, c)})
				}
			}
		}
	}
	for _, k := range []string{"x", "y"} {
		for _, k2 := range []string{"x", "y"} {
			out = append(out, []Script{
				named("T1", engine.ReadWrite, Op{Kind: Get, Key: k}, Op{Kind: Put, Key: k2}),
				named("T2", engine.ReadWrite, Op{Kind: Put, Key: "x"}),
				named("RO", engine.ReadOnly, Op{Kind: Get, Key: "x"}, Op{Kind: Get, Key: "y"}),
			})
		}
	}
	return out
}

// describe names a combination in failure messages.
func describe(scripts []Script) string {
	names := map[OpKind]string{Get: "Get", Put: "Put", Delete: "Delete", Commit: "Commit", Abort: "Abort", Begin: "Begin"}
	var sb strings.Builder
	for _, sc := range scripts {
		fmt.Fprintf(&sb, "%s=[", sc.Name)
		for i, op := range sc.Ops {
			if i > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(names[op.Kind] + op.Key)
		}
		sb.WriteString("] ")
	}
	return strings.TrimSpace(sb.String())
}

// TestGrammarScope explores every schedule of every combination in the
// generated scope against every engine configuration:
//
//   - each real engine (three protocols, both visibility modes) keeps
//     every history serializable with both oracles silent, and its
//     read-only scripts never park: the paper's claim, exactly;
//   - each broken baseline trips an oracle in at least one schedule;
//   - Reed's MVTO, the positive control, is serializable too, but parks
//     a read-only script in at least one schedule.
//
// For 2PL and T/O it also holds that some read-write step parks, so the
// read-only scripts' zero is measured, not vacuous. Every configuration's
// tallies are pinned: the schedules the scheduler paces by park events,
// the verdicts, and how many schedules park a script of each class, so a
// change to how an engine waits or tells of its waits shows here.
func TestGrammarScope(t *testing.T) {
	// schedules, checker rejections, auditor alarms, read-only and
	// read-write schedules that parked.
	type counts [5]int64
	pinned := map[string]counts{
		"broken-early-register":   {3040, 4, 4, 0, 1558},
		"broken-eager-visibility": {3040, 11, 11, 0, 840},
		"mvto":                    {3040, 0, 0, 892, 760},
		"2pl/strict":              {3040, 0, 0, 0, 1558},
		"2pl/epoch":               {3040, 0, 0, 0, 1558},
		"tso/strict":              {3040, 0, 0, 0, 840},
		"tso/epoch":               {3040, 0, 0, 0, 840},
		"occ/strict":              {3040, 0, 0, 0, 0},
		"occ/epoch":               {3040, 0, 0, 0, 0},
	}
	type config struct {
		name      string
		newEngine func(engine.Recorder) engine.Engine
		broken    bool
	}
	configs := []config{
		{"broken-early-register", baseline.NewBrokenEarlyRegister, true},
		{"broken-eager-visibility", baseline.NewBrokenEagerVisibility, true},
		{"mvto", func(rec engine.Recorder) engine.Engine { return baseline.NewMVTO(rec) }, false},
	}
	for name, p := range protocols() {
		configs = append(configs, config{name, realEngine(p), false})
	}
	combos := grammarSuites()
	type tally struct{ schedules, checker, auditor, roParked, rwParked atomic.Int64 }
	tallies := make([]tally, len(configs))
	parallel(len(configs)*len(combos), func(job int) {
		c, scripts := configs[job/len(combos)], combos[job%len(combos)]
		tl := &tallies[job/len(combos)]
		suite := &Suite{Bootstrap: map[string]string{"x": "0", "y": "0"}, Scripts: scripts, NewEngine: c.newEngine}
		n := suite.Explore(t.Errorf, func(r RunResult) {
			if r.HistoryErr != nil {
				tl.checker.Add(1)
			}
			if r.Alarms > 0 {
				tl.auditor.Add(1)
			}
			roParked, rwParked := false, false
			for i, o := range r.Outcomes {
				if len(o.Parked) > 0 && scripts[i].Class == engine.ReadOnly {
					roParked = true
				} else if len(o.Parked) > 0 {
					rwParked = true
				}
				if scripts[i].Class == engine.ReadOnly && !c.broken && !o.Committed {
					t.Errorf("%s %s schedule %v: the read-only script did not commit (err=%v)", c.name, describe(scripts), r.Schedule, o.Err)
				}
			}
			if roParked {
				tl.roParked.Add(1)
			}
			if rwParked {
				tl.rwParked.Add(1)
			}
			if c.broken {
				return
			}
			if msg := unclean(r); msg != "" {
				t.Errorf("%s %s schedule %v: %s", c.name, describe(scripts), r.Schedule, msg)
			}
			if roParked && c.name != "mvto" {
				t.Errorf("%s %s schedule %v: a read-only script parked", c.name, describe(scripts), r.Schedule)
			}
		})
		tl.schedules.Add(int64(n))
	})
	total := int64(0)
	for i, c := range configs {
		tl := &tallies[i]
		n := tl.schedules.Load()
		total += n
		t.Logf("%-24s %d schedules: checker rejected %d, auditor alarmed %d, read-only parked %d, read-write parked %d",
			c.name, n, tl.checker.Load(), tl.auditor.Load(), tl.roParked.Load(), tl.rwParked.Load())
		if got, want := (counts{n, tl.checker.Load(), tl.auditor.Load(), tl.roParked.Load(), tl.rwParked.Load()}), pinned[c.name]; got != want {
			t.Errorf("%s: schedules, checker, auditor, read-only parked, read-write parked = %v, want %v", c.name, got, want)
		}
		switch {
		case c.broken && tl.checker.Load()+tl.auditor.Load() == 0:
			t.Errorf("%s survived all %d schedules with both oracles silent", c.name, n)
		case c.name == "mvto" && tl.roParked.Load() == 0:
			t.Errorf("mvto never parked a read-only script: the control shows nothing")
		case (strings.HasPrefix(c.name, "2pl") || strings.HasPrefix(c.name, "tso")) && tl.rwParked.Load() == 0:
			t.Errorf("%s never parked a step: the park events do not reach the scheduler", c.name)
		}
	}
	t.Logf("%d combinations, %d schedules", len(combos), total)
}
