package main

import (
	"fmt"
	"strings"
	"time"

	"mvdb/internal/baseline"
	"mvdb/internal/core"
	"mvdb/internal/dist"
	"mvdb/internal/engine"
	"mvdb/internal/history"
	"mvdb/internal/vc"
)

var scenarios = []struct {
	id, name string
	run      func()
}{
	{"fig1", "Figure 1: the version control module's counters and queue", fig1},
	{"fig2", "Figure 2: read-only execution, independent of concurrency control", fig2},
	{"fig3", "Figure 3: version control with timestamp ordering", fig3},
	{"fig4", "Figure 4: version control with two-phase locking", fig4},
	{"lag", "Section 6: delayed visibility and the recency rectification", lag},
	{"ablation", "Why the rules matter: breaking the visibility property", ablation},
	{"dist", "Section 6: distributed version control (reconstruction of [3])", distScenario},
	{"reed", "Section 2: what the paper fixes in Reed's MVTO", reedScenario},
	{"chan", "Section 2: what the paper fixes in Chan's MV2PL", chanScenario},
}

// sim replays the paper's figures as annotated executions: deterministic
// scenario scripts against the real engines, printing each step with
// the version-control state (tnc, vtnc, queue) so the mechanisms of
// Figures 1-4 and the Section 6 discussion can be watched in motion. A
// scenario whose engine misbehaves panics.
func sim(args []string) int {
	fs := flags("sim", "[-scenario all|fig1|fig2|fig3|fig4|lag|ablation|dist|reed|chan]")
	which := fs.String("scenario", "all", "scenario id or 'all'")
	fs.Parse(args)
	ran := 0
	for _, s := range scenarios {
		if *which != "all" && !strings.EqualFold(*which, s.id) {
			continue
		}
		fmt.Printf("\n======== %s ========\n\n", s.name)
		s.run()
		ran++
	}
	if ran == 0 {
		return usage(fs, "unknown scenario %q", *which)
	}
	return 0
}

func vcState(c vc.Controller) string {
	return fmt.Sprintf("[tnc=%d vtnc=%d queue=%d]", c.TNC(), c.VTNC(), c.QueueLen())
}

// must stops a scenario whose engine misbehaved.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

func step(format string, args ...any) {
	fmt.Printf("  %s\n", fmt.Sprintf(format, args...))
}

func fig1() {
	c := vc.New(0)
	step("start                          %s", vcState(c))
	step("a read-only txn calls VCstart() -> sn=%d (it will read versions <= %d)", c.Start(), c.Start())

	e1 := c.Register()
	step("T1 registers: tn=%d            %s", e1.TN(), vcState(c))
	e2 := c.Register()
	step("T2 registers: tn=%d            %s", e2.TN(), vcState(c))
	e3 := c.Register()
	step("T3 registers: tn=%d            %s", e3.TN(), vcState(c))

	c.Complete(e2)
	step("T2 completes FIRST             %s  <- vtnc held back by active T1", vcState(c))
	step("VCstart() still returns %d: T2's updates stay invisible (visibility property)", c.Start())

	c.Discard(e3)
	step("T3 aborts (VCdiscard)          %s", vcState(c))

	c.Complete(e1)
	step("T1 completes                   %s  <- queue drains: T1, then the already-complete T2", vcState(c))
	step("VCstart() now returns %d: both commits visible, in serialization order", c.Start())
	must(c.CheckInvariants())
	step("module invariants hold")
}

func fig2() {
	for _, p := range []core.Protocol{core.TwoPhaseLocking, core.TimestampOrdering, core.Optimistic} {
		e := core.New(core.Options{Protocol: p})
		e.Bootstrap(map[string][]byte{"x": []byte("x0")})

		// A writer is mid-flight with an uncommitted write to x.
		w, _ := e.Begin(engine.ReadWrite)
		must(w.Put("x", []byte("x1-uncommitted")))

		ro, _ := e.Begin(engine.ReadOnly)
		sn, _ := ro.SN()
		v, _ := ro.Get("x")
		step("%-7s ro begins: sn(T)=%d; read(x) -> %q  (no locks, no waiting, writer mid-flight)", p, sn, v)
		ro.Commit()
		must(w.Commit())
		e.Close()
	}
	step("the read-only code path was IDENTICAL under all three protocols —")
	step("'the execution of read-only transactions is completely independent of the")
	step("chosen concurrency control protocol' (Section 1)")
}

func fig3() {
	e := core.New(core.Options{Protocol: core.TimestampOrdering})
	e.Bootstrap(map[string][]byte{"x": []byte("x0"), "y": []byte("y0")})

	t1, _ := e.Begin(engine.ReadWrite)
	tn1, _ := t1.SN()
	step("T1 begins: VCregister -> tn=%d (serial order fixed a priori)  %s", tn1, vcState(e.VC()))
	t2, _ := e.Begin(engine.ReadWrite)
	tn2, _ := t2.SN()
	step("T2 begins: tn=%d", tn2)

	_, err := t2.Get("x")
	must(err)
	step("T2 reads x: r-ts(x) <- %d; returns x0 (largest version <= sn(T2))", tn2)

	err = t1.Put("x", []byte("x-late"))
	step("T1 (older) writes x AFTER T2's read: r-ts(x)=%d > tn=%d -> %v", tn2, tn1, err)
	step("T1 aborted and VCdiscarded       %s", vcState(e.VC()))

	must(t2.Put("y", []byte("y2")))
	step("T2 writes y: pending version y_%d created", tn2)

	// A younger reader blocks behind T2's pending write.
	t3, _ := e.Begin(engine.ReadWrite)
	tn3, _ := t3.SN()
	got := make(chan string)
	go func() {
		v, _ := t3.Get("y")
		got <- string(v)
	}()
	select {
	case v := <-got:
		panic("read did not block: " + v)
	case <-time.After(20 * time.Millisecond):
		step("T3 (tn=%d) reads y: BLOCKED on T2's pending write (Figure 3 note)", tn3)
	}
	must(t2.Commit())
	step("T2 commits: pending y becomes version y_%d; VCcomplete  %s", tn2, vcState(e.VC()))
	step("T3's read resumes -> %q", <-got)
	t3.Commit()
	e.Close()
}

func fig4() {
	e := core.New(core.Options{Protocol: core.TwoPhaseLocking})
	e.Bootstrap(map[string][]byte{"x": []byte("x0"), "y": []byte("y0")})

	t1, _ := e.Begin(engine.ReadWrite)
	step("T1 begins: sn(T)=infinity, NOT registered yet  %s", vcState(e.VC()))
	_, err := t1.Get("x")
	must(err)
	step("T1 reads x: r-lock(x), returns the latest version x0")
	must(t1.Put("y", []byte("y?")))
	step("T1 writes y: w-lock(y), version created with number phi (unknown)")
	step("while T1 executes, its serial order is still uncertain  %s", vcState(e.VC()))

	must(t1.Commit())
	tn, _ := t1.SN()
	step("end(T1): VCregister -> tn=%d (lock-point passed); updates installed as", tn)
	step("version y_%d; locks cleared; VCcomplete  %s", tn, vcState(e.VC()))

	ro, _ := e.Begin(engine.ReadOnly)
	v, _ := ro.Get("y")
	step("a new read-only txn reads y -> %q", v)
	ro.Commit()
	step("note: every transaction the VC module ever sees is past its lock-point,")
	step("so version control can never participate in a deadlock (Section 4.4)")
	e.Close()
}

func lag() {
	e := core.New(core.Options{Protocol: core.TimestampOrdering})
	e.Bootstrap(map[string][]byte{"k": []byte("v0")})

	strag, _ := e.Begin(engine.ReadWrite)
	stragTN, _ := strag.SN()
	strag.Put("other", []byte("slow"))
	step("straggler registers tn=%d and dawdles", stragTN)

	young, _ := e.Begin(engine.ReadWrite)
	young.Put("k", []byte("v-new"))
	young.Commit()
	youngTN, _ := young.SN()
	step("younger txn tn=%d commits 'v-new'   %s  <- lag=%d", youngTN, vcState(e.VC()), e.VisibilityLag())

	ro, _ := e.Begin(engine.ReadOnly)
	v, _ := ro.Get("k")
	ro.Commit()
	step("plain read-only txn reads k -> %q (stale but consistent: zero-cost reads)", v)

	done := make(chan string)
	go func() {
		rro, _ := e.BeginReadOnlyAt(youngTN)
		v, _ := rro.Get("k")
		rro.Commit()
		done <- string(v)
	}()
	select {
	case <-done:
		panic("recency reader did not wait")
	case <-time.After(10 * time.Millisecond):
		step("recency-rectified reader (sn >= %d) WAITS for the straggler...", youngTN)
	}
	strag.Commit()
	step("straggler commits; rectified reader returns %q (Section 6 rectification)", <-done)
	e.Close()
}

func ablation() {
	rec := history.NewRecorder()
	e := core.New(core.Options{
		Protocol:              core.TimestampOrdering,
		Recorder:              rec,
		UnsafeEagerVisibility: true, // violate the Transaction Visibility Property
	})
	e.Bootstrap(map[string][]byte{"y": []byte("y0"), "z": []byte("z0")})

	t1, _ := e.Begin(engine.ReadWrite)
	t2, _ := e.Begin(engine.ReadWrite)
	t1.Get("z")
	t1.Put("y", []byte("y1"))
	t2.Put("z", []byte("z2"))
	t2.Commit()
	step("broken engine: vtnc advanced to T2 although older T1 is active")

	ro, _ := e.Begin(engine.ReadOnly)
	zv, _ := ro.Get("z")
	yv, _ := ro.Get("y")
	ro.Commit()
	step("read-only txn observes z=%q (T2's) but y=%q (pre-T1): a snapshot that", zv, yv)
	step("no serial order can explain, since T1 read z before T2 overwrote it")
	t1.Commit()

	if err := rec.Check(); err != nil {
		step("the MVSG checker catches it: %v", err)
	} else {
		panic("checker missed the anomaly")
	}
}

func distScenario() {
	c, err := dist.New(dist.Options{Sites: 3})
	must(err)
	defer c.Close()

	// Find keys on specific sites.
	keyOn := func(site int, hint string) string {
		for i := 0; ; i++ {
			k := fmt.Sprintf("%s-%d", hint, i)
			if c.SiteFor(k).ID() == site {
				return k
			}
		}
	}
	kA, kC := keyOn(0, "acct"), keyOn(2, "acct")
	c.Bootstrap(map[string][]byte{kA: []byte("100"), kC: []byte("100")})
	step("3 sites; %q lives at site 0, %q at site 2; each site has its own", kA, kC)
	step("tnc/vtnc/VCQueue, handing out numbers from disjoint residue classes")

	tx, _ := c.Begin(engine.ReadWrite)
	tx.Put(kA, []byte("90"))
	tx.Put(kC, []byte("110"))
	must(tx.Commit())
	tn, _ := tx.(*dist.DTx).SN()
	step("cross-site transfer commits via 2PC: both participants vote their next")
	step("local number, the coordinator picks the max, and BOTH sites register")
	step("exactly tn=%d — one transaction number per read-write transaction", tn)
	for s := 0; s < 3; s++ {
		v := c.Sites()[s].Engine().VC()
		step("  site %d: vtnc=%d tnc=%d", s, v.VTNC(), v.TNC())
	}

	ro, _ := c.Begin(engine.ReadOnly)
	a, _ := ro.Get(kA)
	b, _ := ro.Get(kC)
	ro.Commit()
	step("a global read-only txn takes ONE start number (the committed high-water")
	step("mark, no messages) and reads both sites: %s + %s = 200, consistent;", a, b)
	step("site 1 was never named in advance — no a-priori site knowledge needed")
	step("(visibility waits: %d, fillers: %d)", c.Stats().RecencyWaits, c.Fillers())
}

func reedScenario() {
	e := baseline.NewMVTO(nil)
	defer e.Close()
	e.Bootstrap(map[string][]byte{"x": []byte("x0")})

	rw, _ := e.Begin(engine.ReadWrite) // older timestamp
	ro, _ := e.Begin(engine.ReadOnly)  // younger timestamp
	v, _ := ro.Get("x")
	ro.Commit()
	step("a read-only txn reads x -> %q, RAISING r-ts(x) to its timestamp", v)
	err := rw.Put("x", []byte("late"))
	step("an OLDER read-write txn then writes x: r-ts too high -> %v", err)
	step("'this may result in a read-only transaction causing an abort of a")
	step("read-write transaction' (Section 2) — impossible in the VC engines")

	rw2, _ := e.Begin(engine.ReadWrite)
	rw2.Put("x", []byte("pending"))
	blocked := make(chan string)
	go func() {
		ro2, _ := e.Begin(engine.ReadOnly)
		v, _ := ro2.Get("x")
		ro2.Commit()
		blocked <- string(v)
	}()
	select {
	case <-blocked:
		panic("mvto reader did not block")
	case <-time.After(20 * time.Millisecond):
		step("a read-only txn now BLOCKS behind a pending write (Section 2 again)")
	}
	rw2.Commit()
	step("writer commits; reader resumes with %q", <-blocked)
	st := e.Stats()
	step("stats: ro.blocked=%d, rw.aborts.by_ro=%d", st.ROBlocked, st.RWAbortsByRO)
}

func chanScenario() {
	e := baseline.NewMV2PLCTL(nil)
	defer e.Close()
	e.Bootstrap(map[string][]byte{"x": []byte("x0")})

	release := e.HoldNumber()
	step("a txn passes its lock-point (number allocated) but has not committed:")
	step("a hole opens in the completed transaction list (CTL)")
	for i := 0; i < 100; i++ {
		tx, _ := e.Begin(engine.ReadWrite)
		tx.Put(fmt.Sprintf("k%02d", i%10), []byte("v"))
		must(tx.Commit())
	}
	step("100 transactions commit above the hole: CTL tail = %d entries", e.CTLTail())

	before := e.CTLCopied()
	ro, _ := e.Begin(engine.ReadOnly)
	copied := e.CTLCopied() - before
	v, _ := ro.Get("x")
	ro.Commit()
	step("a read-only txn begins: it must COPY %d CTL entries, then check", copied)
	step("membership on every version probe; read(x) -> %q", v)
	release()
	step("'the maintenance and usage of the completed transaction list ... is")
	step("cumbersome and complex' (Section 2); VCstart is one atomic load instead")
}
