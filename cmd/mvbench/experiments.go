package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mvdb/internal/baseline"
	"mvdb/internal/core"
	"mvdb/internal/dist"
	"mvdb/internal/engine"
	"mvdb/internal/gc"
	"mvdb/internal/harness"
	"mvdb/internal/metrics"
	"mvdb/internal/obs"
	"mvdb/internal/vc"
	"mvdb/internal/workload"
)

// showStats is set by the -stats flag: after each harness run the
// engine's stats snapshot is printed.
var showStats bool

// dumpStats prints one run's engine snapshot under a label, as the
// indented JSON document /debug/mvdb serves.
func dumpStats(label string, st obs.Snapshot) {
	if !showStats {
		return
	}
	fmt.Println("stats — " + label)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(st)
}

// bootstrapper is implemented by every engine in this repository.
type bootstrapper interface {
	Bootstrap(map[string][]byte) error
}

type namedEngine struct {
	name string
	make func() engine.Engine
}

// roster builds fresh instances of every engine under comparison: the
// three paper engines and the three Section 2 baselines.
func roster() []namedEngine {
	return []namedEngine{
		{"vc+2pl", func() engine.Engine { return core.New(core.Options{Protocol: core.TwoPhaseLocking}) }},
		{"vc+to", func() engine.Engine { return core.New(core.Options{Protocol: core.TimestampOrdering}) }},
		{"vc+occ", func() engine.Engine { return core.New(core.Options{Protocol: core.Optimistic}) }},
		{"mvto(reed)", func() engine.Engine { return baseline.NewMVTO(nil) }},
		{"mv2pl+ctl(chan)", func() engine.Engine { return baseline.NewMV2PLCTL(nil) }},
		{"sv2pl", func() engine.Engine { return baseline.NewSV2PL(nil) }},
	}
}

func boot(e engine.Engine, wl workload.Config) {
	if err := e.(bootstrapper).Bootstrap(wl.Bootstrap()); err != nil {
		panic(err)
	}
}

// --- F1: the version control module itself -------------------------------

func runF1(quick bool) {
	iters := 2_000_000
	if quick {
		iters = 200_000
	}

	c := vc.New(0)
	t0 := time.Now()
	var sink uint64
	for i := 0; i < iters; i++ {
		sink += c.Start()
	}
	startNs := float64(time.Since(t0).Nanoseconds()) / float64(iters)
	_ = sink

	t0 = time.Now()
	for i := 0; i < iters; i++ {
		e := c.Register()
		c.Complete(e)
	}
	regNs := float64(time.Since(t0).Nanoseconds()) / float64(iters)

	// Out-of-order completion: register a window, complete in reverse.
	const window = 64
	t0 = time.Now()
	entries := make([]*vc.Entry, window)
	for i := 0; i < iters/window; i++ {
		for j := range entries {
			entries[j] = c.Register()
		}
		for j := len(entries) - 1; j >= 0; j-- {
			c.Complete(entries[j])
		}
	}
	oooNs := float64(time.Since(t0).Nanoseconds()) / float64(iters/window*window)

	if err := c.CheckInvariants(); err != nil {
		panic(err)
	}

	tb := metrics.Table{
		Title:   "F1 — version control module (Figure 1) cost per operation",
		Headers: []string{"operation", "ns/op", "note"},
	}
	tb.AddRow("VCstart (read-only begin)", metrics.F(startNs), "single atomic load; the entire RO synchronization cost")
	tb.AddRow("VCregister+VCcomplete (in order)", metrics.F(regNs), "per read-write transaction")
	tb.AddRow("VCregister+VCcomplete (reverse order, window 64)", metrics.F(oooNs), "queue absorbs out-of-order completion")
	fmt.Print(tb.String())
}

// --- E1: read-only overhead ----------------------------------------------

func runE1(quick bool) {
	txns := 4000
	if quick {
		txns = 800
	}
	wl := workload.Config{Keys: 256, ReadOnlyFraction: 1.0, ROReads: 4, Seed: 1}

	tb := metrics.Table{
		Title:   "E1 — read-only transaction cost (4 reads), no concurrent writers",
		Headers: []string{"engine", "mean", "p99", "mechanism paid by RO begin+reads"},
	}
	notes := map[string]string{
		"vc+2pl":          "one VCstart, snapshot reads",
		"vc+to":           "one VCstart, snapshot reads",
		"vc+occ":          "one VCstart, snapshot reads",
		"mvto(reed)":      "timestamp draw + r-ts update per read",
		"mv2pl+ctl(chan)": "CTL copy at begin + membership probe per read",
		"sv2pl":           "S-lock per read + lock release",
	}
	for _, ne := range roster() {
		e := ne.make()
		boot(e, wl)
		// Build some version history first so reads traverse chains.
		seed := harness.Config{Engine: e, Clients: 2, TxnsPerClient: 200,
			Workload: workload.Config{Keys: 256, RWWrites: 4, Seed: 2}}
		if _, err := harness.Run(seed); err != nil {
			panic(err)
		}
		res, err := harness.Run(harness.Config{Engine: e, Clients: 2, TxnsPerClient: txns, Workload: wl})
		if err != nil {
			panic(err)
		}
		tb.AddRow(ne.name, metrics.Dur(int64(res.ROLatency.Mean)), metrics.Dur(res.ROLatency.P99), notes[ne.name])
		dumpStats("e1 "+ne.name, res.Stats)
		e.Close()
	}
	fmt.Print(tb.String())
}

// --- E2: RO-caused aborts --------------------------------------------------

func runE2(quick bool) {
	txns := 300
	if quick {
		txns = 80
	}
	tb := metrics.Table{
		Title:   "E2 — read-write aborts attributable to read-only transactions",
		Headers: []string{"engine", "ro share", "rw commits", "rw conflicts", "caused by RO"},
	}
	for _, ne := range roster() {
		if ne.name == "mv2pl+ctl(chan)" || ne.name == "sv2pl" {
			continue // locking engines: readers delay, they do not abort writers
		}
		for _, roFrac := range []float64{0.25, 0.5, 0.75} {
			e := ne.make()
			wl := workload.Config{Keys: 24, ReadOnlyFraction: roFrac, ROReads: 4, RWReads: 1, RWWrites: 2, Seed: 7}
			boot(e, wl)
			res, err := harness.Run(harness.Config{
				Engine: e, Clients: 8, TxnsPerClient: txns, Workload: wl,
				OpDelay: 30 * time.Microsecond, RetryLimit: 2000,
			})
			if err != nil {
				panic(err)
			}
			tb.AddRow(ne.name, metrics.F(roFrac),
				fmt.Sprint(res.CommittedRW),
				fmt.Sprint(res.Stats.AbortsConflict),
				fmt.Sprint(res.Stats.RWAbortsByRO))
			dumpStats(fmt.Sprintf("e2 %s ro=%.2f", ne.name, roFrac), res.Stats)
			e.Close()
		}
	}
	fmt.Print(tb.String())
	fmt.Println("paper claim: the 'caused by RO' column is structurally 0 for vc+* engines\nand positive for Reed-style MVTO under read-only load (Section 2).")
}

// --- E3: RO blocking ---------------------------------------------------------

func runE3(quick bool) {
	txns := 300
	if quick {
		txns = 80
	}
	tb := metrics.Table{
		Title:   "E3 — read-only reads blocking behind writers (50% RO, write-heavy)",
		Headers: []string{"engine", "ro commits", "ro blocked", "ro aborted", "ro p99", "rw p99"},
	}
	for _, ne := range roster() {
		e := ne.make()
		wl := workload.Config{Keys: 24, ReadOnlyFraction: 0.5, ROReads: 4, RWReads: 1, RWWrites: 3, Seed: 11}
		boot(e, wl)
		res, err := harness.Run(harness.Config{
			Engine: e, Clients: 8, TxnsPerClient: txns, Workload: wl,
			OpDelay: 30 * time.Microsecond, RetryLimit: 2000,
		})
		if err != nil {
			panic(err)
		}
		tb.AddRow(ne.name, fmt.Sprint(res.CommittedRO), fmt.Sprint(res.Stats.ROBlocked),
			fmt.Sprint(res.RORetries),
			metrics.Dur(res.ROLatency.P99), metrics.Dur(res.RWLatency.P99))
		dumpStats("e3 "+ne.name, res.Stats)
		e.Close()
	}
	fmt.Print(tb.String())
	fmt.Println("paper claim: vc+* read-only transactions never block and never abort\n(Sections 1, 4.2); mvto blocks them on pending writes, sv2pl blocks them on\nwrite locks and even aborts them as deadlock victims.")
}

// --- E4: snapshot start cost ------------------------------------------------

func runE4(quick bool) {
	windows := []int{0, 64, 256, 1024}
	if quick {
		windows = []int{0, 64, 256}
	}
	tb := metrics.Table{
		Title:   "E4 — read-only begin cost vs out-of-order commit window",
		Headers: []string{"window (txns behind a straggler)", "chan CTL entries copied per RO begin", "chan RO begin", "vc RO begin"},
	}
	for _, window := range windows {
		// Chan baseline: a straggler has passed its lock point (number
		// allocated) but not committed; `window` later transactions
		// commit above the hole, growing the out-of-order tail that
		// every read-only begin must copy.
		chanEng := baseline.NewMV2PLCTL(nil)
		release := chanEng.HoldNumber()
		for i := 0; i < window; i++ {
			tx, _ := chanEng.Begin(engine.ReadWrite)
			if err := tx.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
				panic(err)
			}
			if err := tx.Commit(); err != nil {
				panic(err)
			}
		}
		if got := chanEng.CTLTail(); got != window {
			panic(fmt.Sprintf("E4 setup: tail %d, want %d", got, window))
		}
		const probes = 2000
		before := chanEng.CTLCopied()
		t0 := time.Now()
		for i := 0; i < probes; i++ {
			ro, _ := chanEng.Begin(engine.ReadOnly)
			ro.Commit()
		}
		chanNs := float64(time.Since(t0).Nanoseconds()) / probes
		copied := float64(chanEng.CTLCopied()-before) / probes
		release()
		chanEng.Close()

		// VC engine, same shape: a registered-but-active straggler (T/O
		// registers at begin) with `window` commits queued behind it.
		// The read-only begin stays a single counter read.
		vcEng := core.New(core.Options{Protocol: core.TimestampOrdering})
		strag2, _ := vcEng.Begin(engine.ReadWrite)
		strag2.Put("straggler-key", []byte("x"))
		for i := 0; i < window; i++ {
			tx, _ := vcEng.Begin(engine.ReadWrite)
			tx.Put(fmt.Sprintf("k%d", i), []byte("v"))
			tx.Commit()
		}
		t0 = time.Now()
		for i := 0; i < probes; i++ {
			ro, _ := vcEng.Begin(engine.ReadOnly)
			ro.Commit()
		}
		vcNs := float64(time.Since(t0).Nanoseconds()) / probes
		strag2.Commit()
		vcEng.Close()

		tb.AddRow(fmt.Sprint(window), metrics.F(copied), metrics.Dur(int64(chanNs)), metrics.Dur(int64(vcNs)))
	}
	fmt.Print(tb.String())
	fmt.Println("paper claim: 'the maintenance and usage of the completed transaction list\nis cumbersome' (Section 2) — VCstart stays O(1).")
}

// --- E5: throughput sweep -----------------------------------------------------

func runE5(quick bool) {
	txns := 200
	if quick {
		txns = 100
	}
	tb := metrics.Table{
		Title:   "E5 — committed txns/sec by engine, read-only share and skew\n(cells show txn/s; a trailing !N marks N starved read-only txns)",
		Headers: []string{"engine", "ro=10% uni", "ro=50% uni", "ro=90% uni", "ro=50% zipf1.4"},
	}
	type cell struct {
		ro   float64
		zipf float64
	}
	cells := []cell{{0.1, 0}, {0.5, 0}, {0.9, 0}, {0.5, 1.4}}
	for _, ne := range roster() {
		row := []string{ne.name}
		for _, cl := range cells {
			e := ne.make()
			// Long read-only transactions (12 reads) expose the
			// reader/writer interference of the locking baseline.
			wl := workload.Config{Keys: 64, ReadOnlyFraction: cl.ro, ROReads: 12,
				RWReads: 2, RWWrites: 3, Zipf: cl.zipf, Seed: 13}
			boot(e, wl)
			res, err := harness.Run(harness.Config{
				Engine: e, Clients: 8, TxnsPerClient: txns, Workload: wl,
				OpDelay: 20 * time.Microsecond, RetryLimit: 200,
			})
			if err != nil {
				panic(err)
			}
			cell := metrics.F(res.Throughput())
			if res.ROAbandoned > 0 {
				cell += fmt.Sprintf(" !%d", res.ROAbandoned)
			}
			row = append(row, cell)
			dumpStats(fmt.Sprintf("e5 %s ro=%.0f%% zipf=%.1f", ne.name, cl.ro*100, cl.zipf), res.Stats)
			e.Close()
		}
		tb.AddRow(row...)
	}
	fmt.Print(tb.String())
	fmt.Println("paper claim: multiversion engines pull ahead of sv2pl as the read-only\nshare and contention grow (Section 1).")
}

// --- E6: delayed visibility -----------------------------------------------------

func runE6(quick bool) {
	holds := []time.Duration{0, 2 * time.Millisecond, 10 * time.Millisecond}
	if quick {
		holds = holds[:2]
	}
	tb := metrics.Table{
		Title:   "E6 — visibility lag under a long-running registered transaction (vc+to)",
		Headers: []string{"straggler hold", "mean lag (positions)", "max lag", "stale RO reads", "recency wait"},
	}
	for _, hold := range holds {
		e := core.New(core.Options{Protocol: core.TimestampOrdering})
		e.Bootstrap(map[string][]byte{"probe": []byte("v0")})

		staleReads := 0
		var recencyWait time.Duration
		var lagSum, lagMax, lagN uint64

		rounds := 40
		for r := 0; r < rounds; r++ {
			// The straggler registers (fixing its serial position), then
			// dawdles before committing.
			strag, _ := e.Begin(engine.ReadWrite)
			if err := strag.Put("strag", []byte("x")); err != nil {
				panic(err)
			}
			// Younger writers commit immediately behind it.
			for i := 0; i < 5; i++ {
				tx, _ := e.Begin(engine.ReadWrite)
				if err := tx.Put("probe", []byte(fmt.Sprintf("r%d-%d", r, i))); err != nil {
					panic(err)
				}
				if err := tx.Commit(); err != nil {
					panic(err)
				}
			}
			lag := e.VC().Lag()
			lagSum += lag
			lagN++
			if lag > lagMax {
				lagMax = lag
			}
			// A plain read-only txn started now misses the younger commits.
			ro, _ := e.Begin(engine.ReadOnly)
			if v, err := ro.Get("probe"); err == nil && string(v) != fmt.Sprintf("r%d-4", r) {
				staleReads++
			}
			ro.Commit()

			// Recency rectification: a reader that insists on seeing the
			// straggler waits for exactly as long as the straggler holds
			// its registration.
			done := make(chan struct{})
			t0 := time.Now()
			go func() {
				rro, _ := e.BeginReadOnlyRecent()
				recencyWait += time.Since(t0)
				rro.Commit()
				close(done)
			}()
			if hold > 0 {
				time.Sleep(hold)
			}
			if err := strag.Commit(); err != nil {
				panic(err)
			}
			<-done
		}
		tb.AddRow(fmt.Sprint(hold), metrics.F(float64(lagSum)/float64(lagN)), fmt.Sprint(lagMax),
			fmt.Sprintf("%d/%d", staleReads, rounds), metrics.Dur(recencyWait.Nanoseconds()/int64(rounds)))
		e.Close()
	}
	fmt.Print(tb.String())
	fmt.Println("paper Section 6: read-only transactions trade currency for zero\nsynchronization; the rectified begin waits out exactly the straggler hold.")
}

// --- E7: garbage collection -----------------------------------------------------

func runE7(quick bool) {
	updates := 5000
	if quick {
		updates = 1000
	}
	tb := metrics.Table{
		Title:   "E7 — version retention: collection by commits, and a final pass",
		Headers: []string{"configuration", "updates", "versions retained", "pruned by commits", "pruned by pass", "old snapshot intact"},
	}

	// A logged engine collects as each commit completes; an in-memory one
	// when a commit finds the key's version array full (DESIGN.md §17).
	run := func(name string, logged, pass, holdSnapshot bool) {
		opts := core.Options{Protocol: core.TwoPhaseLocking}
		var e *core.Engine
		if logged {
			dir, err := os.MkdirTemp("", "mvbench-e7")
			if err == nil {
				defer os.RemoveAll(dir)
				e, err = core.OpenDurable(filepath.Join(dir, "commit.log"), opts, core.DurableOptions{})
			}
			if err != nil {
				panic(err)
			}
		} else {
			e = core.New(opts)
		}
		e.Bootstrap(map[string][]byte{"hot": []byte("v0")})
		var snap engine.Tx
		if holdSnapshot {
			snap, _ = e.Begin(engine.ReadOnly)
		}
		for i := 0; i < updates; i++ {
			tx, _ := e.Begin(engine.ReadWrite)
			tx.Put("hot", []byte(fmt.Sprintf("v%d", i)))
			if err := tx.Commit(); err != nil {
				panic(err)
			}
		}
		intact := "n/a"
		if holdSnapshot {
			if v, err := snap.Get("hot"); err == nil && string(v) == "v0" {
				intact = "yes"
			} else {
				intact = fmt.Sprintf("NO (%q)", v)
			}
			snap.Commit()
		}
		byCommits := e.Obs().GCReclaimed.Load()
		byPass := 0
		if pass {
			byPass = gc.New(e, 0).Collect()
		}
		tb.AddRow(name, fmt.Sprint(updates), fmt.Sprint(e.Store().TotalVersions()), fmt.Sprint(byCommits), fmt.Sprint(byPass), intact)
		e.Close()
	}
	run("in-memory: commits only", false, false, false)
	run("in-memory: commits + pass", false, true, false)
	run("in-memory: held snapshot + pass", false, true, true)
	run("logged: commits only", true, false, false)
	run("logged: held snapshot + pass", true, true, true)
	fmt.Print(tb.String())
	fmt.Println("paper Section 6: GC may discard everything strictly older than the newest\nversion at the watermark = min(vtnc, oldest active read-only start number);\nhere a logged commit does it once it completes, and any commit when it finds\na chain's array full.")
}

// --- E8: distributed -----------------------------------------------------------

func runE8(quick bool) {
	txnsPer := 200
	if quick {
		txnsPer = 60
	}
	tb := metrics.Table{
		Title:   "E8 — distributed version control (2PC writes, one-start-number reads)",
		Headers: []string{"sites", "latency", "txns/s", "msgs/txn", "ro waits", "ro fillers"},
	}
	for _, sites := range []int{1, 2, 4} {
		for _, lat := range []time.Duration{0, 200 * time.Microsecond} {
			if quick && lat > 0 && sites > 2 {
				continue
			}
			c, err := dist.New(dist.Options{Sites: sites, Latency: lat})
			if err != nil {
				panic(err)
			}
			wl := workload.Config{Keys: 48, ReadOnlyFraction: 0.5,
				ROReads: 3, RWReads: 1, RWWrites: 2, Seed: 17}
			c.Bootstrap(wl.Bootstrap())

			res, err := harness.Run(harness.Config{
				Engine: c, Clients: 6, TxnsPerClient: txnsPer, Workload: wl,
			})
			if err != nil {
				panic(err)
			}
			total := res.CommittedRO + res.CommittedRW
			msgs := float64(c.Bus().Messages()) / float64(total)
			tb.AddRow(fmt.Sprint(sites), fmt.Sprint(lat), metrics.F(res.Throughput()),
				metrics.F(msgs), fmt.Sprint(res.Stats.RecencyWaits), fmt.Sprint(c.Fillers()))
			dumpStats(fmt.Sprintf("e8 sites=%d lat=%v", sites, lat), res.Stats)
			c.Close()
		}
	}
	fmt.Print(tb.String())
	fmt.Println("paper Section 6: read-only transactions carry one start number and no 2PC;\nonly read-write transactions pay the vote/commit message cost.")
}
