// The paper's comparative claims (Sections 1, 2 and 6) as experiments
// E1–E4 and E6–E8, one function each. A function runs its experiment and
// returns the table's typed rows; it has two callers:
//
//   - TestPaperClaims/<E> runs it at quick size and asserts the verdict
//     EXPERIMENTS.md records, pairing every zero cell with a positive
//     control so that a pass shows something. Under -v it logs the table.
//   - BenchmarkE<N> runs it at full size, logs the table EXPERIMENTS.md
//     records and reports the verdict cells as metrics:
//     go test -run '^$' -bench BenchmarkE3 -benchtime 1x -v .
//
// No assertion bounds wall-clock time from above: the cells asserted are
// counts (allocations, blocked reads, aborts, copies, bus messages,
// versions), and E6's recency wait is bounded only from below.
package mvdb

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mvdb/internal/baseline"
	"mvdb/internal/core"
	"mvdb/internal/dist"
	"mvdb/internal/engine"
	"mvdb/internal/gc"
	"mvdb/internal/harness"
	"mvdb/internal/metrics"
	"mvdb/internal/workload"
)

// namedEngine makes fresh instances of one engine under comparison.
type namedEngine struct {
	name string
	make func() engine.Engine
}

// roster is every engine under comparison: the paper's three and the
// three Section 2 baselines.
func roster() []namedEngine {
	return []namedEngine{
		{"vc+2pl", func() engine.Engine { return core.New(core.Options{Protocol: core.TwoPhaseLocking}) }},
		{"vc+to", func() engine.Engine { return core.New(core.Options{Protocol: core.TimestampOrdering}) }},
		{"vc+occ", func() engine.Engine { return core.New(core.Options{Protocol: core.Optimistic}) }},
		{"mvto", func() engine.Engine { return baseline.NewMVTO(nil) }},
		{"mv2plctl", func() engine.Engine { return baseline.NewMV2PLCTL(nil) }},
		{"sv2pl", func() engine.Engine { return baseline.NewSV2PL(nil) }},
	}
}

// isVC reports whether name is one of the paper's engines.
func isVC(name string) bool { return strings.HasPrefix(name, "vc+") }

// boot loads the workload's keys into a fresh engine.
func boot(tb testing.TB, e engine.Engine, wl workload.Config) {
	tb.Helper()
	if err := e.(interface{ Bootstrap(map[string][]byte) error }).Bootstrap(wl.Bootstrap()); err != nil {
		tb.Fatal(err)
	}
}

// run is one harness run that fails tb on error.
func run(tb testing.TB, cfg harness.Config) harness.Result {
	tb.Helper()
	res, err := harness.Run(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// size picks an experiment's full or quick figure.
func size(full bool, fullN, quickN int) int {
	if full {
		return fullN
	}
	return quickN
}

// dur renders a table cell's duration.
func dur(d time.Duration) string { return metrics.Dur(d.Nanoseconds()) }

// logTable renders an experiment's rows through tb.Log.
func logTable[R interface{ cells() []string }](tb testing.TB, title string, headers []string, rows []R) {
	tb.Helper()
	t := metrics.Table{Title: title, Headers: headers}
	for _, r := range rows {
		t.AddRow(r.cells()...)
	}
	tb.Log("\n" + t.String())
}

// --- E1: read-only overhead (§1, §6) ---------------------------------------

type e1Row struct {
	engine    string
	allocs    float64 // per 4-read read-only transaction
	mean, p99 time.Duration
}

func (r e1Row) cells() []string {
	return []string{r.engine, fmt.Sprint(r.allocs), dur(r.mean), dur(r.p99)}
}

// e1VCAllocs is what a vc+* read-only transaction of four reads
// allocates through Begin: its transaction object, and nothing per read.
const e1VCAllocs = 1

// runE1 times read-only transactions of four reads, with no concurrent
// writers, over a store that already holds some version history, and
// counts what each allocates.
func runE1(tb testing.TB, full bool) []e1Row {
	txns := size(full, 100_000, 2_000)
	keys := []string{"key000001", "key000050", "key000100", "key000200"}
	var rows []e1Row
	for _, ne := range roster() {
		e := ne.make()
		boot(tb, e, workload.Config{Keys: 256, Seed: 1})
		run(tb, harness.Config{Engine: e, Clients: 2, TxnsPerClient: 200,
			Workload: workload.Config{Keys: 256, RWWrites: 4, Seed: 2}})
		readOnly := func() {
			tx, err := e.Begin(engine.ReadOnly)
			if err != nil {
				tb.Fatal(err)
			}
			for _, k := range keys {
				if _, err := tx.Get(k); err != nil {
					tb.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				tb.Fatal(err)
			}
		}
		lat := metrics.NewHistogram()
		for i := 0; i < txns; i++ {
			t0 := time.Now()
			readOnly()
			lat.RecordSince(t0)
		}
		s := lat.Summarize()
		rows = append(rows, e1Row{ne.name, testing.AllocsPerRun(1000, readOnly),
			time.Duration(s.Mean), time.Duration(s.P99)})
		e.Close()
	}
	return rows
}

func logE1(tb testing.TB, rows []e1Row) {
	logTable(tb, "E1 — read-only transaction of 4 reads, no concurrent writers",
		[]string{"engine", "allocs/txn", "mean", "p99"}, rows)
}

// --- E2: read-write aborts caused by read-only transactions (§1, §2) ----------

type e2Row struct {
	engine          string
	roShare         float64
	rwCommits       uint64
	conflicts, byRO int64
}

func (r e2Row) cells() []string {
	return []string{r.engine, fmt.Sprint(r.roShare), fmt.Sprint(r.rwCommits),
		fmt.Sprint(r.conflicts), fmt.Sprint(r.byRO)}
}

// runE2 sweeps the read-only share of a contended mixed load over the
// timestamp-ordered and optimistic engines (a locking engine's readers
// delay writers; they do not abort them) and counts the write rejections
// each engine attributes to an r-ts a read-only transaction raised.
func runE2(tb testing.TB, full bool) []e2Row {
	txns, shares := 80, []float64{0.5}
	if full {
		txns, shares = 300, []float64{0.25, 0.5, 0.75}
	}
	var rows []e2Row
	for _, ne := range roster()[:4] {
		for _, ro := range shares {
			e := ne.make()
			wl := workload.Config{Keys: 24, ReadOnlyFraction: ro, ROReads: 4, RWReads: 1, RWWrites: 2, Seed: 7}
			boot(tb, e, wl)
			res := run(tb, harness.Config{Engine: e, Clients: 8, TxnsPerClient: txns, Workload: wl,
				OpDelay: 30 * time.Microsecond, RetryLimit: 2000})
			rows = append(rows, e2Row{ne.name, ro, res.CommittedRW, res.Stats.AbortsConflict, res.Stats.RWAbortsByRO})
			e.Close()
		}
	}
	return rows
}

func logE2(tb testing.TB, rows []e2Row) {
	logTable(tb, "E2 — read-write aborts attributable to read-only transactions",
		[]string{"engine", "ro share", "rw commits", "rw conflicts", "caused by RO"}, rows)
}

// --- E3: read-only blocking behind writers (§1, §2 on Reed) --------------------

type e3Row struct {
	engine                         string
	roCommits, roBlocked, roAborts uint64
	roP99, rwP99                   time.Duration
}

func (r e3Row) cells() []string {
	return []string{r.engine, fmt.Sprint(r.roCommits), fmt.Sprint(r.roBlocked),
		fmt.Sprint(r.roAborts), dur(r.roP99), dur(r.rwP99)}
}

// runE3 runs a write-heavy load, half of it read-only, on every engine
// and counts the read-only reads that waited and the read-only
// transactions that aborted.
func runE3(tb testing.TB, full bool) []e3Row {
	txns := size(full, 300, 80)
	var rows []e3Row
	for _, ne := range roster() {
		e := ne.make()
		wl := workload.Config{Keys: 24, ReadOnlyFraction: 0.5, ROReads: 4, RWReads: 1, RWWrites: 3, Seed: 11}
		boot(tb, e, wl)
		res := run(tb, harness.Config{Engine: e, Clients: 8, TxnsPerClient: txns, Workload: wl,
			OpDelay: 30 * time.Microsecond, RetryLimit: 2000})
		rows = append(rows, e3Row{ne.name, res.CommittedRO, uint64(res.Stats.ROBlocked), res.RORetries,
			time.Duration(res.ROLatency.P99), time.Duration(res.RWLatency.P99)})
		e.Close()
	}
	return rows
}

func logE3(tb testing.TB, rows []e3Row) {
	logTable(tb, "E3 — read-only reads blocking behind writers (50% read-only, write-heavy)",
		[]string{"engine", "ro commits", "ro blocked", "ro aborted", "ro p99", "rw p99"}, rows)
}

// --- E4: snapshot start cost, VCstart against Chan's CTL copy (§2) ----------------

type e4Row struct {
	window     int
	copied     float64 // CTL entries per Chan read-only begin
	chanBegin  time.Duration
	chanAllocs float64
	vcBegin    time.Duration
	vcAllocs   float64
}

func (r e4Row) cells() []string {
	return []string{fmt.Sprint(r.window), fmt.Sprint(r.copied), dur(r.chanBegin),
		fmt.Sprint(r.chanAllocs), dur(r.vcBegin), fmt.Sprint(r.vcAllocs)}
}

// runE4 holds a straggler open behind window later commits and measures
// a read-only begin and commit: Chan's copies the completed transaction
// list's out-of-order tail, a VC View takes one VCstart.
func runE4(tb testing.TB, full bool) []e4Row {
	windows := []int{0, 64, 256}
	if full {
		windows = append(windows, 1024)
	}
	const probes = 2000
	timed := func(f func()) time.Duration {
		t0 := time.Now()
		for i := 0; i < probes; i++ {
			f()
		}
		return time.Since(t0) / probes
	}
	commitWindow := func(e engine.Engine, window int) {
		for i := 0; i < window; i++ {
			tx, err := e.Begin(engine.ReadWrite)
			if err == nil {
				err = tx.Put(fmt.Sprintf("k%d", i), []byte("v"))
			}
			if err == nil {
				err = tx.Commit()
			}
			if err != nil {
				tb.Fatal(err)
			}
		}
	}
	var rows []e4Row
	for _, window := range windows {
		r := e4Row{window: window}

		// Chan: a transaction past its lock-point holds its number
		// uncommitted, so every later commit lands in the CTL's
		// out-of-order tail, which each read-only begin copies.
		ch := baseline.NewMV2PLCTL(nil)
		release := ch.HoldNumber()
		commitWindow(ch, window)
		chanRO := func() {
			ro, _ := ch.Begin(engine.ReadOnly)
			ro.Commit()
		}
		before := ch.CTLCopied()
		r.chanBegin = timed(chanRO)
		r.copied = float64(ch.CTLCopied()-before) / probes
		r.chanAllocs = testing.AllocsPerRun(probes, chanRO)
		release()
		ch.Close()

		// VC, same shape: T/O registers at begin, so the straggler holds
		// vtnc while the window's commits queue behind it.
		vc := core.New(core.Options{Protocol: core.TimestampOrdering})
		strag, _ := vc.Begin(engine.ReadWrite)
		if err := strag.Put("straggler", []byte("x")); err != nil {
			tb.Fatal(err)
		}
		commitWindow(vc, window)
		vcRO := func() { vc.View(func(*core.Tx) error { return nil }) }
		r.vcBegin = timed(vcRO)
		r.vcAllocs = testing.AllocsPerRun(probes, vcRO)
		strag.Commit()
		vc.Close()
		rows = append(rows, r)
	}
	return rows
}

func logE4(tb testing.TB, rows []e4Row) {
	logTable(tb, "E4 — read-only begin+commit against the out-of-order commit window",
		[]string{"window", "CTL entries copied/begin", "chan begin", "chan allocs", "vc begin", "vc allocs"}, rows)
}

// --- E6: delayed visibility and its rectification (§6) ---------------------------

type e6Row struct {
	hold           time.Duration
	lagMean        float64
	lagMin, lagMax uint64
	stale, rounds  int
	current        int           // rectified reads that saw the straggler's write
	recencyWait    time.Duration // mean
	minRecencyWait time.Duration
}

func (r e6Row) cells() []string {
	return []string{dur(r.hold), fmt.Sprint(r.lagMean), fmt.Sprintf("%d/%d", r.lagMin, r.lagMax),
		fmt.Sprintf("%d/%d", r.stale, r.rounds), fmt.Sprintf("%d/%d", r.current, r.rounds),
		dur(r.recencyWait), dur(r.minRecencyWait)}
}

// runE6 registers a straggler, commits five younger writers behind it
// and reads: a plain read-only transaction reads the stale, consistent
// snapshot below the straggler, and BeginReadOnlyRecent waits until the
// straggler, held for hold, commits.
func runE6(tb testing.TB, full bool) []e6Row {
	holds := []time.Duration{0, 2 * time.Millisecond}
	if full {
		holds = append(holds, 10*time.Millisecond)
	}
	rounds := size(full, 40, 20)
	var rows []e6Row
	for _, hold := range holds {
		e := core.New(core.Options{Protocol: core.TimestampOrdering})
		e.Bootstrap(map[string][]byte{"probe": []byte("v0")})
		r := e6Row{hold: hold, rounds: rounds, lagMin: ^uint64(0), minRecencyWait: time.Duration(1<<63 - 1)}
		var lagSum uint64
		var waitSum time.Duration
		for i := 0; i < rounds; i++ {
			strag, _ := e.Begin(engine.ReadWrite)
			mine := fmt.Sprintf("s%d", i)
			if err := strag.Put("strag", []byte(mine)); err != nil {
				tb.Fatal(err)
			}
			newest := ""
			for j := 0; j < 5; j++ {
				newest = fmt.Sprintf("r%d-%d", i, j)
				tx, _ := e.Begin(engine.ReadWrite)
				if err := tx.Put("probe", []byte(newest)); err != nil {
					tb.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					tb.Fatal(err)
				}
			}
			lag := e.VisibilityLag()
			lagSum += lag
			r.lagMin, r.lagMax = min(r.lagMin, lag), max(r.lagMax, lag)

			ro, _ := e.Begin(engine.ReadOnly)
			if v, err := ro.Get("probe"); err == nil && string(v) != newest {
				r.stale++
			}
			ro.Commit()

			// The rectified reader must see the straggler's own write,
			// so it waits out the straggler's hold.
			type seen struct {
				wait time.Duration
				v    string
			}
			done := make(chan seen)
			t0 := time.Now()
			go func() {
				rro, _ := e.BeginReadOnlyRecent()
				wait := time.Since(t0)
				v, _ := rro.Get("strag")
				rro.Commit()
				done <- seen{wait, string(v)}
			}()
			time.Sleep(hold)
			if err := strag.Commit(); err != nil {
				tb.Fatal(err)
			}
			s := <-done
			if s.v == mine {
				r.current++
			}
			waitSum += s.wait
			r.minRecencyWait = min(r.minRecencyWait, s.wait)
		}
		r.lagMean = float64(lagSum) / float64(rounds)
		r.recencyWait = waitSum / time.Duration(rounds)
		rows = append(rows, r)
		e.Close()
	}
	return rows
}

func logE6(tb testing.TB, rows []e6Row) {
	logTable(tb, "E6 — visibility lag under a registered straggler (vc+to)",
		[]string{"straggler hold", "mean lag", "min/max lag", "stale RO reads", "rectified reads current", "recency wait", "min recency wait"}, rows)
}

// --- E7: version garbage collection (§6) ----------------------------------------

type e7Row struct {
	config             string
	logged, pass, held bool
	updates, versions  int
	byCommits          int64
	byPass             int
	snapshotIntact     bool // a snapshot held across the updates read v0
}

func (r e7Row) cells() []string {
	intact := "n/a"
	if r.held {
		intact = fmt.Sprint(r.snapshotIntact)
	}
	return []string{r.config, fmt.Sprint(r.updates), fmt.Sprint(r.versions),
		fmt.Sprint(r.byCommits), fmt.Sprint(r.byPass), intact}
}

// runE7 overwrites one key, in memory and logged, with and without a
// snapshot held across the overwrites, and counts what commits and a
// final pass collect.
func runE7(tb testing.TB, full bool) []e7Row {
	updates := size(full, 5000, 1000)
	configs := []e7Row{
		{config: "in-memory: commits only"},
		{config: "in-memory: commits + pass", pass: true},
		{config: "in-memory: held snapshot + pass", pass: true, held: true},
		{config: "logged: commits only", logged: true},
		{config: "logged: held snapshot + pass", logged: true, pass: true, held: true},
	}
	for i := range configs {
		r := &configs[i]
		r.updates = updates
		opts := core.Options{Protocol: core.TwoPhaseLocking}
		var e *core.Engine
		if r.logged {
			var err error
			if e, err = core.OpenDurable(filepath.Join(tb.TempDir(), "commit.log"), opts, core.DurableOptions{}); err != nil {
				tb.Fatal(err)
			}
		} else {
			e = core.New(opts)
		}
		e.Bootstrap(map[string][]byte{"hot": []byte("v0")})
		var snap engine.Tx
		if r.held {
			snap, _ = e.Begin(engine.ReadOnly)
		}
		for j := 0; j < updates; j++ {
			tx, _ := e.Begin(engine.ReadWrite)
			tx.Put("hot", []byte(fmt.Sprintf("v%d", j+1)))
			if err := tx.Commit(); err != nil {
				tb.Fatal(err)
			}
		}
		if r.held {
			v, err := snap.Get("hot")
			r.snapshotIntact = err == nil && string(v) == "v0"
			snap.Commit()
		}
		r.byCommits = e.Obs().GCReclaimed.Load()
		if r.pass {
			r.byPass = gc.New(e, 0).Collect()
		}
		r.versions = int(e.Stats().Versions)
		e.Close()
	}
	return configs
}

func logE7(tb testing.TB, rows []e7Row) {
	logTable(tb, "E7 — version retention: collection by commits, and a final pass",
		[]string{"configuration", "updates", "versions retained", "pruned by commits", "pruned by pass", "old snapshot intact"}, rows)
}

// --- E8: distributed version control (§6) ----------------------------------------

type e8Row struct {
	sites            int
	latency          time.Duration
	txnPerSec        float64
	msgsPerTxn       float64
	roWaits, fillers uint64
	// Bus messages of one transaction, counted on the quiet cluster after
	// the load: a read-only one with e8Reads reads begun at the
	// coordinator and at a home site, and a read-write one's commit
	// across participants sites.
	roMsgs, roHomeMsgs, rwCommitMsgs uint64
	participants                     int
}

func (r e8Row) cells() []string {
	return []string{fmt.Sprint(r.sites), dur(r.latency), fmt.Sprintf("%.0f", r.txnPerSec),
		fmt.Sprintf("%.3f", r.msgsPerTxn), fmt.Sprint(r.roWaits), fmt.Sprint(r.fillers),
		fmt.Sprint(r.roMsgs), fmt.Sprint(r.roHomeMsgs), fmt.Sprintf("%d/%d", r.rwCommitMsgs, r.participants)}
}

// e8Reads is the number of reads in E8's read-only probe.
const e8Reads = 3

// runE8 runs a half read-only load over clusters of 1, 2 and 4 sites,
// with and without message latency, then counts the bus messages of one
// read-only and one cross-site read-write transaction.
func runE8(tb testing.TB, full bool) []e8Row {
	txns := size(full, 200, 60)
	var rows []e8Row
	for _, sites := range []int{1, 2, 4} {
		for _, lat := range []time.Duration{0, 200 * time.Microsecond} {
			if !full && lat > 0 && sites > 2 {
				continue
			}
			c, err := dist.New(dist.Options{Sites: sites, Latency: lat})
			if err != nil {
				tb.Fatal(err)
			}
			wl := workload.Config{Keys: 48, ReadOnlyFraction: 0.5, ROReads: 3, RWReads: 1, RWWrites: 2, Seed: 17}
			boot(tb, c, wl)
			res := run(tb, harness.Config{Engine: c, Clients: 6, TxnsPerClient: txns, Workload: wl})
			r := e8Row{sites: sites, latency: lat, txnPerSec: res.Throughput(),
				msgsPerTxn: float64(c.Bus().Messages()) / float64(res.CommittedRO+res.CommittedRW),
				roWaits:    uint64(res.Stats.RecencyWaits), fillers: c.Fillers()}

			// One key per site, for the read-write probe.
			keyAt := map[*dist.Site]string{}
			for i := 0; len(keyAt) < sites; i++ {
				k := fmt.Sprintf("key%06d", i)
				if _, ok := keyAt[c.SiteFor(k)]; !ok {
					keyAt[c.SiteFor(k)] = k
				}
			}
			msgs := func(f func() error) uint64 {
				m := c.Bus().Messages()
				if err := f(); err != nil {
					tb.Fatal(err)
				}
				return c.Bus().Messages() - m
			}
			readOnly := func(begin func() (engine.Tx, error)) uint64 {
				return msgs(func() error {
					tx, err := begin()
					for i := 0; err == nil && i < e8Reads; i++ {
						_, err = tx.Get(fmt.Sprintf("key%06d", i))
					}
					if err != nil {
						return err
					}
					return tx.Commit()
				})
			}
			r.roMsgs = readOnly(func() (engine.Tx, error) { return c.Begin(engine.ReadOnly) })
			r.roHomeMsgs = readOnly(func() (engine.Tx, error) { return c.BeginReadOnlyAtHome(0) })
			rw, err := c.Begin(engine.ReadWrite)
			if err != nil {
				tb.Fatal(err)
			}
			for _, k := range keyAt {
				if err := rw.Put(k, []byte("probe")); err != nil {
					tb.Fatal(err)
				}
			}
			r.participants = len(keyAt)
			r.rwCommitMsgs = msgs(rw.Commit)
			rows = append(rows, r)
			c.Close()
		}
	}
	return rows
}

func logE8(tb testing.TB, rows []e8Row) {
	logTable(tb, "E8 — distributed version control (2PC writes, one-start-number reads)",
		[]string{"sites", "latency", "txns/s", "msgs/txn", "ro waits", "fillers",
			fmt.Sprintf("ro msgs (%d reads)", e8Reads), "ro msgs, home start", "rw commit msgs/participants"}, rows)
}

// --- the verdicts -------------------------------------------------------------------

// TestPaperClaims holds the verdict of each experiment at quick size.
// The subtests run one after another: E1 and E4 count allocations, which
// a concurrent subtest would add to.
func TestPaperClaims(t *testing.T) {
	t.Run("E1", func(t *testing.T) {
		rows := runE1(t, false)
		logE1(t, rows)
		var vcMax, sv2pl float64
		for _, r := range rows {
			switch {
			case isVC(r.engine):
				if r.allocs > e1VCAllocs {
					t.Errorf("%s: a read-only transaction of 4 reads allocates %v objects, want at most %d", r.engine, r.allocs, e1VCAllocs)
				}
				vcMax = max(vcMax, r.allocs)
			case r.engine == "sv2pl":
				sv2pl = r.allocs
			}
		}
		if sv2pl <= vcMax {
			t.Errorf("sv2pl allocates %v per read-only transaction, not more than the vc engines' %v: the control shows nothing", sv2pl, vcMax)
		}
	})
	t.Run("E2", func(t *testing.T) {
		rows := runE2(t, false)
		logE2(t, rows)
		var mvto int64
		for _, r := range rows {
			switch {
			case isVC(r.engine) && r.byRO != 0:
				t.Errorf("%s at ro share %v: %d read-write aborts caused by read-only transactions, want 0", r.engine, r.roShare, r.byRO)
			case r.engine == "mvto":
				mvto += r.byRO
			}
		}
		if mvto == 0 {
			t.Error("mvto: no read-write abort caused by a read-only transaction: the control shows nothing")
		}
	})
	t.Run("E3", func(t *testing.T) {
		rows := runE3(t, false)
		logE3(t, rows)
		for _, r := range rows {
			switch {
			case isVC(r.engine) && (r.roBlocked != 0 || r.roAborts != 0):
				t.Errorf("%s: %d read-only reads blocked and %d read-only transactions retried, want 0 and 0", r.engine, r.roBlocked, r.roAborts)
			case (r.engine == "mvto" || r.engine == "sv2pl") && r.roBlocked == 0:
				t.Errorf("%s: no read-only read blocked: the control shows nothing", r.engine)
			}
		}
	})
	t.Run("E4", func(t *testing.T) {
		rows := runE4(t, false)
		logE4(t, rows)
		for _, r := range rows {
			if r.copied != float64(r.window+1) {
				t.Errorf("window %d: Chan's read-only begin copied %v CTL entries, want %d", r.window, r.copied, r.window+1)
			}
			if r.vcAllocs != 0 {
				t.Errorf("window %d: a VC read-only begin allocates %v objects, want 0", r.window, r.vcAllocs)
			}
		}
	})
	t.Run("E6", func(t *testing.T) {
		rows := runE6(t, false)
		logE6(t, rows)
		const eps = 200 * time.Microsecond
		for _, r := range rows {
			if r.stale != r.rounds || r.lagMin == 0 {
				t.Errorf("hold %v: %d/%d plain read-only reads stale, lag at least %d; want every read stale behind a positive lag",
					r.hold, r.stale, r.rounds, r.lagMin)
			}
			if r.current != r.rounds {
				t.Errorf("hold %v: %d/%d rectified reads saw the straggler's write, want all", r.hold, r.current, r.rounds)
			}
			if r.minRecencyWait < r.hold-eps {
				t.Errorf("hold %v: a rectified begin returned after %v, before the straggler committed", r.hold, r.minRecencyWait)
			}
		}
	})
	t.Run("E7", func(t *testing.T) {
		rows := runE7(t, false)
		logE7(t, rows)
		for _, r := range rows {
			if r.pass && r.versions != 1 {
				t.Errorf("%s: %d versions after a pass, want 1 (one key)", r.config, r.versions)
			}
			if r.held && (!r.snapshotIntact || r.byCommits != 0) {
				t.Errorf("%s: snapshot intact %v, %d versions collected under it; want intact and none", r.config, r.snapshotIntact, r.byCommits)
			}
			if r.logged && !r.pass && r.versions != 1 {
				t.Errorf("%s: the key rests at %d versions, want 1", r.config, r.versions)
			}
		}
	})
	t.Run("E8", func(t *testing.T) {
		rows := runE8(t, false)
		logE8(t, rows)
		for _, r := range rows {
			if r.roMsgs != e8Reads || r.roHomeMsgs != e8Reads+1 {
				t.Errorf("%d sites: a read-only transaction of %d reads cost %d messages (%d begun at a home site), want %d (%d): one per read, one for a home start number, none to commit",
					r.sites, e8Reads, r.roMsgs, r.roHomeMsgs, e8Reads, e8Reads+1)
			}
			if r.rwCommitMsgs < 2*uint64(r.participants) {
				t.Errorf("%d sites: a read-write commit over %d participants cost %d messages, want at least 2 each", r.sites, r.participants, r.rwCommitMsgs)
			}
		}
	})
}

// --- full-size tables ------------------------------------------------------------

// BenchmarkE1ReadOnlyOverhead: Section 1's "no concurrency control
// overhead" for read-only transactions.
func BenchmarkE1ReadOnlyOverhead(b *testing.B) {
	var rows []e1Row
	for i := 0; i < b.N; i++ {
		rows = runE1(b, true)
	}
	logE1(b, rows)
	for _, r := range rows {
		b.ReportMetric(r.allocs, r.engine+"-allocs/txn")
	}
}

// BenchmarkE2AbortAttribution: read-write aborts caused by read-only
// transactions.
func BenchmarkE2AbortAttribution(b *testing.B) {
	var rows []e2Row
	for i := 0; i < b.N; i++ {
		rows = runE2(b, true)
	}
	logE2(b, rows)
	byRO := map[string]int64{}
	for _, r := range rows {
		byRO[r.engine] += r.byRO
	}
	for name, n := range byRO {
		b.ReportMetric(float64(n), name+"-aborts-by-ro")
	}
}

// BenchmarkE3ReadOnlyBlocking: read-only reads blocking behind writers.
func BenchmarkE3ReadOnlyBlocking(b *testing.B) {
	var rows []e3Row
	for i := 0; i < b.N; i++ {
		rows = runE3(b, true)
	}
	logE3(b, rows)
	for _, r := range rows {
		b.ReportMetric(float64(r.roBlocked), r.engine+"-ro-blocked")
	}
}

// BenchmarkE4StartCost: read-only begin cost as the out-of-order commit
// window grows, Chan's CTL copy against VCstart.
func BenchmarkE4StartCost(b *testing.B) {
	var rows []e4Row
	for i := 0; i < b.N; i++ {
		rows = runE4(b, true)
	}
	logE4(b, rows)
	last := rows[len(rows)-1]
	b.ReportMetric(last.copied, fmt.Sprintf("ctl-copied/begin@%d", last.window))
	b.ReportMetric(last.vcAllocs, fmt.Sprintf("vc-allocs/begin@%d", last.window))
}

// BenchmarkE6VisibilityLag: the straggler's lag, the stale reads it
// causes, and the rectified begin's wait.
func BenchmarkE6VisibilityLag(b *testing.B) {
	var rows []e6Row
	for i := 0; i < b.N; i++ {
		rows = runE6(b, true)
	}
	logE6(b, rows)
	for _, r := range rows {
		b.ReportMetric(float64(r.recencyWait.Microseconds()), fmt.Sprintf("recency-wait-us@%v", r.hold))
	}
}

// BenchmarkE7GC: versions retained under the watermark rule.
func BenchmarkE7GC(b *testing.B) {
	var rows []e7Row
	for i := 0; i < b.N; i++ {
		rows = runE7(b, true)
	}
	logE7(b, rows)
	b.ReportMetric(float64(rows[0].versions), "in-memory-versions")
	b.ReportMetric(float64(rows[3].versions), "logged-versions")
}

// BenchmarkE8Distributed: messages per transaction by site count.
func BenchmarkE8Distributed(b *testing.B) {
	var rows []e8Row
	for i := 0; i < b.N; i++ {
		rows = runE8(b, true)
	}
	logE8(b, rows)
	for _, r := range rows {
		if r.latency == 0 {
			b.ReportMetric(r.msgsPerTxn, fmt.Sprintf("msgs/txn@%d-sites", r.sites))
		}
	}
}
