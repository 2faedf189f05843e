package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"mvdb"
)

const (
	defaultSeconds = 40
	setups         = 31  // set-up repeats per run; the second-fastest is reported
	warmSlices     = 2   // unmeasured slices before the first measured one
	loadBatch      = 500 // keys per Update when loading a durable workload
)

// config is one invocation: a workload, a seed and a length.
type config struct {
	w       *spec
	seed    uint64
	seconds int
	quick   bool   // small counts, for the test
	dir     string // scratch directory for log files and the span file
}

// runner drives one workload against one database at a time.
type runner struct {
	cfg    config
	w      spec // cfg.w, shrunk under -quick
	slices int
	d      *dataset
	dev    *modelDev

	db      *mvdb.DB
	opts    mvdb.Options
	walSeq  int
	cs      []*client
	scratch []int64

	// db.CollectGarbage passes, which in-memory workloads run between slices.
	gcNS, gcReclaimed, gcPasses int64
}

func newRunner(cfg config) *runner {
	r := &runner{cfg: cfg, w: *cfg.w, dev: &modelDev{}}
	r.slices = max(int(float64(cfg.seconds)/r.w.sliceSec), 3)
	if cfg.quick {
		r.w.keys /= 2
		r.w.sliceTxns = max(r.w.sliceTxns/20, 100)
		r.slices = 3
	}
	r.d = newDataset(&r.w, cfg.seed)
	return r
}

// setupInfo is what one set-up cost.
type setupInfo struct {
	total, recovery time.Duration
	walBytes        int64
}

// setup opens a database and loads the dataset, leaving it in r.db. An
// in-memory workload bootstraps; a durable one loads through batched
// Updates, closes, and opens again so that recovery from the log is part
// of the figure.
func (r *runner) setup(phaseTiming bool) (setupInfo, error) {
	var info setupInfo
	start := time.Now()
	r.opts = mvdb.Options{PhaseTiming: phaseTiming}
	if !r.w.durable {
		db, err := mvdb.Open(r.opts)
		if err != nil {
			return info, err
		}
		r.db = db
		if err := db.Bootstrap(r.d.initial); err != nil {
			return info, err
		}
		info.total = time.Since(start)
		return info, nil
	}
	r.walSeq++
	r.opts.WALPath = filepath.Join(r.cfg.dir, fmt.Sprintf("wal-%d.log", r.walSeq))
	r.opts.GroupCommit = true
	r.opts.FS = r.dev
	db, err := mvdb.Open(r.opts)
	if err != nil {
		return info, err
	}
	r.db = db
	load := r.d.load
	for len(load) > 0 {
		batch := load[:min(loadBatch, len(load))]
		load = load[len(batch):]
		err := db.Update(func(tx *mvdb.Tx) error {
			for _, k := range batch {
				if err := tx.Put(k, r.d.initial[k]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return info, fmt.Errorf("load: %w", err)
		}
	}
	if err := db.Close(); err != nil {
		return info, fmt.Errorf("close after load: %w", err)
	}
	fi, err := os.Stat(r.opts.WALPath)
	if err != nil {
		return info, err
	}
	info.walBytes = fi.Size()
	reopen := time.Now()
	if r.db, err = mvdb.Open(r.opts); err != nil {
		return info, fmt.Errorf("recover: %w", err)
	}
	info.recovery = time.Since(reopen)
	info.total = time.Since(start)
	return info, nil
}

// closeDB closes r.db and deletes its log.
func (r *runner) closeDB() error {
	if r.db == nil {
		return nil
	}
	err := r.db.Close()
	r.db = nil
	if r.opts.WALPath != "" {
		os.Remove(r.opts.WALPath)
	}
	return err
}

// start gives the open database a fresh set of clients.
func (r *runner) start() {
	r.cs = r.cs[:0]
	for id := 0; id < clients; id++ {
		c := newClient(id, &r.w, r.d, r.db, r.cfg.seed)
		c.viewLat = make([]int64, 0, r.w.sliceTxns)
		c.updateLat = make([]int64, 0, r.w.sliceTxns)
		r.cs = append(r.cs, c)
	}
	r.gcNS, r.gcReclaimed, r.gcPasses = 0, 0, 0
}

// tally is the clients' cumulative counts.
type tally struct {
	attempted, failed, views, updates, retries, userBytes int64
	increments                                            uint64
}

func (r *runner) tally() tally {
	var t tally
	for _, c := range r.cs {
		t.attempted += c.attempted
		t.failed += c.failed
		t.views += c.views
		t.updates += c.updates
		t.retries += c.retries
		t.userBytes += c.userBytes
		t.increments += c.increments
	}
	return t
}

// sliceStat is one measured slice.
type sliceStat struct {
	tps, cpuUS                       float64
	viewP50, viewP99, updP50, updP99 float64
}

// cpuTime is the process's user plus system time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// between is the untimed gap before each slice. An in-memory workload
// prunes old versions, as a long-lived in-memory database must, so every
// slice meets the same chain lengths; a durable one does not, and its
// end_heap_mb shows the chains growing. Then a Go collection, so that
// every slice starts from the same heap state.
func (r *runner) between() {
	if !r.w.durable {
		r.collect()
	}
	runtime.GC()
}

// collect runs and times one db.CollectGarbage pass.
func (r *runner) collect() {
	start := time.Now()
	n := r.db.CollectGarbage()
	r.gcNS += time.Since(start).Nanoseconds()
	r.gcReclaimed += int64(n)
	r.gcPasses++
}

// slice has every client run sliceTxns transactions and times the lot.
func (r *runner) slice() sliceStat {
	r.between()
	before := r.tally()
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	start := time.Now()
	for _, c := range r.cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(r.w.sliceTxns)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	cpu := cpuTime() - cpu0
	after := r.tally()

	done := float64(after.views + after.updates - before.views - before.updates)
	s := sliceStat{
		tps:   ratio(done, elapsed.Seconds()),
		cpuUS: ratio(float64(cpu.Microseconds()), done),
	}
	s.viewP50, s.viewP99 = r.percentiles(func(c *client) []int64 { return c.viewLat })
	s.updP50, s.updP99 = r.percentiles(func(c *client) []int64 { return c.updateLat })
	return s
}

// percentiles merges one latency series of every client and returns its
// p50 and p99 in microseconds.
func (r *runner) percentiles(series func(*client) []int64) (p50, p99 float64) {
	r.scratch = r.scratch[:0]
	for _, c := range r.cs {
		r.scratch = append(r.scratch, series(c)...)
	}
	slices.Sort(r.scratch)
	return percentileNS(r.scratch, 50), percentileNS(r.scratch, 99)
}

// measure runs n slices, stopping early only if they take more than
// twice the time asked for (a slower or busier box than the reference).
func (r *runner) measure(n int) []sliceStat {
	limit := 2 * time.Duration(float64(n)*r.w.sliceSec*float64(time.Second))
	start := time.Now()
	stats := make([]sliceStat, 0, n)
	for len(stats) < n && (len(stats) < 3 || time.Since(start) < limit) {
		stats = append(stats, r.slice())
	}
	return stats
}

// column picks one figure out of every slice.
func column(stats []sliceStat, f func(sliceStat) float64) []float64 {
	xs := make([]float64, len(stats))
	for i, s := range stats {
		xs[i] = f(s)
	}
	return xs
}

// medianOf is the median slice's value of one figure.
func medianOf(stats []sliceStat, f func(sliceStat) float64) float64 {
	return median(column(stats, f))
}

// check is the answer check. Every committed read-modify-write added one
// to a counter, so the counters must sum to the increments the clients
// booked: a lost update, a phantom commit or a torn recovery breaks the
// sum. The hot key is written blind and must hold some client's last
// write. Read-only transactions must never have blocked.
func (r *runner) check(db *mvdb.DB) error {
	var sum uint64
	var keys int
	var hot []byte
	err := db.View(func(tx *mvdb.Tx) error {
		err := tx.Scan("k", func(_ string, v []byte) bool {
			sum += counterOf(v)
			keys++
			return true
		})
		if err != nil || r.w.update != updHot {
			return err
		}
		hot, err = tx.Get(hotKey)
		return err
	})
	if err != nil {
		return fmt.Errorf("answer check: %w", err)
	}
	t := r.tally()
	if sum != t.increments {
		return fmt.Errorf("answer check: counters sum to %d over %d keys, clients committed %d increments", sum, keys, t.increments)
	}
	if hot != nil {
		seq, writer := counterOf(hot), binary.LittleEndian.Uint64(hot[8:])
		wrote := seq == 0 // nobody has written yet: the loaded value
		for _, c := range r.cs {
			wrote = wrote || (seq == c.hotSeq && writer == uint64(c.id))
		}
		if !wrote {
			return fmt.Errorf("answer check: hot key holds write %d of client %d, which is no client's last", seq, writer)
		}
	}
	if n := db.Stats().ROBlocked; n != 0 {
		return fmt.Errorf("answer check: %d read-only reads blocked", n)
	}
	return nil
}

// checkAll is check, and for a durable workload a second check on a
// database recovered from the log alone.
func (r *runner) checkAll() error {
	if err := r.check(r.db); err != nil {
		return err
	}
	if !r.w.durable {
		return nil
	}
	if err := r.db.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	db, err := mvdb.Open(r.opts)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	r.db = db
	if err := r.check(db); err != nil {
		return fmt.Errorf("after recovery: %w", err)
	}
	return nil
}

// outcome is what a run hands to main.
type outcome struct {
	values            values
	attempted, failed int64
	incorrect         error // the answer check's complaint, nil when it passed
}

// endToEndRun is the untraced run: repeated set-up, warm-up, the measured
// slices, the answer check.
func endToEndRun(cfg config) (outcome, error) {
	r := newRunner(cfg)
	defer r.closeDB()
	n := setups
	if cfg.quick {
		n = 2
	}
	var setupS []float64
	for i := 0; i < n; i++ {
		if err := r.closeDB(); err != nil {
			return outcome{}, err
		}
		runtime.GC()
		info, err := r.setup(false)
		if err != nil {
			return outcome{}, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, info.total.Seconds())
	}
	// Noise on this box only ever adds time, so a low order statistic
	// repeats where the median does not; the very fastest is left out as a
	// possible fluke.
	slices.Sort(setupS)
	r.start()
	r.measure(warmSlices)

	var m0, m1 runtime.MemStats
	before := r.tally()
	runtime.ReadMemStats(&m0)
	stats := r.measure(r.slices)
	runtime.ReadMemStats(&m1)
	after := r.tally()
	done := float64(after.views + after.updates - before.views - before.updates)

	v := values{
		"txn_per_s":      medianOf(stats, func(s sliceStat) float64 { return s.tps }),
		"update_p50_us":  medianOf(stats, func(s sliceStat) float64 { return s.updP50 }),
		"allocs_per_txn": ratio(float64(m1.Mallocs-m0.Mallocs), done),
		"setup_s":        setupS[1],
	}
	out := outcome{values: v, attempted: after.attempted - before.attempted, failed: after.failed - before.failed}
	// The heap that is left is the database's: drop the rig's own buffers.
	r.scratch = nil
	for _, c := range r.cs {
		c.viewLat, c.updateLat = nil, nil
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	v["end_heap_mb"] = float64(m1.HeapAlloc) / 1e6
	out.incorrect = r.checkAll()
	return out, r.closeDB()
}
