package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"mvdb"
)

// tracedRun produces the per-layer metrics of one workload. It measures a
// quarter-length untraced reference first (PhaseTiming off, no spans),
// then the same on a second database with PhaseTiming on and a span
// around every public call; the gap between the two is the tracing
// overhead. Layer counters are db.Stats() after minus before.
func tracedRun(cfg config) (outcome, error) {
	v := values{}
	hostMetrics(v, cfg.dir, cfg.quick)
	r := newRunner(cfg)
	defer r.closeDB()
	n := max(r.slices/4, 3)
	out := outcome{values: v}

	// Reference.
	if _, err := r.setup(false); err != nil {
		return out, fmt.Errorf("set-up: %w", err)
	}
	r.start()
	r.measure(warmSlices)
	ref := r.measure(n)
	refTPS := column(ref, func(s sliceStat) float64 { return s.tps })
	v["client.view_p50_us"] = medianOf(ref, func(s sliceStat) float64 { return s.viewP50 })
	v["client.view_p99_us"] = medianOf(ref, func(s sliceStat) float64 { return s.viewP99 })
	v["client.update_p99_us"] = medianOf(ref, func(s sliceStat) float64 { return s.updP99 })
	v["client.cpu_us_per_txn"] = medianOf(ref, func(s sliceStat) float64 { return s.cpuUS })
	v["client.slice_spread"] = spread(refTPS)
	t := r.tally()
	out.attempted, out.failed = t.attempted, t.failed
	out.incorrect = r.checkAll()
	if err := r.closeDB(); err != nil {
		return out, err
	}

	// Traced.
	info, err := r.setup(true)
	if err != nil {
		return out, fmt.Errorf("set-up: %w", err)
	}
	v["recovery.open_s"] = info.recovery.Seconds()
	v["recovery.wal_mb"] = float64(info.walBytes) / 1e6
	r.start()
	r.measure(warmSlices)
	epoch := time.Now()
	var trs []*tracer
	for _, c := range r.cs {
		// About seven spans to a transaction.
		c.tr = newTracer(c.id, epoch, 7*n*r.w.sliceTxns)
		trs = append(trs, c.tr)
	}
	t0, s0 := r.tally(), r.db.Stats()
	r.gcNS, r.gcReclaimed, r.gcPasses = 0, 0, 0
	traced := r.measure(n)
	t1, s1 := r.tally(), r.db.Stats()
	for _, c := range r.cs {
		c.tr = nil
	}
	r.collect()
	out.attempted += t1.attempted
	out.failed += t1.failed

	tracedTPS := medianOf(traced, func(s sliceStat) float64 { return s.tps })
	v["mvdb.trace_overhead_frac"] = 1 - ratio(tracedTPS, median(refTPS))
	sumNS, count := spanTotals(trs)
	var children int64
	for k := spViewBegin; k < numSpanKinds; k++ {
		parent := spView
		if k >= spUpdateBegin {
			parent = spUpdate
		}
		v["mvdb."+spanNames[k]+"_us"] = ratio(float64(sumNS[k])/1e3, float64(count[parent]))
		children += sumNS[k]
	}
	v["mvdb.span_coverage"] = ratio(float64(children), float64(sumNS[spView]+sumNS[spUpdate]))
	layerCounters(v, s0, s1, t0, t1, sumNS[spUpdate])
	v["gc.pass_ms"] = ratio(float64(r.gcNS)/1e6, float64(r.gcPasses))
	v["gc.reclaimed_per_pass"] = ratio(float64(r.gcReclaimed), float64(r.gcPasses))

	if out.incorrect == nil {
		out.incorrect = r.checkAll()
	}
	if err := r.closeDB(); err != nil {
		return out, err
	}
	if err := isolation(v, cfg.dir, cfg.quick); err != nil {
		return out, fmt.Errorf("isolation benches: %w", err)
	}
	return out, writeSpans(filepath.Join(cfg.dir, "spans-"+r.w.name+".json"), r.w.name, trs)
}

// layerCounters fills the core, lock, wal and storage metrics from two
// db.Stats() snapshots and two client tallies around the traced slices.
// updateSpanNS is the time the clients spent inside update attempts, which
// the engine's own phase times are reconciled against.
func layerCounters(v values, s0, s1 mvdb.Stats, t0, t1 tally, updateSpanNS int64) {
	commits := float64(s1.CommitsRW - s0.CommitsRW)
	views := float64(s1.CommitsRO - s0.CommitsRO)

	// Phase time: the read-write rows per committed update, except the
	// read phase, which 2PL never records and the read-only row does.
	phase := func(s mvdb.Stats) (rw map[string]int64, roRead int64) {
		rw = map[string]int64{}
		for _, p := range s.Phases {
			switch {
			case p.Protocol != "ro":
				rw[p.Phase] += p.Durations.TotalNanoseconds
			case p.Phase == "read":
				roRead += p.Durations.TotalNanoseconds
			}
		}
		return rw, roRead
	}
	rw0, ro0 := phase(s0)
	rw1, ro1 := phase(s1)
	var phaseNS int64
	for _, p := range phaseNames {
		d := rw1[p] - rw0[p]
		phaseNS += d
		if p == "read" {
			v[phaseMetric(p)] = ratio(float64(ro1-ro0)/1e3, views)
		} else {
			v[phaseMetric(p)] = ratio(float64(d)/1e3, commits)
		}
	}
	v["core.phase_coverage"] = ratio(float64(phaseNS), float64(updateSpanNS))

	v["core.retries_per_update"] = ratio(float64(t1.retries-t0.retries), commits)
	v["core.aborts_deadlock_per_update"] = ratio(float64(s1.AbortsDeadlock-s0.AbortsDeadlock), commits)
	v["core.aborts_conflict_per_update"] = ratio(float64(s1.AbortsConflict-s0.AbortsConflict), commits)
	v["core.ro_blocked"] = float64(s1.ROBlocked)

	v["lock.waits_per_update"] = ratio(float64(s1.LockWaits-s0.LockWaits), commits)
	v["lock.wait_mean_us"] = ratio(float64(s1.LockWait.TotalNanoseconds-s0.LockWait.TotalNanoseconds)/1e3, float64(s1.LockWait.Count-s0.LockWait.Count))
	v["lock.stripe_collisions_per_update"] = ratio(float64(s1.LockStripeCollisions-s0.LockStripeCollisions), commits)

	walBytes := float64(s1.WALBytes - s0.WALBytes)
	v["wal.fsyncs_per_commit"] = ratio(float64(s1.WALFsyncs-s0.WALFsyncs), commits)
	v["wal.records_per_batch"] = ratio(float64(s1.WALAppends-s0.WALAppends), float64(s1.WALBatches-s0.WALBatches))
	v["wal.bytes_per_commit"] = ratio(walBytes, commits)
	v["wal.write_amp"] = ratio(walBytes, float64(t1.userBytes-t0.userBytes))

	v["storage.versions_per_key"] = s1.MeanVersionChain
	v["storage.max_chain"] = float64(s1.MaxVersionChain)
	v["storage.keys_end"] = float64(s1.Keys)
}

// hostMetrics describes the box, so that numbers from a different or a
// busier one are recognisable as such: a fixed arithmetic loop, a walk
// through memory the caches do not hold, what a 1 ms sleep (the modelled
// device's stall) really takes, and what a real fsync on the checkout's
// disk takes, which the rig reports but never depends on.
func hostMetrics(v values, dir string, quick bool) {
	reps := 30
	if quick {
		reps = 5
	}
	const loop = 4_000_000
	best := time.Duration(1 << 62)
	for i := 0; i < 3; i++ {
		x := uint64(i) + 1
		start := time.Now()
		for j := 0; j < loop; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		best = min(best, time.Since(start))
		sink.Add(x)
	}
	v["host.calib_ns"] = float64(best.Nanoseconds()) / loop

	// A pointer chase through 16 MiB, eight times the private L2: how fast
	// memory the workloads are sized to stay out of is running right now.
	const walkSteps = 400_000
	table := make([]uint32, 4<<20)
	for i := range table {
		table[i] = uint32(i)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	for i := len(table) - 1; i > 0; i-- { // Sattolo: one cycle through every slot
		j := rng.IntN(i)
		table[i], table[j] = table[j], table[i]
	}
	walks := make([]float64, 3)
	at := uint32(0)
	for i := range walks {
		start := time.Now()
		for j := 0; j < walkSteps; j++ {
			at = table[at]
		}
		walks[i] = float64(time.Since(start).Nanoseconds()) / walkSteps
	}
	sink.Add(uint64(at))
	v["host.mem_walk_ns"] = median(walks)

	sleeps := make([]float64, reps)
	for i := range sleeps {
		start := time.Now()
		time.Sleep(syncStall)
		sleeps[i] = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	v["host.sleep_1ms_p50_us"] = median(sleeps)

	v["host.real_fsync_p50_us"] = 0
	f, err := os.Create(filepath.Join(dir, "fsync-probe"))
	if err != nil {
		return
	}
	defer os.Remove(f.Name())
	defer f.Close()
	page := make([]byte, 4096)
	var syncs []float64
	for i := 0; i < reps; i++ {
		if _, err := f.Write(page); err != nil {
			return
		}
		start := time.Now()
		if err := f.Sync(); err != nil {
			return
		}
		syncs = append(syncs, float64(time.Since(start).Nanoseconds())/1e3)
	}
	v["host.real_fsync_p50_us"] = median(syncs)
}
