package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"mvdb"
	"mvdb/internal/metrics"
)

// sample is one -interval reading: the engine's Stats, the process heap,
// and the p99 of the read-write commits the clients timed since the
// previous reading.
type sample struct {
	AtNS            int64   `json:"at_ns"`
	HeapBytes       uint64  `json:"heap_bytes"`
	Versions        int64   `json:"versions"`
	MaxVersionChain int     `json:"max_version_chain"`
	CommitP99NS     int64   `json:"commit_p99_ns"`
	AbortFrac       float64 `json:"abort_frac"` // aborts / (commits + aborts) in the interval
	VisibilityLag   uint64  `json:"visibility_lag"`
	LogBytes        int64   `json:"log_bytes"` // Stats().WALSizeBytes: the live log plus the retired one
}

// metric names one sampled quantity for the checks below.
type metric struct {
	name string
	get  func(sample) float64
}

// driftChecks are the "no monotonic creep" bounds: the mean of the
// series' last third must stay within maxRatio× the first third's plus
// slack (the slack absorbs near-zero baselines). Generous enough for GC
// timing and allocator noise, tight enough that a leak fails the run.
var driftChecks = []struct {
	metric
	maxRatio, slack float64
}{
	{metric{"heap_bytes", func(s sample) float64 { return float64(s.HeapBytes) }}, 3, 64 << 20},
	{metric{"max_version_chain", func(s sample) float64 { return float64(s.MaxVersionChain) }}, 4, 64},
	{metric{"versions", func(s sample) float64 { return float64(s.Versions) }}, 4, 20000},
	{metric{"log_bytes", func(s sample) float64 { return float64(s.LogBytes) }}, 3, 256 << 10},
}

// ceilings bound a sample outright. One breaching sample is a blip; a
// run fails once burnBreaches of any burnWindow consecutive samples
// breach the same ceiling.
var ceilings = []struct {
	metric
	max float64
}{
	{metric{"commit_p99_ns", func(s sample) float64 { return float64(s.CommitP99NS) }}, 250e6},
	{metric{"abort_frac", func(s sample) float64 { return s.AbortFrac }}, 0.5},
	{metric{"visibility_lag", func(s sample) float64 { return float64(s.VisibilityLag) }}, 4096},
}

const burnWindow, burnBreaches = 12, 6

// judge returns one reason per failed check; none means the series
// passes. With fewer than six samples there is no trend to read and no
// window can fill, so every series that short passes.
func judge(ss []sample) []string {
	var reasons []string
	if third := len(ss) / 3; third >= 2 {
		for _, c := range driftChecks {
			first, last := mean(ss[:third], c.get), mean(ss[len(ss)-third:], c.get)
			if bound := first*c.maxRatio + c.slack; last > bound {
				reasons = append(reasons, fmt.Sprintf("drift: %s grew %g -> %g (bound %g)", c.name, first, last, bound))
			}
		}
	}
	for _, c := range ceilings {
		n := 0
		for i, s := range ss {
			if c.get(s) > c.max {
				n++
			}
			if i >= burnWindow && c.get(ss[i-burnWindow]) > c.max {
				n--
			}
			if n >= burnBreaches {
				reasons = append(reasons, fmt.Sprintf("%s above %g in %d of %d samples up to sample %d", c.name, c.max, n, burnWindow, i))
				break
			}
		}
	}
	return reasons
}

func mean(ss []sample, get func(sample) float64) float64 {
	var acc float64
	for _, s := range ss {
		acc += get(s)
	}
	return acc / float64(len(ss))
}

// sampler reads db every interval until done closes and returns the
// series. Clients record each read-write commit's latency into the
// histogram lat points at; each reading swaps in a fresh one, so a
// sample's p99 covers only its own interval.
func sampler(db *mvdb.DB, lat *atomic.Pointer[metrics.Histogram], interval time.Duration, done <-chan struct{}) []sample {
	var out []sample
	prev := db.Stats()
	tk := time.NewTicker(interval)
	defer tk.Stop()
	for {
		select {
		case <-done:
			return out
		case now := <-tk.C:
			sn := db.Stats()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			s := sample{
				AtNS:            now.UnixNano(),
				HeapBytes:       ms.HeapAlloc,
				Versions:        sn.Versions,
				MaxVersionChain: sn.MaxVersionChain,
				CommitP99NS:     lat.Swap(metrics.NewHistogram()).Percentile(99),
				VisibilityLag:   sn.VisibilityLag,
				LogBytes:        sn.WALSizeBytes,
			}
			aborts := sn.AbortsTotal() - prev.AbortsTotal()
			if ops := aborts + sn.CommitsRW - prev.CommitsRW + sn.CommitsRO - prev.CommitsRO; aborts > 0 {
				s.AbortFrac = float64(aborts) / float64(ops)
			}
			out, prev = append(out, s), sn
		}
	}
}
