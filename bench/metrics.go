package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
)

// metric is one row of the rig's metric table. BENCHMARK.json is
// generated from these tables (-manifest) and the test holds the two
// together; README.md carries the definitions.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd is what a client of the database sees, and what the driver
// holds a change to. The bounds come from the A/A calibration recorded in
// README.md. None exceeds 10 % but that of setup_s, which the driver
// wants largest and exempts from its spread check. A timed metric that
// could not meet 10 % is in the ungated client.* group of perLayer.
var endToEnd = []metric{
	{"txn_per_s", "1/s", higher, 0.10},
	{"update_p50_us", "us", lower, 0.08},
	{"allocs_per_txn", "count", lower, 0.02},
	{"end_heap_mb", "MB", lower, 0.03},
	{"setup_s", "s", lower, 0.20},
}

// spanNames are the externally timed spans, in spanKind order after the
// two transaction spans.
var spanNames = [...]string{
	"view", "update",
	"view_begin", "view_read", "view_commit",
	"update_begin", "update_get", "update_put", "update_commit",
}

// phaseNames are the engine's PhaseTiming phases in the order
// db.Stats().Phases names them.
var phaseNames = [...]string{
	"lock-wait", "read", "validate", "wal-enqueue", "fsync-wait", "install", "visible-wait",
}

// phaseMetric maps a phase name to its metric name.
func phaseMetric(phase string) string {
	return "core.phase_" + strings.ReplaceAll(phase, "-", "_") + "_us"
}

// perLayer lists every per-layer metric: the traced run's, then the
// isolation benches'.
var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	var m []metric
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			m = append(m, metric{Name: n, Unit: unit, Better: better})
		}
	}
	for _, s := range spanNames[2:] {
		add("us", lower, "mvdb."+s+"_us")
	}
	add("ratio", higher, "mvdb.span_coverage")
	add("ratio", lower, "mvdb.trace_overhead_frac")
	for _, p := range phaseNames {
		add("us", lower, phaseMetric(p))
	}
	add("ratio", higher, "core.phase_coverage")
	add("ratio", lower, "core.retries_per_update", "core.aborts_deadlock_per_update", "core.aborts_conflict_per_update")
	add("count", lower, "core.ro_blocked")
	add("ratio", lower, "lock.waits_per_update")
	add("us", lower, "lock.wait_mean_us")
	add("ratio", lower, "lock.stripe_collisions_per_update", "wal.fsyncs_per_commit")
	add("count", higher, "wal.records_per_batch")
	add("B", lower, "wal.bytes_per_commit")
	add("ratio", lower, "wal.write_amp", "storage.versions_per_key")
	add("count", lower, "storage.max_chain", "storage.keys_end")
	add("ms", lower, "gc.pass_ms")
	add("count", higher, "gc.reclaimed_per_pass")
	add("s", lower, "recovery.open_s")
	add("MB", lower, "recovery.wal_mb")
	add("us", lower, "client.view_p50_us", "client.view_p99_us", "client.update_p99_us", "client.cpu_us_per_txn")
	add("ratio", lower, "client.slice_spread")
	add("ns", lower, "host.calib_ns", "host.mem_walk_ns")
	add("us", lower, "host.sleep_1ms_p50_us", "host.real_fsync_p50_us")

	for _, vc := range []string{"strict", "epoch"} {
		add("ns", lower, "vc."+vc+".start_ns", "vc."+vc+".register_complete_ns.p1", "vc."+vc+".register_complete_ns.p2")
	}
	add("ns", lower, "lock.acquire_release_ns.p1", "lock.acquire_release_ns.p2",
		"storage.read_visible_ns", "storage.read_chain16_ns", "storage.install_ns",
		"index.insert_ns", "index.range32_ns", "wal.append_nosync_ns")
	add("us", lower, "wal.append_group_us.p2")
	add("ns", lower, "wal.replay_ns_per_record", "gc.prune_ns_per_version")
	add("us", lower, "core.ro.view_us")
	for _, p := range []string{"2pl", "to", "occ"} {
		for _, vc := range []string{"strict", "epoch"} {
			add("us", lower, "core."+p+"."+vc+".update_us")
		}
	}
	return m
}

// values maps a metric name to its measured value.
type values map[string]float64

// ratio is a/b, and 0 when there was nothing to divide by, so that a
// layer a workload never reaches reports 0 and not NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// spread is the distance between the first and third quartile of xs as a
// share of its median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives: the rule the driver accepts or
// refuses a benchmark by.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return ratio(quartile(3)-quartile(1), median(xs))
}

// percentileNS returns the p-th percentile (nearest rank) of sorted
// nanosecond samples, in microseconds.
func percentileNS(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return float64(sorted[rank-1]) / 1e3
}

// result is the line the driver reads: the last line of standard output.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]reading `json:"metrics"`
}

type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// newResult keeps exactly the metrics of table, and fails on a missing
// or non-finite one: a hole must not pass for a measurement.
func newResult(table []metric, v values, correct bool, attempted, failed int64) (result, error) {
	r := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]reading{}}
	for _, m := range table {
		x, ok := v[m.Name]
		if !ok || math.IsNaN(x) || math.IsInf(x, 0) {
			return r, fmt.Errorf("metric %s: missing or not finite (%v)", m.Name, x)
		}
		r.Metrics[m.Name] = reading{x, m.Unit}
	}
	return r, nil
}

// manifest renders BENCHMARK.json from the tables above.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerMetric struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []wl          `json:"workloads"`
		EndToEnd   []metric      `json:"end_to_end"`
		PerLayer   []layerMetric `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		if w.gated {
			doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
		}
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerMetric{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	return append(b, '\n'), err
}
