// Package metrics provides the measurement substrate for the experiment
// harness: lock-free log-bucketed latency histograms, summaries with
// percentiles, and plain-text table rendering for the report tables in
// EXPERIMENTS.md.
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync/atomic"
	"text/tabwriter"
	"time"
)

// subBuckets is the per-octave resolution: each power-of-two range is
// split into this many linear sub-buckets, bounding the relative error of
// a recorded value by 1/subBuckets (~6%).
const subBuckets = 16

// maxOctaves covers values up to ~2^47 ns (~1.6 days) — far beyond any
// latency this harness records.
const maxOctaves = 48

// Histogram records int64 samples (by convention: nanoseconds). All
// methods are safe for concurrent use and Record is a single atomic add.
type Histogram struct {
	counts [maxOctaves * subBuckets]atomic.Uint64
	total  atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subBuckets {
		return int(v)
	}
	oct := bits.Len64(uint64(v)) - 1 // floor(log2 v), >= 4 here
	shift := oct - 4                 // map the octave onto 16 sub-buckets
	idx := (oct-3)*subBuckets + int((uint64(v)>>shift)&(subBuckets-1))
	if idx >= maxOctaves*subBuckets {
		idx = maxOctaves*subBuckets - 1
	}
	return idx
}

// bucketUpper returns a representative (upper-bound) value for bucket i —
// the inverse of bucketOf up to quantization.
func bucketUpper(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	oct := i/subBuckets + 3
	sub := i % subBuckets
	shift := oct - 4
	return (1 << oct) + int64(sub+1)<<shift - 1
}

// Record adds one sample.
func (h *Histogram) Record(v int64) {
	h.counts[bucketOf(v)].Add(1)
	h.total.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// RecordSince records the elapsed time since start, in nanoseconds.
func (h *Histogram) RecordSince(start time.Time) {
	h.Record(time.Since(start).Nanoseconds())
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Mean returns the mean sample, or 0 when empty.
func (h *Histogram) Mean() float64 {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Max returns the largest recorded sample.
func (h *Histogram) Max() int64 { return h.max.Load() }

// rankOf maps a percentile to its 1-based sample rank among n samples,
// using the nearest-rank definition ceil(p/100 * n). Out-of-range
// percentiles are clamped: p <= 0 selects the smallest sample (rank 1)
// and p > 100 the largest (rank n).
func rankOf(p float64, n uint64) uint64 {
	if p <= 0 {
		return 1
	}
	if p > 100 {
		p = 100
	}
	rank := uint64(math.Ceil(p / 100 * float64(n)))
	if rank == 0 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// Percentile returns an upper bound on the p-th percentile. p is
// clamped to (0, 100] as described at rankOf.
func (h *Histogram) Percentile(p float64) int64 {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	rank := rankOf(p, n)
	var seen uint64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen >= rank {
			return bucketUpper(i)
		}
	}
	return h.max.Load()
}

// Quantiles returns upper bounds for every requested percentile,
// aligned with ps, walking the buckets once regardless of how many
// percentiles are asked for (snapshots ask for several at a time).
// Each percentile is clamped as described at rankOf.
func (h *Histogram) Quantiles(ps []float64) []int64 {
	out := make([]int64, len(ps))
	n := h.total.Load()
	if n == 0 || len(ps) == 0 {
		return out
	}
	// Resolve ranks in ascending order so one pass over the buckets
	// answers all of them; order tracks each rank's slot in ps.
	order := make([]int, len(ps))
	ranks := make([]uint64, len(ps))
	for i, p := range ps {
		order[i] = i
		ranks[i] = rankOf(p, n)
	}
	sort.Slice(order, func(a, b int) bool { return ranks[order[a]] < ranks[order[b]] })
	var seen uint64
	next := 0
	for i := range h.counts {
		if next >= len(order) {
			break
		}
		seen += h.counts[i].Load()
		for next < len(order) && seen >= ranks[order[next]] {
			out[order[next]] = bucketUpper(i)
			next++
		}
	}
	// Samples recorded concurrently with the walk can leave trailing
	// ranks unresolved; they are bounded by the recorded maximum.
	for ; next < len(order); next++ {
		out[order[next]] = h.max.Load()
	}
	return out
}

// Summary is an immutable snapshot of a histogram. All durations are
// nanoseconds; the JSON field names say so because the same document is
// served by the /debug/mvdb endpoint and mirrored into harness output.
type Summary struct {
	Count            uint64  `json:"count"`
	Mean             float64 `json:"mean_ns"`
	P50              int64   `json:"p50_ns"`
	P90              int64   `json:"p90_ns"`
	P99              int64   `json:"p99_ns"`
	Max              int64   `json:"max_ns"`
	TotalNanoseconds int64   `json:"total_ns"`
}

// Summarize snapshots the histogram (one bucket walk for all three
// percentiles).
func (h *Histogram) Summarize() Summary {
	qs := h.Quantiles([]float64{50, 90, 99})
	return Summary{
		Count:            h.Count(),
		Mean:             h.Mean(),
		P50:              qs[0],
		P90:              qs[1],
		P99:              qs[2],
		Max:              h.Max(),
		TotalNanoseconds: h.sum.Load(),
	}
}

// String formats the summary with duration units.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%s p50=%s p90=%s p99=%s max=%s",
		s.Count, Dur(int64(s.Mean)), Dur(s.P50), Dur(s.P90), Dur(s.P99), Dur(s.Max))
}

// MarshalJSON emits the tagged nanosecond fields plus a pre-rendered
// human-readable form, so every JSON consumer (harness reports, the
// /debug/mvdb endpoint, mvdb inspect -live) shares one serialization.
func (s Summary) MarshalJSON() ([]byte, error) {
	type plain Summary // shed the method to avoid recursion
	return json.Marshal(struct {
		plain
		Human string `json:"human"`
	}{plain(s), s.String()})
}

// Dur renders nanoseconds compactly.
func Dur(ns int64) string {
	switch {
	case ns >= int64(time.Second):
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= int64(time.Millisecond):
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= int64(time.Microsecond):
		return fmt.Sprintf("%.2fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

// Table renders rows as an aligned plain-text table: the experiment
// tables the root tests log, and cmd/mvdb's and cmd/mvbench's output.
type Table struct {
	Title   string     `json:"title,omitempty"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table.
func (t *Table) String() string {
	var sb strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&sb, "== %s ==\n", t.Title)
	}
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Headers, "\t"))
	sep := make([]string, len(t.Headers))
	for i, hdr := range t.Headers {
		sep[i] = strings.Repeat("-", len(hdr))
	}
	fmt.Fprintln(tw, strings.Join(sep, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	return sb.String()
}
