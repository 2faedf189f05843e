// Package health is the windowed time-series layer on top of the
// point-in-time observability stack: a Monitor periodically diffs
// obs.Snapshot into per-interval rate/gauge Points, keeps them in
// bounded multi-resolution rings (seconds → tens of seconds → minutes,
// hours of history in fixed memory), and evaluates declarative SLOs
// over them with fast/slow burn-rate windows (multi-window alerting à
// la SRE practice: the fast window pages on an acute breach, the slow
// window warns on a smoldering one).
//
// Five prior layers answer "what is happening right now" (stats), "was
// an invariant violated" (audit), "where did latency go" (phases,
// traces), and "what did the process look like when it died" (flight).
// This layer answers the questions that need *time*: is the abort rate
// drifting up, is the GC backlog growing without bound, did commit p99
// degrade when the checkpoint ran. Its alarms reuse the existing
// plumbing — flight TriggerAsync, trace PromoteRecent, the obs event
// ring, Prometheus counters.
//
// Everything here is off the transaction hot path: the only per-commit
// cost is one histogram Record behind a nil check, and a nil *Monitor
// disables even that.
package health

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mvdb/internal/metrics"
	"mvdb/internal/obs"
)

// Point is one interval's digest of the engine's health: rates and
// interval percentiles computed by diffing consecutive snapshots, plus
// the gauges worth trending. Durations are nanoseconds, rates are
// per-second. Count-like fields (Ops, AuditAlarms, TraceDrops) are
// deltas over the interval, not lifetime totals.
type Point struct {
	AtNS     int64  `json:"at_ns"`  // interval end, unix nanoseconds
	DurNS    int64  `json:"dur_ns"` // interval length
	Protocol string `json:"protocol,omitempty"`

	CommitRateRW float64 `json:"commit_rate_rw"`
	CommitRateRO float64 `json:"commit_rate_ro"`
	AbortRate    float64 `json:"abort_rate"`
	// AbortFrac is aborts/(commits+aborts) within the interval.
	AbortFrac float64 `json:"abort_frac"`
	RetryRate float64 `json:"retry_rate"`
	// Ops is the interval's completed transactions (commits + aborts,
	// both classes) — the denominator behind AbortFrac, kept so
	// consumers can ignore fractions computed over too few samples.
	Ops int64 `json:"ops"`

	// Interval commit-latency percentiles (read-write commits), from
	// histogram bucket deltas — unlike the cumulative Summary in
	// obs.Snapshot, these forget every earlier interval.
	CommitP50NS  int64 `json:"commit_p50_ns"`
	CommitP99NS  int64 `json:"commit_p99_ns"`
	CommitP999NS int64 `json:"commit_p999_ns"`

	FsyncPerCommit    float64 `json:"fsync_per_commit"`
	WALBytesRate      float64 `json:"wal_bytes_rate"`
	LockCollisionRate float64 `json:"lock_collision_rate"`
	GCReclaimRate     float64 `json:"gc_reclaim_rate"`

	VisibilityLag   uint64  `json:"visibility_lag"`
	VCQueueLen      int     `json:"vc_queue_len"`
	Versions        int64   `json:"versions"`
	MaxVersionChain int     `json:"max_version_chain"`
	Goroutines      int     `json:"goroutines"`
	HeapBytes       uint64  `json:"heap_bytes"`
	WALSizeBytes    int64   `json:"wal_size_bytes"`
	CheckpointAgeS  float64 `json:"checkpoint_age_s"` // 0 until the first checkpoint

	AuditAlarms int64 `json:"audit_alarms"`
	TraceDrops  int64 `json:"trace_drops"`

	// Ring-drop deltas: how much observability data the interval lost.
	// A sustained nonzero rate here means the postmortem layers are
	// blind exactly when they are needed — worth an SLO (see
	// DefaultHealthSLOs in the public package for an example).
	TraceDropsRecent   int64 `json:"trace_drops_recent"`
	TraceDropsPromoted int64 `json:"trace_drops_promoted"`
	AuditQueueDrops    int64 `json:"audit_queue_drops"`
	FlightRateLimited  int64 `json:"flight_rate_limited"`
}

// MetricNames lists every name Point.Metric resolves, in display order
// (the vocabulary of SLO.Metric, the sparkline selector, and the soak
// drift checks).
var MetricNames = []string{
	"commit_rate_rw", "commit_rate_ro", "abort_rate", "abort_frac",
	"retry_rate", "ops",
	"commit_p50_ns", "commit_p99_ns", "commit_p999_ns",
	"fsync_per_commit", "wal_bytes_rate", "lock_collision_rate",
	"gc_reclaim_rate",
	"visibility_lag", "vc_queue_len", "versions", "max_version_chain",
	"goroutines", "heap_bytes", "wal_size_bytes", "checkpoint_age_s",
	"audit_alarms", "trace_drops",
	"trace_drops_recent", "trace_drops_promoted", "audit_queue_drops",
	"flight_rate_limited",
}

// Metric returns the named scalar, or false for an unknown name.
func (p Point) Metric(name string) (float64, bool) {
	switch name {
	case "commit_rate_rw":
		return p.CommitRateRW, true
	case "commit_rate_ro":
		return p.CommitRateRO, true
	case "abort_rate":
		return p.AbortRate, true
	case "abort_frac":
		return p.AbortFrac, true
	case "retry_rate":
		return p.RetryRate, true
	case "ops":
		return float64(p.Ops), true
	case "commit_p50_ns":
		return float64(p.CommitP50NS), true
	case "commit_p99_ns":
		return float64(p.CommitP99NS), true
	case "commit_p999_ns":
		return float64(p.CommitP999NS), true
	case "fsync_per_commit":
		return p.FsyncPerCommit, true
	case "wal_bytes_rate":
		return p.WALBytesRate, true
	case "lock_collision_rate":
		return p.LockCollisionRate, true
	case "gc_reclaim_rate":
		return p.GCReclaimRate, true
	case "visibility_lag":
		return float64(p.VisibilityLag), true
	case "vc_queue_len":
		return float64(p.VCQueueLen), true
	case "versions":
		return float64(p.Versions), true
	case "max_version_chain":
		return float64(p.MaxVersionChain), true
	case "goroutines":
		return float64(p.Goroutines), true
	case "heap_bytes":
		return float64(p.HeapBytes), true
	case "wal_size_bytes":
		return float64(p.WALSizeBytes), true
	case "checkpoint_age_s":
		return p.CheckpointAgeS, true
	case "audit_alarms":
		return float64(p.AuditAlarms), true
	case "trace_drops":
		return float64(p.TraceDrops), true
	case "trace_drops_recent":
		return float64(p.TraceDropsRecent), true
	case "trace_drops_promoted":
		return float64(p.TraceDropsPromoted), true
	case "audit_queue_drops":
		return float64(p.AuditQueueDrops), true
	case "flight_rate_limited":
		return float64(p.FlightRateLimited), true
	}
	return 0, false
}

// Level configures one resolution ring. Factor is the level's interval
// as a multiple of the Monitor's base interval (level 0 must be 1;
// each later factor must divide evenly by its predecessor); Cap is how
// many points the ring retains.
type Level struct {
	Factor int `json:"factor"`
	Cap    int `json:"cap"`
}

// DefaultLevels keeps 5 minutes at base resolution, an hour at 10×,
// and 4 hours at 60× — ~900 points total regardless of how long the
// process runs.
func DefaultLevels() []Level {
	return []Level{{Factor: 1, Cap: 300}, {Factor: 10, Cap: 360}, {Factor: 60, Cap: 240}}
}

// Sources are the taps the Monitor diffs each tick. Stats is required;
// the rest default to zero streams.
type Sources struct {
	// Stats returns the engine's current observability snapshot.
	Stats func() obs.Snapshot
	// AuditAlarms returns the auditor's lifetime alarm count.
	AuditAlarms func() uint64
	// TraceDrops returns the span layer's lifetime dropped-trace count
	// (promoted + recent rings).
	TraceDrops func() uint64
	// TraceDropsRecent and TraceDropsPromoted split TraceDrops by ring,
	// so an SLO can distinguish "the cheap ring churned" (expected under
	// load) from "promoted exemplars were lost" (the ring is undersized).
	TraceDropsRecent   func() uint64
	TraceDropsPromoted func() uint64
	// AuditQueueDrops returns the auditor's lifetime dropped-observation
	// count (its bounded queue overflowed).
	AuditQueueDrops func() uint64
	// FlightRateLimited returns the flight recorder's lifetime count of
	// triggers suppressed by its MinGap rate limit.
	FlightRateLimited func() uint64
}

// Options configures a Monitor.
type Options struct {
	// Interval is the base sampling period (default 1s).
	Interval time.Duration
	// Levels is the multi-resolution retention ladder (default
	// DefaultLevels).
	Levels []Level
	// SLOs are the objectives evaluated each tick (default none).
	SLOs []SLO
	// OnAlarm, when set, observes every raised Alarm (called on the
	// ticking goroutine, after the point is published).
	OnAlarm func(Alarm)
	// Ring, when set, receives one EvHealth event per raised alarm.
	Ring *obs.Tracer
}

// ringBuf is a fixed-capacity point ring.
type ringBuf struct {
	pts  []Point
	head int // next write slot
	n    int // filled
}

func (r *ringBuf) push(p Point) {
	r.pts[r.head] = p
	r.head = (r.head + 1) % len(r.pts)
	if r.n < len(r.pts) {
		r.n++
	}
}

// last returns up to n most recent points, oldest first.
func (r *ringBuf) last(n int) []Point {
	if n > r.n {
		n = r.n
	}
	out := make([]Point, 0, n)
	for i := r.n - n; i < r.n; i++ {
		out = append(out, r.pts[(r.head-r.n+i+2*len(r.pts))%len(r.pts)])
	}
	return out
}

// levelState is one resolution ring plus the buffer of finer points
// waiting to be merged into its next point.
type levelState struct {
	cfg     Level
	ring    ringBuf
	pending []Point
	merge   int // pending points per merged point (Factor ratio to the level below)
}

// Monitor is the health time-series engine. Create with New, drive
// with Start/Stop (or Tick directly in tests), read with Points and
// the HTTP handler. A nil *Monitor is valid everywhere and records
// nothing — the disabled path of every hook is one pointer test.
type Monitor struct {
	src  Sources
	opts Options

	// Commit latency histograms, fed by the public API's commit path
	// (ObserveLatency). The monitor owns them because no always-on
	// cumulative histogram exists on the hot path to diff.
	rwLat *metrics.Histogram
	roLat *metrics.Histogram

	mu       sync.Mutex
	levels   []levelState
	slos     []sloState
	havePrev bool
	prev     obs.Snapshot
	prevAt   time.Time
	prevLat  metrics.BucketCounts
	prevCtrs counters

	points     atomic.Int64
	alarmsWarn atomic.Int64
	alarmsPage atomic.Int64

	started  atomic.Bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// New validates opts and returns a stopped Monitor (call Start, or
// drive Tick manually).
func New(src Sources, opts Options) (*Monitor, error) {
	if src.Stats == nil {
		return nil, fmt.Errorf("health: Sources.Stats is required")
	}
	if opts.Interval <= 0 {
		opts.Interval = time.Second
	}
	if len(opts.Levels) == 0 {
		opts.Levels = DefaultLevels()
	}
	if opts.Levels[0].Factor != 1 {
		return nil, fmt.Errorf("health: level 0 factor must be 1, got %d", opts.Levels[0].Factor)
	}
	m := &Monitor{
		src:   src,
		opts:  opts,
		rwLat: metrics.NewHistogram(),
		roLat: metrics.NewHistogram(),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	prevFactor := 0
	for i, lv := range opts.Levels {
		if lv.Cap <= 0 {
			return nil, fmt.Errorf("health: level %d cap must be positive", i)
		}
		merge := 1
		if i > 0 {
			if prevFactor <= 0 || lv.Factor <= prevFactor || lv.Factor%prevFactor != 0 {
				return nil, fmt.Errorf("health: level %d factor %d must be a multiple of level %d factor %d",
					i, lv.Factor, i-1, prevFactor)
			}
			merge = lv.Factor / prevFactor
		}
		m.levels = append(m.levels, levelState{
			cfg:   lv,
			ring:  ringBuf{pts: make([]Point, lv.Cap)},
			merge: merge,
		})
		prevFactor = lv.Factor
	}
	for _, s := range opts.SLOs {
		st, err := newSLOState(s)
		if err != nil {
			return nil, err
		}
		m.slos = append(m.slos, st)
	}
	return m, nil
}

// ObserveLatency records one committed transaction's begin→commit
// latency. Nil-safe: the disabled path is one pointer test.
func (m *Monitor) ObserveLatency(ro bool, d time.Duration) {
	if m == nil {
		return
	}
	if ro {
		m.roLat.Record(d.Nanoseconds())
	} else {
		m.rwLat.Record(d.Nanoseconds())
	}
}

// Start begins background ticking at the configured interval.
func (m *Monitor) Start() {
	if m == nil || !m.started.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer close(m.done)
		tk := time.NewTicker(m.opts.Interval)
		defer tk.Stop()
		for {
			select {
			case <-m.stop:
				return
			case now := <-tk.C:
				m.Tick(now)
			}
		}
	}()
}

// Stop halts background ticking and waits for the ticking goroutine to
// exit (idempotent; a never-Started monitor stops immediately).
func (m *Monitor) Stop() {
	if m == nil {
		return
	}
	m.stopOnce.Do(func() { close(m.stop) })
	if m.started.Load() {
		<-m.done
	}
}

// counters is the set of lifetime totals the Monitor samples alongside
// the snapshot and diffs into per-interval deltas.
type counters struct {
	audit, drops                       uint64
	dropsRecent, dropsPromoted         uint64
	auditQueueDrops, flightRateLimited uint64
}

func (m *Monitor) sampleCounters() counters {
	read := func(fn func() uint64) uint64 {
		if fn == nil {
			return 0
		}
		return fn()
	}
	return counters{
		audit:             read(m.src.AuditAlarms),
		drops:             read(m.src.TraceDrops),
		dropsRecent:       read(m.src.TraceDropsRecent),
		dropsPromoted:     read(m.src.TraceDropsPromoted),
		auditQueueDrops:   read(m.src.AuditQueueDrops),
		flightRateLimited: read(m.src.FlightRateLimited),
	}
}

// Tick takes one sample at now: diff the snapshot against the previous
// tick into a Point, push it down the resolution ladder, evaluate the
// SLOs, and raise their alarms. The first call only establishes the
// baseline and produces no point. Returns the new point and whether
// one was produced. Tests drive this directly with synthetic clocks.
func (m *Monitor) Tick(now time.Time) (Point, bool) {
	sn := m.src.Stats()
	lat := m.rwLat.Buckets()
	ctrs := m.sampleCounters()

	m.mu.Lock()
	if !m.havePrev {
		m.havePrev = true
		m.prev, m.prevAt, m.prevLat, m.prevCtrs = sn, now, lat, ctrs
		m.mu.Unlock()
		return Point{}, false
	}
	p := diffPoint(m.prev, sn, m.prevAt, now, &m.prevLat, &lat, m.prevCtrs, ctrs)
	m.prev, m.prevAt, m.prevLat, m.prevCtrs = sn, now, lat, ctrs
	m.push(p)
	alarms := m.evaluateSLOs(p)
	m.mu.Unlock()

	m.points.Add(1)
	for _, al := range alarms {
		if al.Severity == SeverityPage {
			m.alarmsPage.Add(1)
		} else {
			m.alarmsWarn.Add(1)
		}
		m.opts.Ring.Record(obs.Event{
			Type: obs.EvHealth,
			Key:  al.SLO + "/" + al.Severity,
			Dur:  int64(al.Value),
			N:    al.Breaches,
		})
		if m.opts.OnAlarm != nil {
			m.opts.OnAlarm(al)
		}
	}
	return p, true
}

// push appends p to level 0 and cascades full pending buffers down the
// ladder. Caller holds m.mu.
func (m *Monitor) push(p Point) {
	m.levels[0].ring.push(p)
	carry := p
	for i := 1; i < len(m.levels); i++ {
		lv := &m.levels[i]
		lv.pending = append(lv.pending, carry)
		if len(lv.pending) < lv.merge {
			return
		}
		merged := mergePoints(lv.pending)
		lv.pending = lv.pending[:0]
		lv.ring.push(merged)
		carry = merged
	}
}

// diffPoint computes the interval point between two snapshots.
func diffPoint(prev, cur obs.Snapshot, prevAt, now time.Time, prevLat, lat *metrics.BucketCounts, prevCtrs, ctrs counters) Point {
	sec := now.Sub(prevAt).Seconds()
	if sec <= 0 {
		sec = 1e-9 // degenerate clock; keep rates finite
	}
	rate := func(cur, prev int64) float64 {
		if d := cur - prev; d > 0 {
			return float64(d) / sec
		}
		return 0
	}
	commitsRW := cur.CommitsRW - prev.CommitsRW
	commitsRO := cur.CommitsRO - prev.CommitsRO
	aborts := cur.AbortsTotal() - prev.AbortsTotal()
	ops := commitsRW + commitsRO + aborts

	p := Point{
		AtNS:     now.UnixNano(),
		DurNS:    now.Sub(prevAt).Nanoseconds(),
		Protocol: cur.Protocol,

		CommitRateRW:      rate(cur.CommitsRW, prev.CommitsRW),
		CommitRateRO:      rate(cur.CommitsRO, prev.CommitsRO),
		AbortRate:         rate(cur.AbortsTotal(), prev.AbortsTotal()),
		RetryRate:         rate(cur.Retries, prev.Retries),
		Ops:               ops,
		WALBytesRate:      rate(cur.WALBytes, prev.WALBytes),
		LockCollisionRate: rate(cur.LockStripeCollisions, prev.LockStripeCollisions),
		GCReclaimRate:     rate(cur.GCReclaimed, prev.GCReclaimed),

		VisibilityLag:   cur.VisibilityLag,
		VCQueueLen:      cur.VCQueueLen,
		Versions:        cur.Versions,
		MaxVersionChain: cur.MaxVersionChain,
		Goroutines:      cur.Goroutines,
		WALSizeBytes:    cur.WALSizeBytes,

		AuditAlarms:        int64(ctrs.audit - prevCtrs.audit),
		TraceDrops:         int64(ctrs.drops - prevCtrs.drops),
		TraceDropsRecent:   int64(ctrs.dropsRecent - prevCtrs.dropsRecent),
		TraceDropsPromoted: int64(ctrs.dropsPromoted - prevCtrs.dropsPromoted),
		AuditQueueDrops:    int64(ctrs.auditQueueDrops - prevCtrs.auditQueueDrops),
		FlightRateLimited:  int64(ctrs.flightRateLimited - prevCtrs.flightRateLimited),
	}
	if aborts > 0 && ops > 0 {
		p.AbortFrac = float64(aborts) / float64(ops)
	}
	if f := cur.WALFsyncs - prev.WALFsyncs; f > 0 && commitsRW > 0 {
		p.FsyncPerCommit = float64(f) / float64(commitsRW)
	}
	qs := lat.DeltaQuantiles(prevLat, []float64{50, 99, 99.9})
	p.CommitP50NS, p.CommitP99NS, p.CommitP999NS = qs[0], qs[1], qs[2]
	if cur.CheckpointLastUnix > 0 {
		if age := now.Unix() - cur.CheckpointLastUnix; age > 0 {
			p.CheckpointAgeS = float64(age)
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.HeapBytes = ms.HeapAlloc
	return p
}

// mergePoints folds consecutive finer points into one coarser point:
// rates are duration-weighted means, latencies and gauges take the
// worst (max) value — downsampling must never hide a spike — and
// count deltas sum.
func mergePoints(pts []Point) Point {
	out := pts[len(pts)-1] // AtNS, Protocol, gauges seed from the newest
	var durNS int64
	for _, p := range pts {
		durNS += p.DurNS
	}
	out.DurNS = durNS
	wmean := func(get func(Point) float64) float64 {
		if durNS == 0 {
			return 0
		}
		var acc float64
		for _, p := range pts {
			acc += get(p) * float64(p.DurNS)
		}
		return acc / float64(durNS)
	}
	out.CommitRateRW = wmean(func(p Point) float64 { return p.CommitRateRW })
	out.CommitRateRO = wmean(func(p Point) float64 { return p.CommitRateRO })
	out.AbortRate = wmean(func(p Point) float64 { return p.AbortRate })
	out.AbortFrac = wmean(func(p Point) float64 { return p.AbortFrac })
	out.RetryRate = wmean(func(p Point) float64 { return p.RetryRate })
	out.WALBytesRate = wmean(func(p Point) float64 { return p.WALBytesRate })
	out.LockCollisionRate = wmean(func(p Point) float64 { return p.LockCollisionRate })
	out.GCReclaimRate = wmean(func(p Point) float64 { return p.GCReclaimRate })
	out.FsyncPerCommit = wmean(func(p Point) float64 { return p.FsyncPerCommit })
	out.Ops, out.AuditAlarms, out.TraceDrops = 0, 0, 0
	out.TraceDropsRecent, out.TraceDropsPromoted = 0, 0
	out.AuditQueueDrops, out.FlightRateLimited = 0, 0
	for _, p := range pts {
		out.Ops += p.Ops
		out.AuditAlarms += p.AuditAlarms
		out.TraceDrops += p.TraceDrops
		out.TraceDropsRecent += p.TraceDropsRecent
		out.TraceDropsPromoted += p.TraceDropsPromoted
		out.AuditQueueDrops += p.AuditQueueDrops
		out.FlightRateLimited += p.FlightRateLimited
		if p.CommitP50NS > out.CommitP50NS {
			out.CommitP50NS = p.CommitP50NS
		}
		if p.CommitP99NS > out.CommitP99NS {
			out.CommitP99NS = p.CommitP99NS
		}
		if p.CommitP999NS > out.CommitP999NS {
			out.CommitP999NS = p.CommitP999NS
		}
		if p.VisibilityLag > out.VisibilityLag {
			out.VisibilityLag = p.VisibilityLag
		}
		if p.VCQueueLen > out.VCQueueLen {
			out.VCQueueLen = p.VCQueueLen
		}
		if p.Versions > out.Versions {
			out.Versions = p.Versions
		}
		if p.MaxVersionChain > out.MaxVersionChain {
			out.MaxVersionChain = p.MaxVersionChain
		}
		if p.Goroutines > out.Goroutines {
			out.Goroutines = p.Goroutines
		}
		if p.HeapBytes > out.HeapBytes {
			out.HeapBytes = p.HeapBytes
		}
		if p.WALSizeBytes > out.WALSizeBytes {
			out.WALSizeBytes = p.WALSizeBytes
		}
		if p.CheckpointAgeS > out.CheckpointAgeS {
			out.CheckpointAgeS = p.CheckpointAgeS
		}
	}
	return out
}

// NumLevels returns the configured resolution count (0 for nil).
func (m *Monitor) NumLevels() int {
	if m == nil {
		return 0
	}
	return len(m.levels)
}

// LevelInterval returns a level's sampling interval.
func (m *Monitor) LevelInterval(level int) time.Duration {
	return m.opts.Interval * time.Duration(m.levels[level].cfg.Factor)
}

// Points returns up to n most recent points of the given level, oldest
// first (n <= 0 returns the whole ring). Nil-safe.
func (m *Monitor) Points(level, n int) []Point {
	if m == nil || level < 0 || level >= len(m.levels) {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	r := &m.levels[level].ring
	if n <= 0 || n > r.n {
		n = r.n
	}
	return r.last(n)
}

// PointsTotal returns the number of level-0 points ever produced.
func (m *Monitor) PointsTotal() int64 {
	if m == nil {
		return 0
	}
	return m.points.Load()
}

// AlarmCounts returns the lifetime warn and page alarm counts.
func (m *Monitor) AlarmCounts() (warn, page int64) {
	if m == nil {
		return 0, 0
	}
	return m.alarmsWarn.Load(), m.alarmsPage.Load()
}
