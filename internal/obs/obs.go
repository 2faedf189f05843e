// Package obs is the engine-wide observability layer: a lock-free
// registry of counters and histograms written by every subsystem, an
// internally consistent Snapshot of that registry plus the
// version-control and storage gauges (the one form in which every
// engine's counters leave it: engine.Engine.Stats, the public
// db.Stats() API and the /debug/mvdb endpoint), the optional phase
// matrix, and the HTTP debug server that exposes all of it.
//
// The paper's whole argument is about where synchronization cost lives:
// the version control module's visibility lag (tnc - vtnc, Section 6),
// the concurrency-control protocol's abort and block behavior, and the
// read-only fast path that never touches either. This package makes
// those quantities observable at runtime instead of only inside the
// benchmark harness.
//
// Everything on the record path is a single atomic add (Counter) or a
// lock-free histogram sample, so instrumentation stays on even in
// production; only the phase matrix is optional, and a nil *PhaseStats
// reduces every phase call to a pointer test.
package obs

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"mvdb/internal/metrics"
)

// Counter is a lock-free monotonically increasing counter. The zero
// value is ready to use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a lock-free last-value gauge (checkpoint timestamps,
// durations — values that are set, not accumulated). The zero value is
// ready to use.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Stats is the live counter registry, one per engine. Subsystems write
// to it directly (each write is one atomic add); Snapshot reads it in
// an order that keeps derived invariants true (see Snapshot).
type Stats struct {
	// Transaction lifecycle, split by class — the paper's central
	// distinction. Begin counters are incremented before any commit or
	// abort of the same transaction can be counted.
	BeginsRO  Counter
	BeginsRW  Counter
	CommitsRO Counter
	CommitsRW Counter
	// Retries counts automatic re-executions after retryable aborts
	// (the Update loop at the public API).
	Retries Counter

	// Aborts by cause. Conflict covers timestamp-ordering rejections
	// and failed optimistic validation; Deadlock and Timeout are the
	// two 2PL deadlock-policy outcomes; User is an explicit
	// Abort call; Log is a commit whose log record could not be made
	// durable (any protocol).
	AbortsConflict Counter
	AbortsDeadlock Counter
	AbortsTimeout  Counter
	AbortsUser     Counter
	AbortsLog      Counter

	// Paper-claim counters: read-write aborts attributable to read-only
	// transactions, read-only parks (both structurally zero under the
	// paper's engines — counted so the claim is measured, not assumed),
	// and Section 6 recency waits.
	RWAbortsByRO Counter
	ROBlocked    Counter
	RecencyWaits Counter
	// StoreWaits counts the parks of timestamp-ordering requests on an
	// older transaction's pending write (a woken request that must wait
	// again counts again).
	StoreWaits Counter

	// LockWaitNanos records how long each blocked lock request waited
	// (granted or not); the lock manager's wait observer feeds it.
	LockWaitNanos *metrics.Histogram

	// WALBatchSize records the number of commit records covered by each
	// group-commit fsync (the WAL writer's batch observer feeds it; empty
	// under wal.SyncNever). The summary's "nanosecond" fields hold record
	// counts here — the histogram is unit-agnostic.
	WALBatchSize *metrics.Histogram

	// Garbage collection: passes run, and versions reclaimed by passes
	// and by the installs that collect (core's commitTail).
	GCPasses    Counter
	GCReclaimed Counter

	// Checkpoint gauges, set by the durable engine on each successful
	// Checkpoint: wall-clock completion time (unix nanoseconds) and
	// the pass duration. Zero until the first checkpoint.
	CheckpointLastUnixNanos Gauge
	CheckpointDurationNanos Gauge

	// start anchors the uptime gauge.
	start time.Time
}

// NewStats returns an empty registry.
func NewStats() *Stats {
	return &Stats{
		LockWaitNanos: metrics.NewHistogram(),
		WALBatchSize:  metrics.NewHistogram(),
		start:         time.Now(),
	}
}

// buildRevision reads the module's VCS revision once (empty outside a
// stamped build, e.g. under `go test`).
var buildRevision = sync.OnceValue(func() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return ""
})

// Snapshot is a point-in-time view of the registry plus the gauges the
// engine fills in (version control counters, storage shape, lock and
// WAL substrate counters). It is what every engine's Stats returns
// (engine.Engine), the JSON document served at /debug/mvdb and the
// value returned by the public db.Stats().
type Snapshot struct {
	// Protocol is the engine's concurrency control, fixed at Open.
	Protocol string `json:"protocol,omitempty"`

	// Commit counters are read before begin counters, so within one
	// snapshot CommitsRO <= BeginsRO and CommitsRW <= BeginsRW even
	// while transactions are in flight.
	CommitsRO int64 `json:"commits_ro"`
	CommitsRW int64 `json:"commits_rw"`
	BeginsRO  int64 `json:"begins_ro"`
	BeginsRW  int64 `json:"begins_rw"`
	Retries   int64 `json:"retries"`

	AbortsConflict int64 `json:"aborts_conflict"`
	AbortsDeadlock int64 `json:"aborts_deadlock"`
	AbortsTimeout  int64 `json:"aborts_timeout"`
	AbortsUser     int64 `json:"aborts_user"`
	AbortsLog      int64 `json:"aborts_log"`
	RWAbortsByRO   int64 `json:"rw_aborts_by_ro"`
	ROBlocked      int64 `json:"ro_blocked"`
	RecencyWaits   int64 `json:"ro_recency_waits"`

	// Lock substrate. LockWaits counts requests that ever blocked
	// (including those still blocked); LockWait summarizes completed
	// waits.
	LockWaits     int64           `json:"lock_waits"`
	LockDeadlocks int64           `json:"lock_deadlocks"`
	LockTimeouts  int64           `json:"lock_timeouts"`
	LockWait      metrics.Summary `json:"lock_wait"`
	// LockStripes is the lock table's stripe count; LockStripeCollisions
	// counts stripe-mutex acquisitions that found the stripe already held
	// (a cheap contention signal — zero under one thread, growing with
	// concurrent traffic on colliding keys).
	LockStripes          int   `json:"lock_stripes"`
	LockStripeCollisions int64 `json:"lock_stripe_collisions"`

	// Write-ahead log volume (zero when durability is off). WALBatches
	// counts group-commit flush batches, WALGatherTimeouts the ones the
	// flusher delayed by its whole backstop for a committer that did not
	// come back in time (wal.Writer.GatherTimeouts), WALBatchSize
	// summarizes records per batch (count-valued, not nanoseconds), and
	// WALFsyncPerAppend is the amortization ratio fsyncs/appends — 1.0
	// for a lone committer, approaching 1/batch-size as committers share
	// fsyncs.
	WALAppends        int64           `json:"wal_appends"`
	WALFsyncs         int64           `json:"wal_fsyncs"`
	WALBytes          int64           `json:"wal_bytes"`
	WALBatches        int64           `json:"wal_batches"`
	WALGatherTimeouts int64           `json:"wal_gather_timeouts"`
	WALBatchSize      metrics.Summary `json:"wal_batch_size"`
	WALFsyncPerAppend float64         `json:"wal_fsync_per_append"`
	// WALSizeBytes is the log's current size, the bytes recovery would
	// replay: the live file (buffered records included) plus the
	// retired prefix a checkpoint rotated aside and has not yet removed.
	// Checkpoints bound it. Zero when durability is off.
	WALSizeBytes int64 `json:"wal_size_bytes"`

	// Checkpoint cadence (zero until the first checkpoint): when the
	// last Checkpoint completed and how long it took.
	CheckpointLastUnix        int64   `json:"checkpoint_last_unix,omitempty"`
	CheckpointDurationSeconds float64 `json:"checkpoint_duration_seconds,omitempty"`

	GCPasses    int64 `json:"gc_passes"`
	GCReclaimed int64 `json:"gc_reclaimed"`

	// Version control gauges (paper Section 6). VTNC is read before
	// TNC, and both counters only grow, so VTNC < TNC holds in every
	// snapshot. VisibilityMode names the controller implementation
	// ("strict" or "epoch"); VisibilityLag = TNC - 1 - VTNC is the
	// number of assigned serialization positions not yet visible — under
	// strict visibility that is the drain backlog, under epoch
	// visibility the watermark lag (distance from the newest assignment
	// to the published epoch horizon). VCQueueLen is the depth of
	// VCQueue under strict visibility and the outstanding
	// (registered-but-unresolved) count under epoch visibility.
	VisibilityMode string `json:"visibility_mode,omitempty"`
	TNC            uint64 `json:"tnc"`
	VTNC           uint64 `json:"vtnc"`
	VisibilityLag  uint64 `json:"visibility_lag"`
	VCQueueLen     int    `json:"vc_queue_len"`

	// Storage shape: live keys, total committed versions, and the
	// longest/mean version chain (what garbage collection keeps short).
	Keys             int     `json:"keys"`
	Versions         int64   `json:"versions"`
	MaxVersionChain  int     `json:"max_version_chain"`
	MeanVersionChain float64 `json:"mean_version_chain"`
	StoreWaits       int64   `json:"store_waits"`

	// Phases is the per-protocol × per-phase latency attribution
	// matrix (empty unless phase timing is enabled): where each
	// transaction's time went — CC conflict resolution, WAL enqueue vs
	// group-commit fsync wait, version install, and the committer's own
	// VCcomplete step (visible-wait).
	Phases []PhaseSummary `json:"phases,omitempty"`

	// Process health: liveness basics for dashboards and the future
	// server binary. UptimeSeconds counts from the engine's stats
	// registry creation; GoVersion/BuildRevision identify the build
	// (revision empty outside VCS-stamped builds).
	Goroutines    int     `json:"goroutines"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	GoVersion     string  `json:"go_version,omitempty"`
	BuildRevision string  `json:"build_revision,omitempty"`
}

// Snapshot reads the registry. Reads are ordered so that a snapshot
// taken mid-commit never reports more commits than begins: the commit
// counters are loaded first, and every transaction increments its begin
// counter before it can increment a commit counter.
func (s *Stats) Snapshot() Snapshot {
	var sn Snapshot
	sn.CommitsRO = s.CommitsRO.Load()
	sn.CommitsRW = s.CommitsRW.Load()
	sn.BeginsRO = s.BeginsRO.Load()
	sn.BeginsRW = s.BeginsRW.Load()
	sn.Retries = s.Retries.Load()
	sn.AbortsConflict = s.AbortsConflict.Load()
	sn.AbortsDeadlock = s.AbortsDeadlock.Load()
	sn.AbortsTimeout = s.AbortsTimeout.Load()
	sn.AbortsUser = s.AbortsUser.Load()
	sn.AbortsLog = s.AbortsLog.Load()
	sn.RWAbortsByRO = s.RWAbortsByRO.Load()
	sn.ROBlocked = s.ROBlocked.Load()
	sn.RecencyWaits = s.RecencyWaits.Load()
	sn.StoreWaits = s.StoreWaits.Load()
	sn.LockWait = s.LockWaitNanos.Summarize()
	sn.WALBatchSize = s.WALBatchSize.Summarize()
	sn.GCPasses = s.GCPasses.Load()
	sn.GCReclaimed = s.GCReclaimed.Load()
	if ns := s.CheckpointLastUnixNanos.Load(); ns != 0 {
		sn.CheckpointLastUnix = ns / 1e9
		sn.CheckpointDurationSeconds = float64(s.CheckpointDurationNanos.Load()) / 1e9
	}
	sn.Goroutines = runtime.NumGoroutine()
	sn.GOMAXPROCS = runtime.GOMAXPROCS(0)
	sn.UptimeSeconds = time.Since(s.start).Seconds()
	sn.GoVersion = runtime.Version()
	sn.BuildRevision = buildRevision()
	return sn
}

// AbortsTotal sums every abort cause, user aborts included.
func (sn Snapshot) AbortsTotal() int64 {
	return sn.AbortsConflict + sn.AbortsDeadlock + sn.AbortsTimeout +
		sn.AbortsUser + sn.AbortsLog
}
