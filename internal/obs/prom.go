package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"mvdb/internal/metrics"
)

// This file renders the observability snapshot in the Prometheus text
// exposition format (version 0.0.4), so a running database is scrapeable
// by standard tooling: GET /metrics on the debug server (Serve) emits
// the full Snapshot plus any registered extras (the audit pipeline's
// gauges and span quantiles).

// PromWriter emits metrics in the Prometheus text format. Label values
// are escaped per the format; the first write error is retained and
// subsequent writes become no-ops.
type PromWriter struct {
	w   io.Writer
	err error
}

// NewPromWriter returns a writer emitting to w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Err returns the first write error, if any.
func (p *PromWriter) Err() error { return p.err }

// Header emits the # HELP and # TYPE lines for a metric family. typ is
// "counter", "gauge", "summary" or "untyped".
func (p *PromWriter) Header(name, typ, help string) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Value emits one sample line. labels are name/value pairs
// ("class", "ro", ...) rendered in argument order.
func (p *PromWriter) Value(name string, v float64, labels ...string) {
	if p.err != nil {
		return
	}
	var sb strings.Builder
	sb.WriteString(name)
	if len(labels) > 0 {
		sb.WriteByte('{')
		for i := 0; i+1 < len(labels); i += 2 {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(labels[i])
			sb.WriteString(`="`)
			sb.WriteString(escapeLabelValue(labels[i+1]))
			sb.WriteByte('"')
		}
		sb.WriteByte('}')
	}
	sb.WriteByte(' ')
	sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	sb.WriteByte('\n')
	_, p.err = io.WriteString(p.w, sb.String())
}

// Int emits one integer-valued sample line.
func (p *PromWriter) Int(name string, v int64, labels ...string) {
	p.Value(name, float64(v), labels...)
}

// Summary emits a latency summary as a Prometheus summary family in
// seconds: one quantile line per percentile plus _sum and _count. s is
// in nanoseconds (the repo-wide convention).
func (p *PromWriter) Summary(name string, s metrics.Summary, labels ...string) {
	const nsPerSec = 1e9
	quantile := func(q string, ns int64) {
		p.Value(name, float64(ns)/nsPerSec, append(append([]string{}, labels...), "quantile", q)...)
	}
	quantile("0.5", s.P50)
	quantile("0.9", s.P90)
	quantile("0.99", s.P99)
	p.Value(name+"_sum", float64(s.TotalNanoseconds)/nsPerSec, labels...)
	p.Int(name+"_count", int64(s.Count), labels...)
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// WriteProm renders the snapshot as Prometheus text-format metrics, all
// under the mvdb_ prefix: lifecycle counters split by class and abort
// cause, the lock/WAL/GC substrate, and the paper's version-control
// gauges (tnc, vtnc, visibility lag, VCQueue depth).
func (sn Snapshot) WriteProm(w io.Writer) error {
	p := NewPromWriter(w)

	p.Header("mvdb_info", "gauge", "Engine identity; the protocol label is the concurrency control in force.")
	p.Int("mvdb_info", 1, "protocol", sn.Protocol)

	p.Header("mvdb_begins_total", "counter", "Transactions begun, by class.")
	p.Int("mvdb_begins_total", sn.BeginsRO, "class", "ro")
	p.Int("mvdb_begins_total", sn.BeginsRW, "class", "rw")
	p.Header("mvdb_commits_total", "counter", "Transactions committed, by class.")
	p.Int("mvdb_commits_total", sn.CommitsRO, "class", "ro")
	p.Int("mvdb_commits_total", sn.CommitsRW, "class", "rw")
	p.Header("mvdb_retries_total", "counter", "Automatic Update retries after retryable aborts.")
	p.Int("mvdb_retries_total", sn.Retries)

	p.Header("mvdb_aborts_total", "counter", "Aborted transactions, by cause.")
	p.Int("mvdb_aborts_total", sn.AbortsConflict, "cause", "conflict")
	p.Int("mvdb_aborts_total", sn.AbortsDeadlock, "cause", "deadlock")
	p.Int("mvdb_aborts_total", sn.AbortsTimeout, "cause", "timeout")
	p.Int("mvdb_aborts_total", sn.AbortsUser, "cause", "user")
	p.Int("mvdb_aborts_total", sn.AbortsLog, "cause", "log")

	p.Header("mvdb_rw_aborts_by_ro_total", "counter", "Read-write aborts attributable to read-only transactions (structurally zero under the paper's engines).")
	p.Int("mvdb_rw_aborts_by_ro_total", sn.RWAbortsByRO)
	p.Header("mvdb_ro_blocked_total", "counter", "Read-only reads that blocked (structurally zero under the paper's engines).")
	p.Int("mvdb_ro_blocked_total", sn.ROBlocked)
	p.Header("mvdb_ro_recency_waits_total", "counter", "Read-only begins that waited out the visibility lag (Section 6 rectification).")
	p.Int("mvdb_ro_recency_waits_total", sn.RecencyWaits)

	p.Header("mvdb_lock_waits_total", "counter", "Lock requests that blocked.")
	p.Int("mvdb_lock_waits_total", sn.LockWaits)
	p.Header("mvdb_lock_deadlocks_total", "counter", "Deadlocks broken by the lock manager.")
	p.Int("mvdb_lock_deadlocks_total", sn.LockDeadlocks)
	p.Header("mvdb_lock_timeouts_total", "counter", "Lock waits abandoned by timeout.")
	p.Int("mvdb_lock_timeouts_total", sn.LockTimeouts)
	if sn.LockWait.Count > 0 {
		p.Header("mvdb_lock_wait_seconds", "summary", "Completed lock-wait durations.")
		p.Summary("mvdb_lock_wait_seconds", sn.LockWait)
	}
	p.Header("mvdb_lock_stripes", "gauge", "Lock table stripe count.")
	p.Int("mvdb_lock_stripes", int64(sn.LockStripes))
	p.Header("mvdb_lock_stripe_collisions_total", "counter", "Stripe-mutex acquisitions that found the stripe held.")
	p.Int("mvdb_lock_stripe_collisions_total", sn.LockStripeCollisions)

	p.Header("mvdb_wal_appends_total", "counter", "Commit records appended to the write-ahead log.")
	p.Int("mvdb_wal_appends_total", sn.WALAppends)
	p.Header("mvdb_wal_fsyncs_total", "counter", "Write-ahead log fsyncs.")
	p.Int("mvdb_wal_fsyncs_total", sn.WALFsyncs)
	p.Header("mvdb_wal_bytes_total", "counter", "Bytes appended to the write-ahead log.")
	p.Int("mvdb_wal_bytes_total", sn.WALBytes)
	p.Header("mvdb_wal_batches_total", "counter", "Group-commit flush batches.")
	p.Int("mvdb_wal_batches_total", sn.WALBatches)
	p.Header("mvdb_wal_gather_timeouts_total", "counter", "Group-commit gathers that ended on the time backstop, not the expected record count.")
	p.Int("mvdb_wal_gather_timeouts_total", sn.WALGatherTimeouts)
	if sn.WALBatchSize.Count > 0 {
		p.Header("mvdb_wal_batch_records", "summary", "Commit records per group-commit batch.")
		p.Value("mvdb_wal_batch_records", float64(sn.WALBatchSize.P50), "quantile", "0.5")
		p.Value("mvdb_wal_batch_records", float64(sn.WALBatchSize.P90), "quantile", "0.9")
		p.Value("mvdb_wal_batch_records", float64(sn.WALBatchSize.P99), "quantile", "0.99")
		p.Int("mvdb_wal_batch_records_sum", sn.WALBatchSize.TotalNanoseconds)
		p.Int("mvdb_wal_batch_records_count", int64(sn.WALBatchSize.Count))
	}
	p.Header("mvdb_wal_fsync_per_append", "gauge", "Fsync amortization ratio (fsyncs/appends; 1.0 without group commit).")
	p.Value("mvdb_wal_fsync_per_append", sn.WALFsyncPerAppend)
	p.Header("mvdb_wal_size_bytes", "gauge", "Current write-ahead log file size (bytes recovery would replay).")
	p.Int("mvdb_wal_size_bytes", sn.WALSizeBytes)

	p.Header("mvdb_checkpoint_last_unix", "gauge", "Unix time of the last completed checkpoint (0 before the first).")
	p.Int("mvdb_checkpoint_last_unix", sn.CheckpointLastUnix)
	p.Header("mvdb_checkpoint_duration_seconds", "gauge", "Duration of the last completed checkpoint.")
	p.Value("mvdb_checkpoint_duration_seconds", sn.CheckpointDurationSeconds)

	p.Header("mvdb_gc_passes_total", "counter", "Garbage collection passes.")
	p.Int("mvdb_gc_passes_total", sn.GCPasses)
	p.Header("mvdb_gc_reclaimed_total", "counter", "Versions reclaimed by garbage collection.")
	p.Int("mvdb_gc_reclaimed_total", sn.GCReclaimed)
	if sn.GCChainDepth.Count > 0 {
		p.Header("mvdb_gc_chain_depth", "summary", "Version-chain length per object as seen by GC passes, before pruning.")
		p.Value("mvdb_gc_chain_depth", float64(sn.GCChainDepth.P50), "quantile", "0.5")
		p.Value("mvdb_gc_chain_depth", float64(sn.GCChainDepth.P90), "quantile", "0.9")
		p.Value("mvdb_gc_chain_depth", float64(sn.GCChainDepth.P99), "quantile", "0.99")
		p.Int("mvdb_gc_chain_depth_sum", sn.GCChainDepth.TotalNanoseconds)
		p.Int("mvdb_gc_chain_depth_count", int64(sn.GCChainDepth.Count))
	}
	if sn.GCBacklog.Count > 0 {
		p.Header("mvdb_gc_backlog", "summary", "Versions reclaimed per GC pass (the backlog each pass found).")
		p.Value("mvdb_gc_backlog", float64(sn.GCBacklog.P50), "quantile", "0.5")
		p.Value("mvdb_gc_backlog", float64(sn.GCBacklog.P90), "quantile", "0.9")
		p.Value("mvdb_gc_backlog", float64(sn.GCBacklog.P99), "quantile", "0.99")
		p.Int("mvdb_gc_backlog_sum", sn.GCBacklog.TotalNanoseconds)
		p.Int("mvdb_gc_backlog_count", int64(sn.GCBacklog.Count))
	}

	p.Header("mvdb_tnc", "gauge", "Transaction number counter (next serialization position).")
	p.Int("mvdb_tnc", int64(sn.TNC))
	p.Header("mvdb_vtnc", "gauge", "Visible transaction number counter.")
	p.Int("mvdb_vtnc", int64(sn.VTNC))
	p.Header("mvdb_visibility_lag", "gauge", "Assigned serialization positions not yet visible (tnc-1-vtnc, paper Section 6).")
	p.Int("mvdb_visibility_lag", int64(sn.VisibilityLag))
	p.Header("mvdb_vc_queue_len", "gauge", "Depth of the version-control queue (strict) or outstanding registrations (epoch).")
	p.Int("mvdb_vc_queue_len", int64(sn.VCQueueLen))
	p.Header("mvdb_visibility_info", "gauge", "Version-control identity; the mode label is the visibility implementation in force.")
	p.Int("mvdb_visibility_info", 1, "mode", sn.VisibilityMode)

	p.Header("mvdb_keys", "gauge", "Live keys in the store.")
	p.Int("mvdb_keys", int64(sn.Keys))
	p.Header("mvdb_versions", "gauge", "Committed versions retained across all keys.")
	p.Int("mvdb_versions", sn.Versions)
	p.Header("mvdb_version_chain_max", "gauge", "Longest per-key version chain.")
	p.Int("mvdb_version_chain_max", int64(sn.MaxVersionChain))
	p.Header("mvdb_version_chain_mean", "gauge", "Mean per-key version chain length.")
	p.Value("mvdb_version_chain_mean", sn.MeanVersionChain)
	p.Header("mvdb_store_waits_total", "counter", "Reads that waited on the version store.")
	p.Int("mvdb_store_waits_total", sn.StoreWaits)

	if len(sn.Phases) > 0 {
		p.Header("mvdb_phase_seconds", "summary", "Per-transaction latency attribution by protocol and phase.")
		for _, ph := range sn.Phases {
			p.Summary("mvdb_phase_seconds", ph.Durations, "protocol", ph.Protocol, "phase", ph.Phase)
		}
		p.Header("mvdb_phase_slowest_tx", "gauge", "Transaction id of the slowest sample per (protocol, phase).")
		for _, ph := range sn.Phases {
			if ph.SlowestTx != 0 {
				p.Int("mvdb_phase_slowest_tx", int64(ph.SlowestTx), "protocol", ph.Protocol, "phase", ph.Phase)
			}
		}
	}

	p.Header("mvdb_build_info", "gauge", "Process build identity (constant 1; identity in labels).")
	p.Int("mvdb_build_info", 1, "go_version", sn.GoVersion, "revision", sn.BuildRevision)
	p.Header("mvdb_goroutines", "gauge", "Live goroutines in the process.")
	p.Int("mvdb_goroutines", int64(sn.Goroutines))
	p.Header("mvdb_gomaxprocs", "gauge", "GOMAXPROCS in force.")
	p.Int("mvdb_gomaxprocs", int64(sn.GOMAXPROCS))
	p.Header("mvdb_uptime_seconds", "gauge", "Seconds since the stats registry was created (engine open).")
	p.Value("mvdb_uptime_seconds", sn.UptimeSeconds)

	return p.Err()
}
