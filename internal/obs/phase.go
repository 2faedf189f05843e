package obs

import (
	"context"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"mvdb/internal/metrics"
)

// This file is the per-transaction latency-attribution layer: a fixed
// protocol × phase matrix of histograms that decomposes end-to-end
// commit latency into the paper's separable modules — concurrency
// control (lock waits, T/O object-rule reads, OCC validation), version
// installation, WAL durability (enqueue vs group-commit fsync wait),
// and the committer's VCcomplete. A read-write transaction's phases
// follow one another without overlap, so together they are at most its
// Begin→Commit time.
//
// The layer is off by default. When off, nothing here is allocated and
// call sites reduce to one nil pointer test — no time.Now, no atomics —
// which is what keeps the disabled path at the seed's allocation and
// latency profile (guarded by TestDisabledZeroOverhead).
// When on, each sample is a lock-free histogram record plus a CAS race
// for the slowest-sample exemplar.

// Phase is one separable latency component of a transaction.
type Phase uint8

const (
	// PhaseLockWait is time blocked in the lock manager (2PL only).
	PhaseLockWait Phase = iota
	// PhaseRead is time resolving reads: the T/O object rule's
	// wait-for-resolution, OCC's optimistic reads, the RO path's
	// snapshot reads. 2PL reads are dominated by PhaseLockWait and are
	// not timed separately.
	PhaseRead
	// PhaseValidate is OCC's validation span: entering the critical
	// section plus checking the read set.
	PhaseValidate
	// PhaseWALEnqueue is time getting the commit record into the log
	// buffer (including contention on the writer mutex).
	PhaseWALEnqueue
	// PhaseFsyncWait is time waiting for fsync coverage: the wait for
	// the group-commit flusher's fsync to reach the commit's ticket
	// (zero under SyncNever).
	PhaseFsyncWait
	// PhaseInstall is time installing committed versions into the
	// store (and resolving pending ones under T/O).
	PhaseInstall
	// PhaseVisibleWait is the committer's VCcomplete (paper Figure 1):
	// marking its entry complete and draining the queue head, the last
	// step of a read-write commit. The committer never waits for vtnc
	// to pass its tn; how long tn waits behind an older open entry
	// (delayed visibility, Section 6) is the VisibilityLag and
	// VCQueueLen gauges. For the RO protocol it is instead the recency
	// wait of a pinned BeginReadOnlyAt or BeginReadOnlyRecent.
	PhaseVisibleWait

	// NumPhases is the number of defined phases.
	NumPhases = int(PhaseVisibleWait) + 1
)

var phaseNames = [NumPhases]string{
	"lock-wait", "read", "validate", "wal-enqueue", "fsync-wait",
	"install", "visible-wait",
}

// String returns the phase's wire name (stable: used in the /debug/mvdb
// document, as a pprof label value and in flight bundles).
func (p Phase) String() string {
	if int(p) < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// ProtoIdx indexes the protocol dimension of the phase matrix. The
// first three values mirror core.Protocol's ordering (2PL, T/O, OCC);
// ProtoRO is the read-only path, which never touches concurrency
// control and gets its own row.
type ProtoIdx uint8

const (
	Proto2PL ProtoIdx = iota
	ProtoTO
	ProtoOCC
	ProtoRO

	// NumProtos is the number of protocol rows.
	NumProtos = int(ProtoRO) + 1
)

var protoNames = [NumProtos]string{"vc+2pl", "vc+to", "vc+occ", "ro"}

// String returns the protocol's wire name.
func (p ProtoIdx) String() string {
	if int(p) < NumProtos {
		return protoNames[p]
	}
	return "unknown"
}

// phaseCell is one (protocol, phase) cell: the sample histogram, the
// slowest-sample exemplar (max duration + the transaction that set it),
// and a prebuilt label set so the record path never builds one.
type phaseCell struct {
	h     *metrics.Histogram
	maxNS atomic.Int64
	maxTx atomic.Uint64
	label context.Context // prebuilt pprof label set

	// Pad each cell past a cache line so concurrent committers updating
	// adjacent phases of the matrix never false-share the exemplar
	// atomics.
	_ [64]byte
}

// PhaseStats is the protocol × phase histogram matrix. A nil
// *PhaseStats is valid: every method no-ops, so call sites guard only
// the time.Now stamps, not the calls.
type PhaseStats struct {
	cells [NumProtos][NumPhases]phaseCell
	bg    context.Context
}

// NewPhaseStats returns an enabled matrix.
func NewPhaseStats() *PhaseStats {
	ps := &PhaseStats{bg: context.Background()}
	for pr := 0; pr < NumProtos; pr++ {
		for ph := 0; ph < NumPhases; ph++ {
			c := &ps.cells[pr][ph]
			c.h = metrics.NewHistogram()
			// Prebuilt per-cell label contexts make PprofEnter a single
			// allocation-free runtime call on the timed path.
			c.label = pprof.WithLabels(ps.bg, pprof.Labels(
				"mvdb_protocol", protoNames[pr], "mvdb_phase", phaseNames[ph]))
		}
	}
	return ps
}

// Record adds one sample. If the sample is the slowest its cell has
// seen, the transaction id is retained as the exemplar.
func (ps *PhaseStats) Record(proto ProtoIdx, ph Phase, tx uint64, d time.Duration) {
	if ps == nil {
		return
	}
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	c := &ps.cells[proto][ph]
	c.h.Record(ns)
	for {
		cur := c.maxNS.Load()
		if ns <= cur {
			return
		}
		if c.maxNS.CompareAndSwap(cur, ns) {
			// Benign race: a concurrent larger sample may overwrite
			// maxTx after us; the exemplar is "a slowest-ish tx", not a
			// linearizable maximum.
			c.maxTx.Store(tx)
			return
		}
	}
}

// PprofEnter tags the calling goroutine with the (protocol, phase)
// pprof labels so CPU profiles attribute samples to the same taxonomy
// as the histograms. Pair with PprofExit. No-op on nil.
func (ps *PhaseStats) PprofEnter(proto ProtoIdx, ph Phase) {
	if ps == nil {
		return
	}
	pprof.SetGoroutineLabels(ps.cells[proto][ph].label)
}

// PprofExit clears the goroutine's phase labels.
func (ps *PhaseStats) PprofExit() {
	if ps == nil {
		return
	}
	pprof.SetGoroutineLabels(ps.bg)
}

// PhaseSummary is one non-empty cell of the matrix as exported in
// Snapshot.Phases: the latency summary plus the id of the transaction
// that took the slowest sample (flight bundles print it per cell).
type PhaseSummary struct {
	Protocol  string          `json:"protocol"`
	Phase     string          `json:"phase"`
	Durations metrics.Summary `json:"durations"`
	SlowestTx uint64          `json:"slowest_tx,omitempty"`
}

// Summaries returns the non-empty cells in protocol-major order.
// Returns nil on a nil receiver (phase timing disabled).
func (ps *PhaseStats) Summaries() []PhaseSummary {
	if ps == nil {
		return nil
	}
	var out []PhaseSummary
	for pr := 0; pr < NumProtos; pr++ {
		for ph := 0; ph < NumPhases; ph++ {
			c := &ps.cells[pr][ph]
			s := c.h.Summarize()
			if s.Count == 0 {
				continue
			}
			out = append(out, PhaseSummary{
				Protocol:  protoNames[pr],
				Phase:     phaseNames[ph],
				Durations: s,
				SlowestTx: c.maxTx.Load(),
			})
		}
	}
	return out
}
