package core

// This file is the engine core's one observation seam. Everything the
// core reports — history events (engine.Recorder), lifecycle counters
// (obs.Stats) and the phase matrix (obs.PhaseStats) — is reported from
// here and nowhere else in the package: the protocol files (twopl.go,
// tso.go, occ.go, readonly.go) see only the txObs methods and the
// cause/phase/protocol names below, and import neither time nor obs
// (boundary_test.go holds them to that).
//
// There is no interface: every sink has exactly one implementation and
// each is nil-safe, so fan-out is a fixed sequence of calls and a
// disabled sink costs one pointer test.

import (
	"fmt"
	"time"

	"mvdb/internal/engine"
	"mvdb/internal/obs"
	"mvdb/internal/vc"
	"mvdb/internal/wal"
)

// The protocol files name their phase-matrix row and the spans they
// open through these, so they need not import obs.
const (
	proto2PL = obs.Proto2PL
	protoTO  = obs.ProtoTO
	protoOCC = obs.ProtoOCC
	protoRO  = obs.ProtoRO

	phaseRead     = obs.PhaseRead
	phaseValidate = obs.PhaseValidate
	phaseInstall  = obs.PhaseInstall
)

// sinks is everything the core reports to. rec and stats always exist;
// phases is nil unless Options.PhaseTiming is on.
type sinks struct {
	rec engine.Recorder
	// stats is the engine-wide registry (internal/obs), shared with the
	// public Stats API and the /debug/mvdb endpoint.
	stats  *obs.Stats
	phases *obs.PhaseStats // Options.PhaseTiming
}

func newSinks(opts Options) sinks {
	s := sinks{
		rec:   opts.Recorder,
		stats: obs.NewStats(),
	}
	if s.rec == nil {
		s.rec = engine.NopRecorder{}
	}
	if opts.PhaseTiming {
		s.phases = obs.NewPhaseStats()
	}
	return s
}

// observeLocks feeds the lock manager's waits to the sinks, and its
// parks and wakes to the recorder. Only 2PL transactions reach the lock
// manager, so the attribution row is fixed.
func (e *Engine) observeLocks() {
	e.locks.SetWaitObserver(func(txID uint64, wait time.Duration) {
		e.stats.LockWaitNanos.Record(wait.Nanoseconds())
		e.phases.Record(proto2PL, obs.PhaseLockWait, txID, wait)
	})
	e.locks.SetBlockObserver(func(txID uint64, _ string) { engine.RecordParked(e.rec, txID, true) },
		func(txID uint64) { engine.RecordParked(e.rec, txID, false) })
}

// observeWAL feeds the log's group-commit batch sizes into the registry
// (a no-op stream under SyncNever).
func (e *Engine) observeWAL(w *wal.Writer) {
	w.SetBatchObserver(func(records int) {
		e.stats.WALBatchSize.Record(int64(records))
	})
}

// recencyWait is the Section 6 recency wait of read-only transaction
// id's pinned begin, counted and timed into the RO row's visible-wait
// cell.
func (e *Engine) recencyWait(id, sn uint64) {
	e.stats.RecencyWaits.Inc()
	start := time.Now()
	e.vc.WaitVisible(sn)
	e.phases.Record(protoRO, obs.PhaseVisibleWait, id, time.Since(start))
}

func init() {
	// The first three phase-matrix rows mirror Protocol's ordering.
	if proto2PL != obs.ProtoIdx(TwoPhaseLocking) ||
		protoTO != obs.ProtoIdx(TimestampOrdering) ||
		protoOCC != obs.ProtoIdx(Optimistic) {
		panic("core: obs.ProtoIdx ordering diverged from core.Protocol")
	}
}

// Obs exposes the engine's observability registry so the public API
// can count events that happen above this layer — Update retries, GC
// passes — into the same snapshot.
func (e *Engine) Obs() *obs.Stats { return e.stats }

// Phases exposes the latency-attribution matrix (nil unless
// Options.PhaseTiming).
func (e *Engine) Phases() *obs.PhaseStats { return e.phases }

// abortCause indexes abortCauses.
type abortCause uint8

const (
	causeConflict    abortCause = iota // 2PL: a lock request failed for no listed reason
	causeDeadlock                      // 2PL: chosen as the deadlock victim
	causeTimeout                       // 2PL: lock wait timed out
	causeTOWrite                       // T/O: a younger transaction already read or wrote the object
	causeTOWriteByRO                   // ... and that reader was read-only
	causeOCCRead                       // OCC: an object moved between two reads
	causeOCCValidate                   // OCC: backward validation failed
	causeUser                          // an explicit Abort
	causeLog                           // the commit record could not be made durable
)

// abortCauses is the one place an abort cause is spelled out: the
// counter it increments and the error the engine call returns (nil where
// the caller has its own: Abort returns nothing, a log failure wraps
// the writer's error).
var abortCauses = [...]struct {
	counter func(*obs.Stats) *obs.Counter
	err     error
}{
	causeConflict: {func(s *obs.Stats) *obs.Counter { return &s.AbortsConflict }, engine.ErrConflict},
	causeDeadlock: {func(s *obs.Stats) *obs.Counter { return &s.AbortsDeadlock }, engine.ErrDeadlock},
	// Its own counter, still surfaced as ErrDeadlock: a timeout is the
	// timeout policy's deadlock presumption.
	causeTimeout: {func(s *obs.Stats) *obs.Counter { return &s.AbortsTimeout },
		fmt.Errorf("%w (lock wait timeout)", engine.ErrDeadlock)},
	causeTOWrite:     {func(s *obs.Stats) *obs.Counter { return &s.AbortsConflict }, engine.ErrConflict},
	causeTOWriteByRO: {func(s *obs.Stats) *obs.Counter { return &s.AbortsConflict }, engine.ErrConflict},
	causeOCCRead:     {func(s *obs.Stats) *obs.Counter { return &s.AbortsConflict }, engine.ErrConflict},
	causeOCCValidate: {func(s *obs.Stats) *obs.Counter { return &s.AbortsConflict }, engine.ErrConflict},
	causeUser:        {func(s *obs.Stats) *obs.Counter { return &s.AbortsUser }, nil},
	causeLog:         {func(s *obs.Stats) *obs.Counter { return &s.AbortsLog }, nil},
}

// txObs is one transaction's handle on the sinks. Every transaction
// struct embeds it by value, so observing costs no allocation of its
// own. It is used from the transaction's goroutine only.
type txObs struct {
	e     *Engine
	id    uint64
	proto obs.ProtoIdx
	// done is set by the protocol code once the transaction has
	// committed or aborted, and pruneLater by a commit that left its
	// prune to the struct's next begin (collectWritten). They, and a
	// read-only transaction's registry slot, live here, in the tail
	// padding of what every transaction struct embeds, to keep those
	// structs a size class smaller.
	done       bool
	slot       int8
	pruneLater bool
}

// span is an open timed phase, held (on the stack) by the code that
// opened it.
type span struct {
	start time.Time
	phase obs.Phase
	on    bool // false: timing is off, end does nothing
}

// observe opens the seam for a beginning transaction: counts the begin
// (before any commit or abort of the transaction can be counted) and
// records the begin event and, for a read-only transaction, the
// snapshot position sn it reads at (read-write ones pass 0).
func (e *Engine) observe(id uint64, proto obs.ProtoIdx, sn uint64) txObs {
	o := txObs{e: e, id: id, proto: proto}
	if proto == protoRO {
		e.stats.BeginsRO.Inc()
		e.rec.RecordBegin(id, engine.ReadOnly)
		engine.RecordSnapshot(e.rec, id, sn)
	} else {
		e.stats.BeginsRW.Inc()
		e.rec.RecordBegin(id, engine.ReadWrite)
	}
	return o
}

// ID implements engine.Tx for every transaction type.
func (o *txObs) ID() uint64 { return o.id }

// Class implements engine.Tx for every transaction type.
func (o *txObs) Class() engine.Class {
	if o.proto == protoRO {
		return engine.ReadOnly
	}
	return engine.ReadWrite
}

// read reports that the transaction read version tn of key (0 = the
// bootstrap state, which an absent key also reads as).
func (o *txObs) read(key string, tn uint64) { o.e.rec.RecordRead(o.id, key, tn) }

// wrote reports that version tn of key is in.
func (o *txObs) wrote(key string, tn uint64) { o.e.rec.RecordWrite(o.id, key, tn) }

// Parked makes the transaction the storage.Waiter of its
// timestamp-ordering requests: a park on an older pending write counts
// a store wait, and both it and the wake go to the recorder.
func (o *txObs) Parked(parked bool) {
	if parked {
		o.e.stats.StoreWaits.Inc()
	}
	engine.RecordParked(o.e.rec, o.id, parked)
}

// collected counts the versions the transaction's installs dropped into
// the same total as a collection pass's.
func (o *txObs) collected(n int) {
	if n > 0 {
		o.e.stats.GCReclaimed.Add(int64(n))
	}
}

// span opens a timed phase and end closes it: a phase-matrix sample and
// pprof labels for the stretch. With phase timing off, each is one
// inlined test and no clock is read.
func (o *txObs) span(ph obs.Phase) span {
	if o.e.phases == nil {
		return span{}
	}
	return o.open(ph)
}

func (o *txObs) end(sp span) {
	if sp.on {
		o.close(sp)
	}
}

func (o *txObs) open(ph obs.Phase) span {
	o.e.phases.PprofEnter(o.proto, ph)
	return span{time.Now(), ph, true}
}

func (o *txObs) close(sp span) {
	o.e.phases.Record(o.proto, sp.phase, o.id, time.Since(sp.start))
	o.e.phases.PprofExit()
}

// enqueueLog and awaitLog are the two halves of logging a commit, timed
// as its two separable costs: getting the record into the log buffer,
// and — after the versions are in and concurrency control is given back
// — waiting for the flusher's fsync to cover the ticket.
func (o *txObs) enqueueLog(w *wal.Writer, rec wal.Record) (wal.Ticket, error) {
	sp := o.span(obs.PhaseWALEnqueue)
	t, err := w.Enqueue(rec)
	o.end(sp)
	return t, err
}

func (o *txObs) awaitLog(w *wal.Writer, t wal.Ticket) error {
	sp := o.span(obs.PhaseFsyncWait)
	err := w.Wait(t)
	o.end(sp)
	return err
}

// committed reports the commit event. A read-only transaction's end(T)
// is empty (Figure 2) — it registered nothing, so no VCcomplete follows
// — and it is counted here; a read-write one, in complete.
func (o *txObs) committed(tn uint64) {
	o.e.rec.RecordCommit(o.id, tn)
	if o.proto == protoRO {
		o.e.stats.CommitsRO.Inc()
	}
}

// complete is VCcomplete, timed as the commit's last phase, then the
// commit count. The ablated (A2) eager path bypasses the drain. The span
// is the committer's own step only: how long tn then waits behind an
// older open entry is delayed visibility (Section 6), which no committer
// waits for; the VisibilityLag and VCQueueLen gauges report it.
func (o *txObs) complete(entry *vc.Entry) {
	sp := o.span(obs.PhaseVisibleWait)
	if o.e.opts.UnsafeEagerVisibility {
		o.e.vc.UnsafeCompleteEager(entry)
	} else {
		o.e.vc.Complete(entry)
	}
	o.end(sp)
	o.e.stats.CommitsRW.Inc()
}

// abort reports the transaction's abort to every sink and returns the
// cause's engine error. The caller has already given back whatever the
// protocol held.
func (o *txObs) abort(c abortCause) error {
	row := &abortCauses[c]
	row.counter(o.e.stats).Inc()
	if c == causeTOWriteByRO {
		// Structurally unreachable: read-only transactions never raise
		// r-ts. Counted anyway so the paper's claim is measured, not
		// assumed (experiment E2).
		o.e.stats.RWAbortsByRO.Inc()
	}
	o.e.rec.RecordAbort(o.id)
	return row.err
}
