// Package audit is the online serializability auditor: an opt-in,
// asynchronous pipeline that subscribes to the engine's event stream
// (as an engine.Recorder) and maintains, live, a windowed incremental
// multiversion serialization graph (MVSG) over the last K committed
// read-write transactions, with the exact reads-from and version-order
// edge rules the offline checker (internal/history) applies after the
// fact. It checks serializability and times nothing: the phase matrix
// (Options.PhaseTiming, internal/obs) is where commit latency is taken.
//
// A cycle in the windowed MVSG, a history integrity violation (two
// writers sharing a serialization number, a dirty read, ...), a
// read-only transaction observing a version newer than its snapshot, or
// a version-control counter inversion (vtnc > tnc-1) raises a
// structured alarm: a log line, a counter, and an entry in a bounded
// recent-alarms buffer served at /debug/mvdb/audit.
//
// The window keeps the auditor bounded: evicting a transaction removes
// its node and incident edges but every edge that remains is a genuine
// MVSG edge, so any cycle the auditor reports is a real serializability
// violation (no false positives). The converse does not hold — a cycle
// whose transactions span more than the window goes unseen — so a quiet
// auditor certifies only the recent past (see DESIGN.md).
//
// The pipeline never blocks the engine: events travel through a bounded
// channel with a non-blocking send, and when the consumer falls behind,
// events are dropped and counted rather than queued. Dropping degrades
// coverage, never correctness of what is reported.
package audit

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mvdb/internal/engine"
	"mvdb/internal/history"
)

// Defaults for Options fields left zero.
const (
	DefaultWindow = 256
	DefaultQueue  = 8192
	DefaultAlarms = 32

	// maxOpsPerTx bounds the per-transaction operation log so one
	// enormous transaction cannot grow the auditor without bound; ops
	// beyond the cap are dropped and counted.
	maxOpsPerTx = 4096
)

// Alarm kinds.
const (
	// KindCycle is a cycle in the windowed MVSG — a proven
	// serializability violation among the transactions named in Txs.
	KindCycle = "mvsg-cycle"
	// KindIntegrity is a malformed history: duplicate serialization
	// numbers, duplicate versions, a read of a never-committed version.
	KindIntegrity = "integrity"
	// KindVCInvariant is a version-control counter inversion: vtnc
	// observed above tnc-1, violating the Transaction Visibility
	// Property's precondition (paper Section 5).
	KindVCInvariant = "vc-invariant"
	// KindSnapshotRead is a read-only transaction that observed a
	// version newer than its pinned start number.
	KindSnapshotRead = "snapshot-read"
)

// Options configures an Auditor. The zero value is usable.
type Options struct {
	// Window is K, the number of committed read-write transactions kept
	// in the live MVSG (<= 0 selects DefaultWindow).
	Window int
	// Queue is the event channel capacity (<= 0 selects DefaultQueue).
	// When full, events are dropped and counted, never blocked on.
	Queue int
	// Alarms is the recent-alarms buffer size (<= 0: DefaultAlarms).
	Alarms int
	// Gauges, when set, is sampled after each commit to check the
	// version-control invariant vtnc <= tnc-1. The implementation must
	// load vtnc before tnc (both only grow, so that order makes the
	// check sound under concurrency).
	Gauges func() (tnc, vtnc uint64)
	// Logger receives one Warn line per alarm (nil: slog.Default()).
	Logger *slog.Logger
	// OnAlarm, when set, is called once per raised alarm on the
	// auditor's consumer goroutine with internal state locked: it must
	// be non-blocking (hand off to a channel — the flight recorder's
	// TriggerAsync is the intended consumer) and must not call back
	// into the auditor.
	OnAlarm func(Alarm)
}

// Alarm is one detected anomaly. At is when the auditor's consumer
// raised it, which trails the event that triggered it by the queue's
// delay.
type Alarm struct {
	Seq     uint64   `json:"seq"`
	At      int64    `json:"at_ns"`
	Kind    string   `json:"kind"`
	Message string   `json:"message"`
	Txs     []uint64 `json:"txs,omitempty"`
}

// Snapshot is the auditor's point-in-time state: the JSON document at
// /debug/mvdb/audit.
type Snapshot struct {
	Window         int     `json:"window"`
	Received       uint64  `json:"events_received"`
	Dropped        uint64  `json:"events_dropped"`
	Processed      uint64  `json:"events_processed"`
	Pending        int     `json:"pending_txns"`
	PendingEvicted uint64  `json:"pending_evicted,omitempty"`
	OpsTruncated   uint64  `json:"ops_truncated,omitempty"`
	GraphNodes     int     `json:"graph_nodes"`
	GraphWriters   int     `json:"graph_writers"`
	GraphEdges     int     `json:"graph_edges"`
	GraphEvicted   uint64  `json:"graph_evicted"`
	AlarmsTotal    uint64  `json:"alarms_total"`
	Alarms         []Alarm `json:"alarms,omitempty"`
}

// Event kinds on the internal channel.
const (
	evBegin uint8 = iota
	evSnapshot
	evRead
	evWrite
	evCommit
	evAbort
)

type event struct {
	kind  uint8
	tx    uint64
	tn    uint64
	class engine.Class
	key   string
}

// txState is a transaction the auditor has seen begin but not finish.
type txState struct {
	class     engine.Class
	sn        uint64
	hasSN     bool
	snAlarmed bool
	reads     []history.Op
	writes    []history.Op
}

// Auditor is the online audit pipeline. It implements engine.Recorder
// (and engine.SnapshotRecorder), so it attaches to any engine through
// the ordinary recorder plumbing; all Record* methods are non-blocking
// and safe for concurrent use.
type Auditor struct {
	opts   Options
	log    *slog.Logger
	window int

	ch       chan event
	quit     chan struct{}
	done     chan struct{}
	flushReq chan chan struct{}
	closed   atomic.Bool
	received atomic.Uint64
	dropped  atomic.Uint64

	// Everything below is consumer state, written only by the run
	// goroutine; mu lets Snapshot read it consistently.
	mu             sync.Mutex
	g              *history.Graph
	pending        map[uint64]*txState
	pendingOrder   []uint64
	pendingCap     int
	processed      uint64
	pendingEvicted uint64
	opsTruncated   uint64
	alarmSeq       uint64
	alarms         []Alarm // most recent last, capped at opts.Alarms
}

// New starts an auditor. Callers must Close it to stop the consumer
// goroutine.
func New(opts Options) *Auditor {
	if opts.Window <= 0 {
		opts.Window = DefaultWindow
	}
	if opts.Queue <= 0 {
		opts.Queue = DefaultQueue
	}
	if opts.Alarms <= 0 {
		opts.Alarms = DefaultAlarms
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	pendingCap := 4 * opts.Window
	if pendingCap < 1024 {
		pendingCap = 1024
	}
	a := &Auditor{
		opts:       opts,
		log:        logger,
		window:     opts.Window,
		ch:         make(chan event, opts.Queue),
		quit:       make(chan struct{}),
		done:       make(chan struct{}),
		flushReq:   make(chan chan struct{}),
		g:          history.NewGraph(history.Windowed),
		pending:    make(map[uint64]*txState),
		pendingCap: pendingCap,
	}
	go a.run()
	return a
}

// Close stops the consumer after draining whatever is already queued.
// Events recorded after Close begin are silently discarded. Idempotent.
func (a *Auditor) Close() error {
	if !a.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(a.quit)
	<-a.done
	return nil
}

// Drain blocks until every event enqueued before the call has been
// processed — the synchronization point for tests and soaks, which
// need the online verdict to cover the full run. No-op after Close.
func (a *Auditor) Drain() {
	ack := make(chan struct{})
	select {
	case a.flushReq <- ack:
		<-ack
	case <-a.done:
	}
}

// --- producer side: engine.Recorder ---------------------------------

func (a *Auditor) send(ev event) {
	if a.closed.Load() {
		return
	}
	select {
	case a.ch <- ev:
		a.received.Add(1)
	default:
		a.dropped.Add(1)
	}
}

// RecordBegin implements engine.Recorder.
func (a *Auditor) RecordBegin(txID uint64, class engine.Class) {
	a.send(event{kind: evBegin, tx: txID, class: class})
}

// RecordSnapshot implements engine.SnapshotRecorder.
func (a *Auditor) RecordSnapshot(txID, sn uint64) {
	a.send(event{kind: evSnapshot, tx: txID, tn: sn})
}

// RecordRead implements engine.Recorder.
func (a *Auditor) RecordRead(txID uint64, key string, versionTN uint64) {
	a.send(event{kind: evRead, tx: txID, key: key, tn: versionTN})
}

// RecordWrite implements engine.Recorder.
func (a *Auditor) RecordWrite(txID uint64, key string, versionTN uint64) {
	a.send(event{kind: evWrite, tx: txID, key: key, tn: versionTN})
}

// RecordCommit implements engine.Recorder.
func (a *Auditor) RecordCommit(txID, tn uint64) {
	a.send(event{kind: evCommit, tx: txID, tn: tn})
}

// RecordAbort implements engine.Recorder.
func (a *Auditor) RecordAbort(txID uint64) {
	a.send(event{kind: evAbort, tx: txID})
}

// --- consumer --------------------------------------------------------

func (a *Auditor) run() {
	defer close(a.done)
	for {
		select {
		case ev := <-a.ch:
			a.process(ev)
		case ack := <-a.flushReq:
			a.drainQueued()
			close(ack)
		case <-a.quit:
			a.drainQueued()
			return
		}
	}
}

func (a *Auditor) drainQueued() {
	for {
		select {
		case ev := <-a.ch:
			a.process(ev)
		default:
			return
		}
	}
}

func (a *Auditor) process(ev event) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.processed++
	switch ev.kind {
	case evBegin:
		if _, dup := a.pending[ev.tx]; dup {
			break
		}
		a.pending[ev.tx] = &txState{class: ev.class}
		a.pendingOrder = append(a.pendingOrder, ev.tx)
		// A transaction whose finish event was dropped would pin its
		// state forever; cap the pending set FIFO instead.
		for len(a.pending) > a.pendingCap && len(a.pendingOrder) > 0 {
			old := a.pendingOrder[0]
			a.pendingOrder = a.pendingOrder[1:]
			if _, ok := a.pending[old]; ok {
				delete(a.pending, old)
				a.pendingEvicted++
			}
		}
	case evSnapshot:
		if t := a.pending[ev.tx]; t != nil {
			t.sn, t.hasSN = ev.tn, true
		}
	case evRead:
		t := a.pending[ev.tx]
		if t == nil {
			break
		}
		if t.class == engine.ReadOnly && t.hasSN && ev.tn > t.sn && !t.snAlarmed {
			t.snAlarmed = true
			a.alarm(KindSnapshotRead, fmt.Sprintf(
				"read-only tx %d pinned snapshot %d but read version %d of %q",
				ev.tx, t.sn, ev.tn, ev.key), []uint64{ev.tx})
		}
		if len(t.reads) >= maxOpsPerTx {
			a.opsTruncated++
			break
		}
		t.reads = append(t.reads, history.Op{Key: ev.key, VersionTN: ev.tn})
	case evWrite:
		t := a.pending[ev.tx]
		if t == nil {
			break
		}
		if len(t.writes) >= maxOpsPerTx {
			a.opsTruncated++
			break
		}
		t.writes = append(t.writes, history.Op{Key: ev.key, VersionTN: ev.tn})
	case evCommit:
		t := a.pending[ev.tx]
		if t == nil {
			break
		}
		delete(a.pending, ev.tx)
		a.audit(ev, t)
	case evAbort:
		delete(a.pending, ev.tx)
	}
}

// audit folds one committed transaction into the windowed MVSG and
// checks everything checkable at that point.
func (a *Auditor) audit(ev event, t *txState) {
	h := history.TxHistory{ID: ev.tx, TN: ev.tn, Reads: t.reads, Writes: t.writes}
	edges, err := a.g.Add(h)
	if err != nil {
		a.alarm(KindIntegrity, err.Error(), []uint64{ev.tx})
	}
	// Each new edge u->v can close a cycle only through a path v ~> u
	// that already existed; check exactly that, and report at most one
	// cycle per commit to keep a steady-state violation from flooding
	// the alarm buffer.
	for _, e := range edges {
		p := a.g.Path(e.To, e.From)
		if p == nil {
			continue
		}
		cycle := append(p, e.To)
		a.alarm(KindCycle, "MVSG cycle: "+a.formatCycle(cycle), cycle[:len(cycle)-1])
		break
	}
	// Evict down to the window: at most K committed read-write
	// transactions, and a bounded total including read-only nodes.
	for a.g.Writers() > a.window {
		a.g.EvictOldest()
	}
	for a.g.Len() > 4*a.window {
		a.g.EvictOldest()
	}
	if a.opts.Gauges != nil {
		tnc, vtnc := a.opts.Gauges()
		if tnc > 0 && vtnc > tnc-1 {
			a.alarm(KindVCInvariant, fmt.Sprintf(
				"vtnc %d exceeds tnc-1 (tnc=%d): unassigned serialization positions visible",
				vtnc, tnc), nil)
		}
	}
}

func (a *Auditor) formatCycle(cycle []uint64) string {
	var sb strings.Builder
	for i, id := range cycle {
		if i > 0 {
			sb.WriteString(" -> ")
		}
		if id == 0 {
			sb.WriteString("T0(bootstrap)")
			continue
		}
		fmt.Fprintf(&sb, "T%d(tn=%d)", id, a.g.TN(id))
	}
	return sb.String()
}

func (a *Auditor) alarm(kind, msg string, txs []uint64) {
	a.alarmSeq++
	al := Alarm{Seq: a.alarmSeq, At: time.Now().UnixNano(), Kind: kind, Message: msg, Txs: txs}
	if len(a.alarms) >= a.opts.Alarms {
		copy(a.alarms, a.alarms[1:])
		a.alarms = a.alarms[:len(a.alarms)-1]
	}
	a.alarms = append(a.alarms, al)
	a.log.Warn("mvdb audit alarm", "kind", kind, "seq", al.Seq, "message", msg)
	if a.opts.OnAlarm != nil {
		a.opts.OnAlarm(al)
	}
}

// --- inspection ------------------------------------------------------

// Dropped returns the number of events discarded because the queue was
// full (or the auditor closed).
func (a *Auditor) Dropped() uint64 { return a.dropped.Load() }

// Received returns the number of events accepted onto the queue.
func (a *Auditor) Received() uint64 { return a.received.Load() }

// AlarmsTotal returns the number of alarms ever raised.
func (a *Auditor) AlarmsTotal() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.alarmSeq
}

// Snapshot returns the auditor's current state. Safe to call
// concurrently with recording; call Drain first when the snapshot must
// cover everything already recorded.
func (a *Auditor) Snapshot() Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	sn := Snapshot{
		Window:         a.window,
		Received:       a.received.Load(),
		Dropped:        a.dropped.Load(),
		Processed:      a.processed,
		Pending:        len(a.pending),
		PendingEvicted: a.pendingEvicted,
		OpsTruncated:   a.opsTruncated,
		GraphNodes:     a.g.Len(),
		GraphWriters:   a.g.Writers(),
		GraphEdges:     a.g.Edges(),
		GraphEvicted:   a.g.Evicted(),
		AlarmsTotal:    a.alarmSeq,
		Alarms:         append([]Alarm(nil), a.alarms...),
	}
	return sn
}

// HTTPHandler serves the Snapshot as indented JSON (the
// /debug/mvdb/audit endpoint).
func (a *Auditor) HTTPHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		enc.Encode(a.Snapshot())
		w.Write(buf.Bytes())
	})
}
