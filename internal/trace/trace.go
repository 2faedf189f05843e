// Package trace implements causal per-transaction tracing: for each
// sampled transaction it records a span tree (begin → per-phase child
// spans reusing the obs phase taxonomy) annotated with blame edges that
// name the *cause* of each wait — the lock holder blocking us, the
// group-commit batch we rode, the older transaction we queued behind in
// the version-control drain.
//
// Sampling is two-stage. Head sampling (Options.Sample) decides at
// Begin whether a transaction records spans at all; it is a single
// compare against a splitmix64 stream, so an unsampled Begin costs one
// atomic add. Tail-based retention then decides which finished traces
// survive: every sampled trace lands briefly in a bounded "recent"
// ring, but only traces that are slow (beyond the per-protocol p99 of
// trace totals, or an absolute floor), aborted, or explicitly flagged
// (audit alarm, flight trigger) are promoted into the long-lived store
// exported via /debug/mvdb/traces, Chrome trace-event files, and
// flight bundles.
//
// A nil *Tracer and a nil *Active are both valid and record nothing, so
// the disabled path in the engine costs one pointer test and zero
// allocations (guarded by TestDisabledZeroOverhead).
package trace

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mvdb/internal/metrics"
	"mvdb/internal/obs"
)

// Blame-edge kinds. Each names the subsystem that explains a wait and
// the fields of Blame it fills in.
const (
	// BlameBlockedOn: the lock manager queued us behind a holder.
	// Fields: Tx (holder), Key, Stripe, DurNS (wait).
	BlameBlockedOn = "blocked-on"
	// BlameJoinedBatch: our commit record rode a group-commit fsync
	// batch. Fields: Tx (leader's TN), Batch (batch ordinal), Records,
	// DurNS (sync wait).
	BlameJoinedBatch = "joined-batch"
	// BlameQueuedBehind: at Complete time an older registered-but-
	// unresolved transaction held the visibility horizon back, so our
	// visibility is deferred to its. Fields: Tx (oldest unresolved TN),
	// Depth (strict: VCQueue length; epoch: watermark distance
	// tn-vtnc-1), Watermark (vtnc at the completion instant), Epoch
	// (watermark publish generation; always 0 under strict visibility).
	BlameQueuedBehind = "queued-behind"
)

// Promotion reasons (Trace.Promoted). Flagged promotions use the
// free-form "flagged:<reason>" from PromoteRecent.
const (
	PromotedSlow    = "slow"
	PromotedAborted = "aborted"
)

// Span is one timed region of a transaction, named after the obs phase
// taxonomy ("lock-wait", "read", "validate", "wal-enqueue",
// "fsync-wait", "install", "visible-wait") plus the dist 2PC spans
// ("prepare", "commit", "resolve"). Site is -1 for local/coordinator
// work and the participant index for distributed spans.
type Span struct {
	Name    string `json:"name"`
	Site    int    `json:"site"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// Blame is one causal edge: "this wait happened because of that
// transaction / batch / queue". Phase links the edge to the span it
// explains by name. Unused fields stay zero and are omitted from JSON.
type Blame struct {
	Kind    string `json:"kind"`
	Phase   string `json:"phase"`
	Tx      uint64 `json:"tx,omitempty"`
	Key     string `json:"key,omitempty"`
	Stripe  int    `json:"stripe,omitempty"`
	Batch   uint64 `json:"batch,omitempty"`
	Records int    `json:"records,omitempty"`
	Depth   int    `json:"depth,omitempty"`
	DurNS   int64  `json:"dur_ns,omitempty"`
	// Watermark and Epoch qualify queued-behind edges: the visibility
	// horizon (vtnc) observed at the completion instant and, under epoch
	// visibility, the watermark publish generation it belongs to.
	Watermark uint64 `json:"watermark,omitempty"`
	Epoch     uint64 `json:"epoch,omitempty"`
}

// Trace is a finished, immutable transaction trace. VisibleNS is zero
// for aborted and read-only traces. Promoted is empty while the trace
// sits in the recent ring and names the retention reason once promoted.
type Trace struct {
	ID           uint64  `json:"id"`
	Site         int     `json:"site"`
	Tx           uint64  `json:"tx"`
	TN           uint64  `json:"tn,omitempty"`
	Proto        string  `json:"proto"`
	Outcome      string  `json:"outcome"`
	Promoted     string  `json:"promoted,omitempty"`
	StartNS      int64   `json:"start_ns"`
	EndNS        int64   `json:"end_ns"`
	VisibleNS    int64   `json:"visible_ns,omitempty"`
	TotalNS      int64   `json:"total_ns"`
	Spans        []Span  `json:"spans"`
	Blames       []Blame `json:"blames,omitempty"`
	DroppedSpans int     `json:"dropped_spans,omitempty"`
}

// Options configures a Tracer. The zero value of every field selects a
// sensible default except Sample, which must be > 0 for any transaction
// to be traced.
type Options struct {
	// Sample is the head-sampling rate in [0, 1].
	Sample float64
	// Seed seeds the sampling stream; a fixed default keeps decisions
	// reproducible (sampler-determinism test).
	Seed uint64
	// Recent bounds the ring of finished-but-unpromoted traces
	// (default 256).
	Recent int
	// Promoted bounds the ring of retained traces (default 64).
	Promoted int
	// SlowNS is an absolute promotion floor; a trace whose total meets
	// it is promoted even before the adaptive p99 has warmed up.
	// Zero means adaptive-only.
	SlowNS int64
	// MaxSpans bounds spans per trace (default 96); overflow is
	// counted in Trace.DroppedSpans.
	MaxSpans int
	// Site labels traces from this tracer (dist participants); 0 for a
	// single-site engine.
	Site int
}

const (
	defaultRecent   = 256
	defaultPromoted = 64
	defaultMaxSpans = 96
	defaultSeed     = 0x6d766462 // "mvdb"
	// p99Warmup is the per-protocol sample count below which the
	// adaptive threshold is not consulted.
	p99Warmup = 64
)

// Stats are the tracer's own drop/throughput counters, exported on
// /debug/mvdb/traces.
type Stats struct {
	Started         uint64 `json:"started"`
	Sampled         uint64 `json:"sampled"`
	Finished        uint64 `json:"finished"`
	Promoted        uint64 `json:"promoted"`
	DroppedRecent   uint64 `json:"dropped_recent"`
	DroppedPromoted uint64 `json:"dropped_promoted"`
	DroppedSpans    uint64 `json:"dropped_spans"`
}

// Tracer samples, assembles, and retains transaction traces. All
// methods are safe for concurrent use; a nil *Tracer no-ops.
type Tracer struct {
	opts Options
	cut  uint64 // sample iff next splitmix64 < cut (MaxUint64 = always)
	rng  atomic.Uint64

	mu       sync.Mutex
	byTx     map[uint64]*Active
	byTN     map[uint64]*Active
	recent   []*Trace
	recentN  uint64 // total pushes into recent
	promoted []*Trace
	promN    uint64 // total pushes into promoted

	histMu sync.Mutex
	hists  map[string]*metrics.Histogram // per-protocol trace totals

	started         atomic.Uint64
	sampled         atomic.Uint64
	finished        atomic.Uint64
	promCount       atomic.Uint64
	droppedRecent   atomic.Uint64
	droppedPromoted atomic.Uint64
	droppedSpans    atomic.Uint64
}

// New returns a Tracer. A Sample of 0 yields a tracer that never
// samples (still usable for PromoteRecent bookkeeping); callers that
// want tracing fully off should keep a nil *Tracer instead.
func New(opts Options) *Tracer {
	if opts.Recent <= 0 {
		opts.Recent = defaultRecent
	}
	if opts.Promoted <= 0 {
		opts.Promoted = defaultPromoted
	}
	if opts.MaxSpans <= 0 {
		opts.MaxSpans = defaultMaxSpans
	}
	if opts.Seed == 0 {
		opts.Seed = defaultSeed
	}
	t := &Tracer{
		opts:     opts,
		byTx:     make(map[uint64]*Active),
		byTN:     make(map[uint64]*Active),
		recent:   make([]*Trace, opts.Recent),
		promoted: make([]*Trace, opts.Promoted),
		hists:    make(map[string]*metrics.Histogram),
	}
	switch {
	case opts.Sample >= 1:
		t.cut = ^uint64(0)
	case opts.Sample > 0:
		t.cut = uint64(opts.Sample * float64(1<<63) * 2)
	}
	t.rng.Store(opts.Seed)
	return t
}

// splitmix64 output for the given state (Steele et al.); the state
// itself advances by the golden-gamma in next().
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (t *Tracer) next() uint64 {
	return mix64(t.rng.Add(0x9E3779B97F4A7C15))
}

// Active is a trace under construction. Methods are safe for concurrent
// use (the lock observer and WAL flusher run on other goroutines) and
// all no-op on a nil receiver, so call sites need only the one pointer
// test the acceptance criteria allow.
type Active struct {
	t    *Tracer
	mu   sync.Mutex
	tr   Trace
	done bool
}

// Start begins a trace for transaction tx if head sampling selects it;
// it returns nil otherwise (and always on a nil Tracer).
func (t *Tracer) Start(tx uint64, proto string) *Active {
	if t == nil {
		return nil
	}
	t.started.Add(1)
	if t.cut != ^uint64(0) && (t.cut == 0 || t.next() >= t.cut) {
		return nil
	}
	t.sampled.Add(1)
	a := &Active{t: t}
	a.tr = Trace{
		ID:      t.next() | 1, // never zero
		Site:    t.opts.Site,
		Tx:      tx,
		Proto:   proto,
		StartNS: time.Now().UnixNano(),
		Spans:   make([]Span, 0, 8),
	}
	t.mu.Lock()
	t.byTx[tx] = a
	t.mu.Unlock()
	return a
}

// ID returns the trace ID (0 on nil).
func (a *Active) ID() uint64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.tr.ID
}

// Span records a local span that started at start and ran for d.
func (a *Active) Span(name string, start time.Time, d time.Duration) {
	a.SpanAt(name, -1, start.UnixNano(), d.Nanoseconds())
}

// SpanSite records a span attributed to a participant site, measured
// from start to now.
func (a *Active) SpanSite(name string, site int, start time.Time) {
	a.SpanAt(name, site, start.UnixNano(), time.Since(start).Nanoseconds())
}

// SpanAt is the raw form: absolute start and duration in nanoseconds.
func (a *Active) SpanAt(name string, site int, startNS, durNS int64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	if len(a.tr.Spans) >= a.t.opts.MaxSpans {
		a.tr.DroppedSpans++
		a.t.droppedSpans.Add(1)
	} else {
		a.tr.Spans = append(a.tr.Spans, Span{Name: name, Site: site, StartNS: startNS, DurNS: durNS})
	}
	a.mu.Unlock()
}

// Blame attaches a causal edge.
func (a *Active) Blame(b Blame) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.tr.Blames = append(a.tr.Blames, b)
	a.mu.Unlock()
}

// CommitTN records the serialization number once known (lock point /
// validation / begin, depending on protocol) and indexes the trace by
// it so the visibility observer can find us at drain time.
func (a *Active) CommitTN(tn uint64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.tr.TN = tn
	a.mu.Unlock()
	a.t.mu.Lock()
	a.t.byTN[tn] = a
	a.t.mu.Unlock()
}

// OnLockWait is the lock manager's wait-observer hook: transaction txID
// waited `wait` on key (hashed to stripe) behind blocker. Runs on the
// waiter's goroutine outside all lock-manager mutexes.
func (t *Tracer) OnLockWait(txID uint64, key string, stripe int, blocker uint64, wait time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	a := t.byTx[txID]
	t.mu.Unlock()
	if a == nil {
		return
	}
	now := time.Now().UnixNano()
	a.SpanAt(obs.PhaseLockWait.String(), -1, now-wait.Nanoseconds(), wait.Nanoseconds())
	a.Blame(Blame{
		Kind:   BlameBlockedOn,
		Phase:  obs.PhaseLockWait.String(),
		Tx:     blocker,
		Key:    key,
		Stripe: stripe,
		DurNS:  wait.Nanoseconds(),
	})
}

// OnVisible is the VC drain hook: transaction tn became visible d after
// registering. Called under the controller mutex, so it must not call
// back into vc; it appends the visible-wait span and finalizes.
func (t *Tracer) OnVisible(tn uint64, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	a := t.byTN[tn]
	t.mu.Unlock()
	if a == nil {
		return
	}
	now := time.Now().UnixNano()
	a.SpanAt(obs.PhaseVisibleWait.String(), -1, now-d.Nanoseconds(), d.Nanoseconds())
	t.finalize(a, "commit", now)
}

// FinishCommit finalizes a committed trace that will see no visibility
// callback: read-only transactions, distributed coordinators, and the
// unsafe-eager ablation.
func (a *Active) FinishCommit() {
	if a == nil {
		return
	}
	a.t.finalize(a, "commit", 0)
}

// FinishAbort finalizes an aborted trace; aborted traces always
// promote.
func (a *Active) FinishAbort() {
	if a == nil {
		return
	}
	a.t.finalize(a, "abort", 0)
}

// finalize snapshots the trace, applies the tail-retention decision,
// and files it in the recent or promoted ring. visibleNS is nonzero
// only on the commit-visible path. Idempotent: the first caller wins.
func (t *Tracer) finalize(a *Active, outcome string, visibleNS int64) {
	now := time.Now().UnixNano()
	a.mu.Lock()
	if a.done {
		a.mu.Unlock()
		return
	}
	a.done = true
	a.tr.Outcome = outcome
	a.tr.EndNS = now
	a.tr.VisibleNS = visibleNS
	end := now
	if visibleNS != 0 {
		end = visibleNS
	}
	a.tr.TotalNS = end - a.tr.StartNS
	tr := a.tr // value copy; Spans/Blames are no longer mutated
	tn := a.tr.TN
	tx := a.tr.Tx
	a.mu.Unlock()

	t.finished.Add(1)
	reason := t.decide(tr.Proto, tr.TotalNS, outcome)
	tr.Promoted = reason

	t.mu.Lock()
	delete(t.byTx, tx)
	if tn != 0 {
		delete(t.byTN, tn)
	}
	if reason != "" {
		t.pushPromotedLocked(&tr)
	} else {
		slot := t.recentN % uint64(len(t.recent))
		if old := t.recent[slot]; old != nil {
			t.droppedRecent.Add(1)
		}
		t.recent[slot] = &tr
		t.recentN++
	}
	t.mu.Unlock()
}

// decide is the tail-retention rule: aborted traces always promote;
// committed traces promote when slow — beyond the absolute floor, or
// beyond the per-protocol p99 once that histogram has warmed up. The
// total is recorded after the check so a trace is judged against its
// predecessors, keeping the decision a pure function of the sequence
// seen so far (sampler-determinism test).
func (t *Tracer) decide(proto string, totalNS int64, outcome string) string {
	if outcome == "abort" {
		return PromotedAborted
	}
	t.histMu.Lock()
	h := t.hists[proto]
	if h == nil {
		h = metrics.NewHistogram()
		t.hists[proto] = h
	}
	t.histMu.Unlock()
	slow := t.opts.SlowNS > 0 && totalNS >= t.opts.SlowNS
	if !slow && h.Count() >= p99Warmup && totalNS >= h.Percentile(99) {
		slow = true
	}
	h.Record(totalNS)
	if slow {
		return PromotedSlow
	}
	return ""
}

func (t *Tracer) pushPromotedLocked(tr *Trace) {
	slot := t.promN % uint64(len(t.promoted))
	if t.promoted[slot] != nil {
		t.droppedPromoted.Add(1)
	}
	t.promoted[slot] = tr
	t.promN++
	t.promCount.Add(1)
}

// PromoteRecent flags up to n of the most recently finished traces as
// "flagged:<reason>" and moves them into the promoted ring. Audit
// alarms and flight triggers call this so the traces leading up to an
// incident survive even if they were fast.
func (t *Tracer) PromoteRecent(reason string, n int) int {
	if t == nil || n <= 0 {
		return 0
	}
	tag := "flagged:" + reason
	moved := 0
	t.mu.Lock()
	size := uint64(len(t.recent))
	for i := uint64(0); i < size && moved < n; i++ {
		// Walk newest → oldest.
		if t.recentN <= i {
			break
		}
		slot := (t.recentN - 1 - i) % size
		tr := t.recent[slot]
		if tr == nil {
			continue
		}
		tr.Promoted = tag
		t.pushPromotedLocked(tr)
		t.recent[slot] = nil
		moved++
	}
	t.mu.Unlock()
	return moved
}

// Promoted returns the retained traces, oldest first. Nil-safe.
func (t *Tracer) Promoted() []Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return ringCopy(t.promoted, t.promN)
}

// Recent returns the finished-but-unpromoted traces, oldest first.
func (t *Tracer) Recent() []Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return ringCopy(t.recent, t.recentN)
}

func ringCopy(ring []*Trace, pushed uint64) []Trace {
	size := uint64(len(ring))
	out := make([]Trace, 0, size)
	start := uint64(0)
	if pushed > size {
		start = pushed - size
	}
	for i := start; i < pushed; i++ {
		if tr := ring[i%size]; tr != nil {
			out = append(out, *tr)
		}
	}
	return out
}

// Stats returns the tracer's counters. Nil-safe.
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	return Stats{
		Started:         t.started.Load(),
		Sampled:         t.sampled.Load(),
		Finished:        t.finished.Load(),
		Promoted:        t.promCount.Load(),
		DroppedRecent:   t.droppedRecent.Load(),
		DroppedPromoted: t.droppedPromoted.Load(),
		DroppedSpans:    t.droppedSpans.Load(),
	}
}

// String summarizes a blame edge for waterfalls and logs.
func (b Blame) String() string {
	switch b.Kind {
	case BlameBlockedOn:
		return fmt.Sprintf("blocked-on tx %d key %q stripe %d", b.Tx, b.Key, b.Stripe)
	case BlameJoinedBatch:
		return fmt.Sprintf("joined-batch %d leader-tn %d records %d", b.Batch, b.Tx, b.Records)
	case BlameQueuedBehind:
		if b.Epoch > 0 {
			return fmt.Sprintf("queued-behind tn %d depth %d watermark %d epoch %d", b.Tx, b.Depth, b.Watermark, b.Epoch)
		}
		return fmt.Sprintf("queued-behind tn %d depth %d", b.Tx, b.Depth)
	}
	return b.Kind
}
