package obs

import (
	"encoding/json"
	"sort"
	"sync/atomic"
	"time"
)

// EventType enumerates traced engine events.
type EventType uint8

const (
	// EvBegin is a transaction begin; Key carries the class.
	EvBegin EventType = iota
	// EvRead is a committed-version read; TN is the version read.
	EvRead
	// EvWrite is a version installation; TN is the version created.
	EvWrite
	// EvCommit is a commit; TN is the serialization number.
	EvCommit
	// EvAbort is an abort (any cause).
	EvAbort
	// EvLockWait is a lock request that blocked; Dur is the wait.
	EvLockWait
	// EvGC is a garbage collection pass; N is versions reclaimed, TN
	// the watermark, Dur the pass duration.
	EvGC
	// EvSnapshot is a read-only transaction pinning its snapshot
	// position; TN is the start number sn.
	EvSnapshot
	// EvPhase is a phase-timing exemplar: a sample that became the
	// slowest its (protocol, phase) cell has seen. Key is
	// "protocol/phase", Tx the transaction, Dur the sample.
	EvPhase
	// EvSpan is a promoted transaction trace: Tx is the transaction, TN
	// its serialization number, Key "protocol/promotion-reason", Dur the
	// trace's begin→visible total, N its span count (internal/trace).
	EvSpan
	// EvBlame is one causal blame edge of a promoted trace: Key is
	// "kind:detail" (blocked-on:key, joined-batch:, queued-behind:), Tx
	// the blamed transaction (lock holder, batch leader, or queue head),
	// Dur the span the edge explains, N the kind-specific magnitude
	// (queue depth, batch records, lock stripe).
	EvBlame
)

var evNames = [...]string{"begin", "read", "write", "commit", "abort", "lock-wait", "gc", "snapshot", "phase", "span", "blame"}

func (t EventType) String() string {
	if int(t) < len(evNames) {
		return evNames[t]
	}
	return "unknown"
}

// Event is one traced engine event. Seq and At are stamped by the
// tracer; the remaining fields depend on Type and are omitted from JSON
// when zero.
type Event struct {
	Seq  uint64    `json:"seq"`
	At   int64     `json:"at_ns"` // unix nanoseconds
	Type EventType `json:"-"`
	Tx   uint64    `json:"tx,omitempty"`
	Key  string    `json:"key,omitempty"`
	TN   uint64    `json:"tn,omitempty"`
	Dur  int64     `json:"dur_ns,omitempty"`
	N    int64     `json:"n,omitempty"`
}

// MarshalJSON renders Type as its string name.
func (e Event) MarshalJSON() ([]byte, error) {
	type plain Event
	return json.Marshal(struct {
		Type string `json:"type"`
		plain
	}{e.Type.String(), plain(e)})
}

// UnmarshalJSON is MarshalJSON's inverse (consumers of the debug
// endpoint, e.g. mvinspect -live). Unknown type names decode as the
// zero EventType rather than failing.
func (e *Event) UnmarshalJSON(data []byte) error {
	type plain Event
	var aux struct {
		Type string `json:"type"`
		plain
	}
	if err := json.Unmarshal(data, &aux); err != nil {
		return err
	}
	*e = Event(aux.plain)
	for i, name := range evNames {
		if name == aux.Type {
			e.Type = EventType(i)
			break
		}
	}
	return nil
}

// Tracer is a bounded lock-free ring buffer of recent events. Writers
// claim a slot with one atomic add and publish the event through an
// atomic pointer, so concurrent Record calls never block each other and
// Dump never observes a half-written event. When the ring is full the
// oldest events are overwritten.
//
// A nil *Tracer is valid and records nothing — call sites need no
// guards, which is what keeps the disabled-tracing cost to a nil test.
type Tracer struct {
	slots []atomic.Pointer[Event]
	mask  uint64
	seq   atomic.Uint64
}

// DefaultTraceEvents is the ring capacity used when none is given.
const DefaultTraceEvents = 4096

// NewTracer returns a tracer retaining the most recent `size` events,
// rounded up to a power of two (<= 0 selects DefaultTraceEvents).
func NewTracer(size int) *Tracer {
	if size <= 0 {
		size = DefaultTraceEvents
	}
	n := 1
	for n < size {
		n <<= 1
	}
	return &Tracer{slots: make([]atomic.Pointer[Event], n), mask: uint64(n - 1)}
}

// Record stamps ev with a sequence number and wall-clock time and
// stores it, overwriting the oldest event when the ring is full.
func (t *Tracer) Record(ev Event) {
	if t == nil {
		return
	}
	// Not &ev: a parameter whose address escapes moves to the heap on
	// entry, before the nil test — an allocation with tracing off.
	e := ev
	e.Seq = t.seq.Add(1)
	e.At = time.Now().UnixNano()
	t.slots[e.Seq&t.mask].Store(&e)
}

// Cap returns the ring capacity (0 for a nil tracer).
func (t *Tracer) Cap() int {
	if t == nil {
		return 0
	}
	return len(t.slots)
}

// Seen returns the number of events ever recorded.
func (t *Tracer) Seen() uint64 {
	if t == nil {
		return 0
	}
	return t.seq.Load()
}

// Dump returns the retained events in sequence order. Events recorded
// while Dump runs may or may not appear; every returned event is whole.
func (t *Tracer) Dump() []Event {
	if t == nil {
		return nil
	}
	evs := make([]Event, 0, len(t.slots))
	for i := range t.slots {
		if p := t.slots[i].Load(); p != nil {
			evs = append(evs, *p)
		}
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })
	return evs
}
