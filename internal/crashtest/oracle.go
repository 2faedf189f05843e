// Package crashtest is the crash-recovery torture harness: it drives
// the real engine (every protocol, both visibility modes) through
// workloads over a fault-injecting filesystem (internal/faultfs), cuts
// power at injected points, recovers from the surviving bytes, and
// asserts the dual oracle:
//
//  1. Durability — every commit acknowledged to a client is present
//     after recovery (per key, the latest acknowledged write is covered
//     by a version at least as new, matching exactly when the TNs are
//     equal), and so is every version an acknowledged commit read: the
//     engine lets a transaction read a version whose commit record is
//     not yet durable (pipelined commit), so an acknowledged commit must
//     never turn out to have depended on a lost one.
//  2. Correctness — the recovered state is a committed prefix: every
//     version traces back to an attempted commit (nothing fabricated,
//     no dirty versions), storage invariants hold, the version-control
//     counters resume exactly at the recovered horizon (vtnc = max TN,
//     tnc = max TN + 1), the recovered write history is MVSG-acyclic,
//     and the engine keeps serving serializable transactions (checked
//     with internal/history and internal/audit).
//
// Two drivers share the oracle: an exhaustive deterministic sweep that
// crashes a scripted scenario at every mutating filesystem operation
// (Sweep), and a seeded randomized torture loop for long runs
// (Torture, wrapped by `mvdb torture`).
package crashtest

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"mvdb/internal/core"
	"mvdb/internal/engine"
	"mvdb/internal/history"
	"mvdb/internal/storage"
)

// Mut is one key's mutation inside a commit attempt.
type Mut struct {
	Value  string
	Delete bool
	// RMW makes the attempt read the key before it writes it, so the
	// commit depends on whichever commit wrote what it read.
	RMW bool
}

type ackedWrite struct {
	tn        uint64
	value     string
	tombstone bool
}

// ackedRead is a value the acknowledged commit numbered reader read.
type ackedRead struct {
	reader     uint64
	key, value string
}

// Oracle records every commit attempt and acknowledgement so recovery
// can be audited. Safe for concurrent use.
type Oracle struct {
	mu        sync.Mutex
	attempted map[string]map[string]bool // key -> values any attempt wrote
	deleted   map[string]bool            // keys some attempt deleted
	acked     map[string]ackedWrite      // key -> acknowledged write with the largest TN
	reads     []ackedRead                // what acknowledged commits read
	attempts  int
	acks      int
}

// NewOracle returns an empty oracle.
func NewOracle() *Oracle {
	return &Oracle{
		attempted: make(map[string]map[string]bool),
		deleted:   make(map[string]bool),
		acked:     make(map[string]ackedWrite),
	}
}

// Attempt registers a commit attempt BEFORE it executes: whatever of it
// survives a crash must be explainable by this registration.
func (o *Oracle) Attempt(muts map[string]Mut) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempts++
	for k, m := range muts {
		if m.Delete {
			o.deleted[k] = true
			continue
		}
		set := o.attempted[k]
		if set == nil {
			set = make(map[string]bool)
			o.attempted[k] = set
		}
		set[m.Value] = true
	}
}

// Ack records that a commit attempt was acknowledged to the client with
// transaction number tn, having read the values in reads (key -> value;
// keys it found absent are left out). From this instant the write set,
// and every version read, must survive any crash.
func (o *Oracle) Ack(tn uint64, muts map[string]Mut, reads map[string]string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.acks++
	for k, v := range reads {
		o.reads = append(o.reads, ackedRead{reader: tn, key: k, value: v})
	}
	for k, m := range muts {
		if prev, ok := o.acked[k]; !ok || tn > prev.tn {
			o.acked[k] = ackedWrite{tn: tn, value: m.Value, tombstone: m.Delete}
		}
	}
}

// Acks returns the number of acknowledged commits so far.
func (o *Oracle) Acks() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.acks
}

// Attempts returns the number of commit attempts so far.
func (o *Oracle) Attempts() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.attempts
}

// Check audits a freshly recovered engine (no transactions run on it
// yet) against everything recorded, version-0 (bootstrap) versions
// included. horizon is that of the snapshot the engine was restored from
// (0: none). It returns the first violation of the dual oracle, nil if
// the recovered state is sound.
func (o *Oracle) Check(e *core.Engine, horizon uint64) error {
	o.mu.Lock()
	defer o.mu.Unlock()

	var maxTN uint64
	byTN := make(map[uint64][]history.Op)
	var fail error
	e.Store().Range(func(key string, obj *storage.Object) bool {
		if err := obj.CheckInvariants(); err != nil {
			fail = fmt.Errorf("storage invariants on %q: %w", key, err)
			return false
		}
		if n := obj.PendingCount(); n != 0 {
			fail = fmt.Errorf("key %q recovered with %d dirty (pending) versions", key, n)
			return false
		}
		for _, v := range obj.Versions() {
			if v.TN > 0 { // version 0 is the bootstrap state, which no transaction wrote
				maxTN = max(maxTN, v.TN)
				byTN[v.TN] = append(byTN[v.TN], history.Op{Key: key, VersionTN: v.TN})
			}
			switch {
			case v.Tombstone:
				if !o.deleted[key] {
					fail = fmt.Errorf("key %q recovered a tombstone (tn %d) no attempt produced", key, v.TN)
					return false
				}
			case !o.attempted[key][string(v.Data)]:
				fail = fmt.Errorf("key %q recovered fabricated value %q (tn %d)", key, v.Data, v.TN)
				return false
			}
		}
		if a, ok := o.acked[key]; ok {
			lv, lok := obj.LatestCommitted()
			if !lok {
				fail = fmt.Errorf("durability violation: key %q lost entirely (acked write tn %d)", key, a.tn)
				return false
			}
			if lv.TN < a.tn {
				fail = fmt.Errorf("durability violation: key %q recovered at tn %d, older than acked tn %d", key, lv.TN, a.tn)
				return false
			}
			if lv.TN == a.tn && (lv.Tombstone != a.tombstone || (!a.tombstone && string(lv.Data) != a.value)) {
				fail = fmt.Errorf("durability violation: key %q at acked tn %d recovered %q/%v, acked %q/%v",
					key, a.tn, lv.Data, lv.Tombstone, a.value, a.tombstone)
				return false
			}
		}
		return true
	})
	if fail != nil {
		return fail
	}

	// Every version an acknowledged commit read is still there. A
	// checkpoint keeps only the newest version at or below its horizon,
	// so a version read may be gone once the reader itself is under the
	// horizon — whatever superseded it was visible, hence durable, when
	// the snapshot was taken. Above the horizon recovery drops nothing
	// that was durable: a missing version there was lost with its commit
	// record, and the acknowledged reader depended on it.
	values := make(map[string]map[string]uint64) // key -> value -> tn, for keys with reads
	for _, r := range o.reads {
		if r.reader <= horizon {
			continue
		}
		byValue, ok := values[r.key]
		if !ok {
			byValue = make(map[string]uint64)
			if obj := e.Store().Get(r.key); obj != nil {
				for _, v := range obj.Versions() {
					if !v.Tombstone {
						byValue[string(v.Data)] = v.TN
					}
				}
			}
			values[r.key] = byValue
		}
		if tn, ok := byValue[r.value]; !ok || tn >= r.reader {
			return fmt.Errorf("dependency violation: acknowledged commit tn %d read %q = %q, which is absent after recovery (horizon %d)",
				r.reader, r.key, r.value, horizon)
		}
	}

	// Version-control counters must resume exactly at the recovered
	// horizon: everything recovered is visible (vtnc = max TN) and the
	// next transaction number is just past it (tnc = max TN + 1), the
	// vtnc <= tnc invariant in its tightest post-recovery form.
	if got := e.VC().VTNC(); got != maxTN {
		return fmt.Errorf("vtnc after recovery = %d, want max recovered tn %d", got, maxTN)
	}
	if got := e.VC().TNC(); got != maxTN+1 {
		return fmt.Errorf("tnc after recovery = %d, want %d", got, maxTN+1)
	}

	// The recovered write history must be installable as an acyclic
	// MVSG: one committed writer per version, no version 0, no cycles.
	tns := make([]uint64, 0, len(byTN))
	for tn := range byTN {
		tns = append(tns, tn)
	}
	sort.Slice(tns, func(i, j int) bool { return tns[i] < tns[j] })
	g := history.NewGraph(history.Strict)
	for _, tn := range tns {
		if err := g.AddWrites(history.TxHistory{ID: tn, TN: tn, Writes: byTN[tn]}); err != nil {
			return fmt.Errorf("recovered history rejected: %w", err)
		}
	}
	if cyc := g.FindCycle(); cyc != nil {
		return fmt.Errorf("recovered history has an MVSG cycle: %v", cyc)
	}
	return nil
}

// bootstrap loads muts' values into e as version 0, registered and
// acknowledged like a commit numbered 0: once it returns nil, each key
// must come back, at version 0 unless a newer version covers it.
func bootstrap(e *core.Engine, o *Oracle, muts map[string]Mut) error {
	o.Attempt(muts)
	data := make(map[string][]byte, len(muts))
	for k, m := range muts {
		data[k] = []byte(m.Value)
	}
	if err := e.Bootstrap(data); err != nil {
		return err
	}
	o.Ack(0, muts, nil)
	return nil
}

// CommitAttempt runs one read-write transaction applying muts (reading
// first the keys marked RMW), registering the attempt before it starts
// and the acknowledgement, with what it read, after Commit returns nil.
// The returned error is the engine's (retryable conflicts included — the
// caller decides whether to retry).
func CommitAttempt(e *core.Engine, o *Oracle, muts map[string]Mut) (uint64, error) {
	o.Attempt(muts)
	tx, err := e.Begin(engine.ReadWrite)
	if err != nil {
		return 0, err
	}
	var reads map[string]string
	for k, m := range muts {
		if m.RMW {
			v, err := tx.Get(k)
			if err == nil {
				if reads == nil {
					reads = make(map[string]string)
				}
				reads[k] = string(v)
			} else if !errors.Is(err, engine.ErrNotFound) {
				tx.Abort()
				return 0, err
			}
		}
		if m.Delete {
			err = tx.Delete(k)
		} else {
			err = tx.Put(k, []byte(m.Value))
		}
		if err != nil {
			tx.Abort()
			return 0, err
		}
	}
	if err := tx.Commit(); err != nil {
		return 0, err
	}
	tn, _ := tx.SN()
	o.Ack(tn, muts, reads)
	return tn, nil
}
