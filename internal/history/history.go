// Package history implements an engine-independent one-copy
// serializability checker.
//
// A Recorder is attached to an engine under test and collects, for every
// transaction, the identity of each version read and written (a version is
// identified by the transaction number of its creator, exactly as in the
// paper's model, Section 3.2). Check then builds the multiversion
// serialization graph MVSG(H) of Bernstein & Goodman, using the natural
// version order (order of version numbers), and verifies it is acyclic:
//
//   - one node per committed transaction (plus a virtual bootstrap
//     transaction T0 that created all version-0 data);
//   - a reads-from edge Tj -> Tk for every r_k[x_j];
//   - for every r_k[x_j] and writer T_i of x (i, j, k distinct): if
//     x_i << x_j then T_i -> T_j, otherwise T_k -> T_i.
//
// Acyclicity of MVSG under *some* version order implies the history is
// one-copy serializable (paper Section 3.2); exhibiting the natural order
// as a witness is therefore a sound certificate. The checker never looks
// at engine internals, so the same code validates the paper's engines,
// the baselines, and catches the deliberately broken ablation variants.
package history

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"mvdb/internal/engine"
)

type readEvent struct {
	key       string
	versionTN uint64
}

type txRecord struct {
	id        uint64
	class     engine.Class
	reads     []readEvent
	writes    map[string]uint64 // key -> version TN created
	tn        uint64
	committed bool
	aborted   bool
}

// Recorder collects operation history. It implements engine.Recorder and
// is safe for concurrent use.
type Recorder struct {
	mu  sync.Mutex
	txs map[uint64]*txRecord
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder {
	return &Recorder{txs: make(map[uint64]*txRecord)}
}

// RecordBegin implements engine.Recorder.
func (r *Recorder) RecordBegin(txID uint64, class engine.Class) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.txs[txID]; ok {
		panic(fmt.Sprintf("history: duplicate begin for tx %d", txID))
	}
	r.txs[txID] = &txRecord{id: txID, class: class, writes: make(map[string]uint64)}
}

// RecordRead implements engine.Recorder.
func (r *Recorder) RecordRead(txID uint64, key string, versionTN uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.txs[txID]
	if t == nil {
		panic(fmt.Sprintf("history: read by unknown tx %d", txID))
	}
	t.reads = append(t.reads, readEvent{key, versionTN})
}

// RecordWrite implements engine.Recorder.
func (r *Recorder) RecordWrite(txID uint64, key string, versionTN uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.txs[txID]
	if t == nil {
		panic(fmt.Sprintf("history: write by unknown tx %d", txID))
	}
	t.writes[key] = versionTN
}

// RecordCommit implements engine.Recorder.
func (r *Recorder) RecordCommit(txID uint64, tn uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.txs[txID]
	if t == nil {
		panic(fmt.Sprintf("history: commit of unknown tx %d", txID))
	}
	t.tn = tn
	t.committed = true
}

// RecordAbort implements engine.Recorder.
func (r *Recorder) RecordAbort(txID uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t := r.txs[txID]; t != nil {
		t.aborted = true
	}
}

// RecordSnapshot implements engine.Recorder. The checker orders a
// read-only transaction by its commit's number, which is its start
// number.
func (*Recorder) RecordSnapshot(uint64, uint64) {}

// RecordParked implements engine.Recorder. Waits do not enter the
// history.
func (*Recorder) RecordParked(uint64, bool) {}

// CommittedCount returns the number of committed transactions recorded.
func (r *Recorder) CommittedCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, t := range r.txs {
		if t.committed {
			n++
		}
	}
	return n
}

// Check verifies one-copy serializability of the recorded history.
// It returns nil if MVSG(H) is acyclic, and a descriptive error naming a
// cycle (or a more basic integrity violation, such as a dirty read or a
// duplicate read-write transaction number) otherwise.
func (r *Recorder) Check() error {
	r.mu.Lock()
	committed := make([]*txRecord, 0, len(r.txs))
	for _, t := range r.txs {
		if t.committed {
			if t.aborted {
				r.mu.Unlock()
				return fmt.Errorf("history: tx %d both committed and aborted", t.id)
			}
			committed = append(committed, t)
		}
	}
	r.mu.Unlock()

	sort.Slice(committed, func(i, j int) bool {
		if committed[i].tn != committed[j].tn {
			return committed[i].tn < committed[j].tn
		}
		return committed[i].id < committed[j].id
	})

	// Build the MVSG through the shared incremental construction
	// (graph.go) in Strict mode: all writers are indexed before any read
	// is resolved, so a read of an unknown version is a dirty read.
	g := NewGraph(Strict)
	for _, t := range committed {
		if err := g.AddWrites(t.history()); err != nil {
			return err
		}
	}
	for _, t := range committed {
		if _, err := g.AddReads(t.id); err != nil {
			return err
		}
	}

	if cyc := g.FindCycle(); cyc != nil {
		var sb strings.Builder
		for i, id := range cyc {
			if i > 0 {
				sb.WriteString(" -> ")
			}
			fmt.Fprintf(&sb, "T%d(tn=%d)", id, g.TN(id))
		}
		return fmt.Errorf("history: MVSG cycle: %s", sb.String())
	}
	return nil
}

// history converts the recorder's internal record into the shared
// TxHistory form used by the MVSG graph. Write order is made
// deterministic so graph construction is reproducible.
func (t *txRecord) history() TxHistory {
	h := TxHistory{ID: t.id, TN: t.tn, Reads: make([]Op, 0, len(t.reads))}
	for _, rd := range t.reads {
		h.Reads = append(h.Reads, Op{Key: rd.key, VersionTN: rd.versionTN})
	}
	if len(t.writes) > 0 {
		keys := make([]string, 0, len(t.writes))
		for k := range t.writes {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		h.Writes = make([]Op, 0, len(keys))
		for _, k := range keys {
			h.Writes = append(h.Writes, Op{Key: k, VersionTN: t.writes[k]})
		}
	}
	return h
}

// BruteForceCheck decides one-copy serializability of the recorded history
// exactly, by trying every permutation of the committed transactions and
// replaying it against a single-version store. It is exponential and meant
// to cross-validate Check on small randomized histories (property tests).
// Histories with more than 9 committed transactions are rejected.
func (r *Recorder) BruteForceCheck() (serializable bool, err error) {
	r.mu.Lock()
	var committed []*txRecord
	for _, t := range r.txs {
		if t.committed {
			committed = append(committed, t)
		}
	}
	r.mu.Unlock()
	if len(committed) > 9 {
		return false, fmt.Errorf("history: brute force limited to 9 txs, got %d", len(committed))
	}
	sort.Slice(committed, func(i, j int) bool { return committed[i].id < committed[j].id })

	n := len(committed)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	ok := false
	var rec func(k int)
	rec = func(k int) {
		if ok {
			return
		}
		if k == n {
			if replaySerial(committed, perm) {
				ok = true
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return ok, nil
}

// replaySerial simulates the permutation on a single-version store where
// each key holds the version TN of its last writer, and checks that every
// read observed exactly the current version.
func replaySerial(txs []*txRecord, perm []int) bool {
	state := map[string]uint64{} // key -> current version TN (0 = bootstrap)
	for _, i := range perm {
		t := txs[i]
		for _, rd := range t.reads {
			if own, okW := t.writes[rd.key]; okW && own == rd.versionTN {
				continue // read-own-write
			}
			if state[rd.key] != rd.versionTN {
				return false
			}
		}
		for key, vtn := range t.writes {
			state[key] = vtn
		}
	}
	return true
}

// WriteDOT renders the MVSG of the committed history in Graphviz DOT
// format — reads-from edges solid, version-order edges dashed — so a
// rejected history can be inspected visually (the enginetest battery
// logs one on failure). The rendering reuses the exact edge construction of Check.
func (r *Recorder) WriteDOT(w io.Writer) error {
	r.mu.Lock()
	committed := make([]*txRecord, 0, len(r.txs))
	for _, t := range r.txs {
		if t.committed {
			committed = append(committed, t)
		}
	}
	r.mu.Unlock()
	sort.Slice(committed, func(i, j int) bool { return committed[i].id < committed[j].id })

	nodes := make([]*txRecord, 1, len(committed)+1)
	nodes[0] = &txRecord{id: 0, tn: 0, writes: map[string]uint64{}}
	nodes = append(nodes, committed...)

	// writer lookup (same shape as Check, tolerant of dirty histories:
	// unknown writers are rendered as a dedicated node).
	writerOf := map[string]map[uint64]int{}
	for i, t := range nodes {
		if i == 0 {
			continue
		}
		for key, vtn := range t.writes {
			if writerOf[key] == nil {
				writerOf[key] = map[uint64]int{}
			}
			writerOf[key][vtn] = i
		}
	}

	var b strings.Builder
	b.WriteString("digraph MVSG {\n  rankdir=LR;\n")
	for i, t := range nodes {
		label := fmt.Sprintf("T%d\\ntn=%d", t.id, t.tn)
		if i == 0 {
			label = "T0\\n(bootstrap)"
		}
		shape := "ellipse"
		if len(t.writes) == 0 && i != 0 {
			shape = "box" // read-only
		}
		fmt.Fprintf(&b, "  n%d [label=\"%s\", shape=%s];\n", i, label, shape)
	}
	type edge struct {
		from, to int
		dashed   bool
	}
	seen := map[edge]bool{}
	emit := func(from, to int, dashed bool, label string) {
		if from == to {
			return
		}
		e := edge{from, to, dashed}
		if seen[e] {
			return
		}
		seen[e] = true
		style := "solid"
		if dashed {
			style = "dashed"
		}
		fmt.Fprintf(&b, "  n%d -> n%d [style=%s, label=\"%s\"];\n", from, to, style, label)
	}
	for k, t := range nodes {
		if k == 0 {
			continue
		}
		for _, rd := range t.reads {
			if own, ok := t.writes[rd.key]; ok && own == rd.versionTN {
				continue
			}
			j := 0
			if rd.versionTN != 0 {
				var ok bool
				j, ok = writerOf[rd.key][rd.versionTN]
				if !ok {
					continue // dirty read; Check reports it, skip here
				}
			}
			emit(j, k, false, rd.key)
			for vtn, i := range writerOf[rd.key] {
				if i == j || i == k {
					continue
				}
				if vtn < rd.versionTN {
					emit(i, j, true, rd.key)
				} else {
					emit(k, i, true, rd.key)
				}
			}
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
