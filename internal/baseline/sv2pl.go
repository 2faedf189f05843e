package baseline

import "mvdb/internal/engine"

// SV2PL is single-version strict two-phase locking: the non-multiversion
// baseline. Read-only transactions are ordinary transactions that take
// shared locks, so they block behind writers, writers block behind them,
// and they participate in deadlocks — everything Section 1 of the paper
// says multiversioning exists to avoid.
//
// The implementation reuses the multiversion store but each read returns
// the latest committed version and the object's history is pruned on
// overwrite, so at most one version is live per key.
type SV2PL struct{ locking }

// NewSV2PL creates the single-version baseline engine.
func NewSV2PL(rec engine.Recorder) *SV2PL {
	e := &SV2PL{}
	e.init(rec, e.prune)
	return e
}

// prune is SV2PL's installed step: drop every version a commit
// superseded, keeping the store single-version.
func (e *SV2PL) prune(t *lockTx) {
	for key := range t.buf {
		e.store.Get(key).Prune(t.tn)
	}
}

// Name implements engine.Engine.
func (e *SV2PL) Name() string { return "sv2pl" }
