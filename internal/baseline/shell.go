// Package baseline implements the three comparator protocols the paper
// discusses in Section 2, re-created from the paper's own descriptions:
//
//   - MVTO: Reed's multiversion timestamp ordering [14], in which
//     read-only transactions are synchronized like everyone else — they
//     raise r-ts, block on pending writes, and can abort read-write
//     transactions.
//   - MV2PLCTL: the Chan et al. multiversion two-phase locking [7], in
//     which every read-only transaction carries a start timestamp and a
//     copy of the completed transaction list (CTL).
//   - SV2PL: single-version strict two-phase locking, the non-multiversion
//     baseline in which readers and writers block each other.
//
// The three share one engine shell (the store, ids, recorder, stats and
// the begin rules), and the two locking comparators share one strict-2PL
// transaction (locking.go), so the engines differ only where the paper
// says they do: in how read-only transactions are synchronized.
//
// Each engine implements engine.Engine, so the harness can run identical
// workloads across the paper's engines and these baselines and measure the
// differences the paper claims (experiments E1-E5). Each counts into the
// same obs.Stats registry the paper's engines count into, so every
// comparison reads the same fields.
package baseline

import (
	"errors"
	"sync/atomic"

	"mvdb/internal/engine"
	"mvdb/internal/obs"
	"mvdb/internal/storage"
)

// shell is the part of an engine every baseline shares.
type shell struct {
	store  *storage.Store
	ids    atomic.Uint64
	rec    engine.Recorder
	stats  *obs.Stats
	closed atomic.Bool
}

func (s *shell) init(rec engine.Recorder) {
	if rec == nil {
		rec = engine.NopRecorder{}
	}
	s.store, s.rec, s.stats = storage.NewStore(0), rec, obs.NewStats()
}

// Store exposes the underlying store.
func (s *shell) Store() *storage.Store { return s.store }

// Bootstrap loads initial data as version 0. The first Begin seals it.
func (s *shell) Bootstrap(data map[string][]byte) error {
	if s.ids.Load() != 0 {
		return errors.New("baseline: Bootstrap after transactions started")
	}
	for k, v := range data {
		s.store.Bootstrap(k, v)
	}
	return nil
}

// Stats implements engine.Engine.
func (s *shell) Stats() obs.Snapshot { return s.stats.Snapshot() }

// Close implements engine.Engine.
func (s *shell) Close() error {
	s.closed.Store(true)
	return nil
}

// begin applies the rules every engine's Begin shares: it refuses after
// Close, counts the begin before the transaction can count a commit or
// an abort, and records it under a fresh id.
func (s *shell) begin(class engine.Class) (uint64, error) {
	if s.closed.Load() {
		return 0, errors.New("baseline: engine closed")
	}
	if class == engine.ReadOnly {
		s.stats.BeginsRO.Inc()
	} else {
		s.stats.BeginsRW.Inc()
	}
	id := s.ids.Add(1)
	s.rec.RecordBegin(id, class)
	return id, nil
}

// read records that transaction id read v of key (version 0 when ok is
// false: the key has no version it may see) and returns v's value.
func (s *shell) read(id uint64, key string, v storage.Version, ok bool) ([]byte, error) {
	if !ok {
		v = storage.Version{Tombstone: true}
	}
	s.rec.RecordRead(id, key, v.TN)
	return value(v)
}

// value returns v's data, or ErrNotFound for a tombstone.
func value(v storage.Version) ([]byte, error) {
	if v.Tombstone {
		return nil, engine.ErrNotFound
	}
	return v.Data, nil
}
