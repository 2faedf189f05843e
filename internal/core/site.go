package core

// A site of a distributed cluster (internal/dist, paper Section 6) is an
// engine like any other: 2PL, the strict controller, the pipelined commit
// tail, collection by commits. What the cluster needs beyond the
// single-site API reaches the engine through this file only: the site's
// numbering and the snapshot registry its sites share, at construction
// (ClusterSite); a read-write transaction begun under the coordinator's
// global id whose number a vote fixes (BeginSite, Adopt); and snapshot
// reads at a number the coordinator chose (ReadAt, ScanAt).

import "mvdb/internal/vc"

// site is what ClusterSite puts in Options.
type site struct {
	offset, step uint64
	reg          *Registry
}

// ClusterSite returns opts for site offset of a step-site cluster whose
// sites share reg. The engine's controller is strict and hands out local
// numbers in the residue class offset mod step (vc.NewStrided), so no two
// sites assign the same one; the engine publishes its snapshots in reg
// and collects against it, so a snapshot published there once holds
// collection off at every site. New and OpenDurable build the site from
// the result; Adopt needs its protocol to be TwoPhaseLocking.
func ClusterSite(opts Options, offset, step uint64, reg *Registry) Options {
	opts.site = &site{offset: offset, step: step, reg: reg}
	return opts
}

// registry is an engine's snapshot registry: its cluster's, or its own.
func (s *site) registry() *Registry {
	if s != nil {
		return s.reg
	}
	return new(Registry)
}

// BeginSite begins a 2PL read-write transaction under id, the
// coordinator's id for the global transaction it is one part of: its
// lock owner at this site, and the id its reads and writes are recorded
// under. The coordinator records the global transaction's begin and its
// commit or abort once, so a site's recorder drops the part's.
func (e *Engine) BeginSite(id uint64) (*Tx, error) {
	if err := e.admit(); err != nil {
		return nil, err
	}
	return e.beginTwoPhase(id, nil), nil
}

// Adopt registers tx, begun by BeginSite, at exactly tn, the number the
// coordinator's max-vote chose (vc.Strict.RegisterExact), in the entry tx
// holds. Its Commit then finds it registered and runs the commit tail a
// local commit runs. The caller holds the site's registration gate from
// its vote (vc.Strict.Reserve) until this returns, so tn is not behind
// tnc.
func (e *Engine) Adopt(tx *Tx, tn uint64) error {
	return e.vc.(*vc.Strict).RegisterExact(&tx.self.(*twoPhaseTx).entry, tn)
}

// ReadAt reads key under the read-only rule (Figure 2) at sn, recording
// the read under id. The caller has made sn visible here, and published in
// the engine's registry, before choosing sn, a number no greater: then
// collection keeps what the read needs, unless it had passed sn before
// the publish, which the read reports as ErrSnapshotTooOld.
func (e *Engine) ReadAt(id uint64, key string, sn uint64) ([]byte, error) {
	t := roTx{txObs: txObs{e: e, id: id, proto: protoRO}, sn: sn}
	return t.Get(key)
}

// ScanAt is ReadAt for every live key with prefix, in key order.
func (e *Engine) ScanAt(id uint64, prefix string, sn uint64, fn func(key string, value []byte) bool) error {
	t := roTx{txObs: txObs{e: e, id: id, proto: protoRO}, sn: sn}
	return t.Scan(prefix, fn)
}
