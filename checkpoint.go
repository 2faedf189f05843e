package mvdb

import "mvdb/internal/core"

// Checkpoint writes a consistent snapshot of the database next to the
// commit log (<WALPath>.snap), bounding recovery time: a later Open loads
// the snapshot and replays only the log suffix. It fails without
// Options.WALPath.
//
// The snapshot is taken at the current visibility horizon (vtnc), which
// by the Transaction Visibility Property is a fully committed prefix of
// the serial order — so Checkpoint is safe to run concurrently with any
// transaction load, one more dividend of the paper's design. Each key's
// version at the horizon is written as the walk over the store reaches
// it, so a checkpoint holds no copy of the store; the horizon holds off
// collection until the snapshot is in place. The write is crash-atomic
// (temp file + fsync + rename + directory fsync): a power cut at any
// instant leaves either the previous snapshot or the new one, both
// intact. The commit log is not rewritten here; use CompactLog offline to
// drop the prefix the snapshot covers.
func (db *DB) Checkpoint() error { return db.eng.Checkpoint() }

// CompactLog rewrites the commit log at walPath, dropping every record
// already covered by its snapshot (TN <= the snapshot horizon). It must
// be run offline — with no DB open on the log — and is a no-op without a
// snapshot. The replacement is crash-atomic: a crash mid-compaction
// leaves either the full old log or the compacted one, never a hybrid,
// and Open removes any stale temp file it finds.
func CompactLog(walPath string) error {
	return core.Compact(nil, walPath)
}
