package mvdb

// Checkpoint writes a consistent snapshot of the database next to the
// commit log (<WALPath>.snap) and drops the log prefix it covers, so
// both the log on disk and the work a later Open replays stay bounded
// while the database runs. It fails without Options.WALPath.
//
// The snapshot is taken at the current visibility horizon (vtnc), which
// by the Transaction Visibility Property is a fully committed prefix of
// the serial order — so Checkpoint is safe to run concurrently with any
// transaction load and never waits for a transaction, one more dividend
// of the paper's design. Each key's version at the horizon is written as
// the walk over the store reaches it, so a checkpoint holds no copy of
// the store; the horizon holds off collection until the snapshot is in
// place. The write is crash-atomic (temp file + fsync + rename +
// directory fsync): a power cut at any instant leaves either the
// previous snapshot or the new one, both intact.
//
// Checkpoints run one at a time. Each one first moves the live log aside
// to <WALPath>.old, unless an earlier checkpoint left that file there,
// and deletes <WALPath>.old once its snapshot covers every record in it
// — at the latest, on the next checkpoint. Open replays the snapshot,
// then <WALPath>.old if present, then the log.
func (db *DB) Checkpoint() error { return db.eng.Checkpoint() }
