// Package mvdb is a multiversion key-value transaction engine with
// modular synchronization, reproducing Sengupta & Agrawal, "Modular
// Synchronization in Multiversion Databases: Version Control and
// Concurrency Control" (CUCS-426-89 / SIGMOD 1989).
//
// The engine separates synchronization into two components, exactly as
// the paper prescribes: a tiny version control module that owns the
// transaction-number and visibility counters, and a pluggable
// conflict-based concurrency control protocol (two-phase locking,
// timestamp ordering, or optimistic validation) that serializes
// read-write transactions. Read-only transactions never touch the
// concurrency control component: they take a snapshot number at begin and
// read the largest committed version at or below it — they never block,
// never abort, and never disturb writers.
//
// Quick start:
//
//	db, err := mvdb.Open(mvdb.Options{Protocol: mvdb.TwoPhaseLocking})
//	if err != nil { ... }
//	defer db.Close()
//
//	err = db.Update(func(tx *mvdb.Tx) error {
//		return tx.Put("greeting", []byte("hello"))
//	})
//
//	err = db.View(func(tx *mvdb.Tx) error {
//		v, err := tx.Get("greeting")
//		...
//	})
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the
// reproduction of the paper's claims.
package mvdb

import (
	"fmt"
	"net/http"
	"sync/atomic"

	"mvdb/internal/audit"
	"mvdb/internal/core"
	"mvdb/internal/engine"
	"mvdb/internal/faultfs"
	"mvdb/internal/flight"
	"mvdb/internal/gc"
	"mvdb/internal/obs"
	"mvdb/internal/vc"
)

// Protocol selects the concurrency control used for read-write
// transactions. Read-only transactions behave identically under all of
// them — that independence is the paper's point.
type Protocol int

const (
	// TwoPhaseLocking is strict 2PL with version-control registration at
	// the lock-point (paper Figure 4). The default. A lock request that
	// would close a waits-for cycle fails with ErrDeadlock, and its
	// transaction aborts.
	TwoPhaseLocking Protocol = iota
	// TimestampOrdering assigns the serial order at begin (paper
	// Figure 3). Writers that arrive too late abort and should retry.
	TimestampOrdering
	// Optimistic buffers writes and validates at commit.
	Optimistic
)

func (p Protocol) String() string { return coreProtocol(p).String() }

func coreProtocol(p Protocol) core.Protocol {
	switch p {
	case TimestampOrdering:
		return core.TimestampOrdering
	case Optimistic:
		return core.Optimistic
	default:
		return core.TwoPhaseLocking
	}
}

// VisibilityMode selects the version-control implementation behind the
// engine: how completed transactions become visible to readers. Both
// modes preserve the paper's Transaction Ordering and Visibility
// Properties — the choice changes multi-core scalability, not
// semantics, and is certified equivalent by the schedtest, audit, and
// crashtest harnesses.
type VisibilityMode int

const (
	// VisibilityStrict is the paper's Figure 1 queue: one mutex, one
	// ordered drain, visibility advancing one transaction at a time in
	// serialization order. The default.
	VisibilityStrict VisibilityMode = iota
	// VisibilityEpoch decentralizes completion tracking into per-lane
	// frontiers and publishes visibility in batches at an epoch
	// watermark (min over lane frontiers). Completions in different
	// lanes never contend, at the cost of slightly coarser-grained
	// visibility advancement.
	VisibilityEpoch
)

func (m VisibilityMode) String() string { return vcMode(m).String() }

func vcMode(m VisibilityMode) vc.Mode {
	if m == VisibilityEpoch {
		return vc.ModeEpoch
	}
	return vc.ModeStrict
}

// Errors returned by transactions. ErrConflict and ErrDeadlock mean the
// transaction aborted and may be retried (IsRetryable reports this;
// Update retries automatically). ErrSnapshotTooOld means a
// read-only transaction's snapshot is older than garbage collection kept
// (see CollectGarbage, BeginReadOnlyAt); it is not retryable.
var (
	ErrNotFound       = engine.ErrNotFound
	ErrConflict       = engine.ErrConflict
	ErrDeadlock       = engine.ErrDeadlock
	ErrReadOnly       = engine.ErrReadOnly
	ErrTxDone         = engine.ErrTxDone
	ErrSnapshotTooOld = engine.ErrSnapshotTooOld
)

// IsRetryable reports whether err is a transient transaction abort.
func IsRetryable(err error) bool { return engine.Retryable(err) }

// Options configures Open.
type Options struct {
	// Protocol selects the read-write concurrency control.
	Protocol Protocol
	// VisibilityMode selects how completed transactions become visible:
	// the strict per-transaction drain (default) or the decentralized
	// epoch watermark. See the VisibilityMode constants.
	VisibilityMode VisibilityMode
	// WALPath enables the commit log: committed write sets are logged
	// before they become visible, and Open recovers the store from an
	// existing log at this path (with its snapshot <WALPath>.snap and
	// the retired prefix <WALPath>.old, where Checkpoint left them).
	// Empty disables the log. A commit is durable before it is
	// acknowledged (group commit): it enqueues its record and blocks
	// until an fsync of the log's background flusher covers it. Before
	// each fsync the flusher waits for as many records as were in flight
	// when its last one ended, so a committer it has just acknowledged
	// joins the batch on its next commit; one that does not come back
	// delays the batch by at most an eighth of the last fsync
	// (Stats().WALGatherTimeouts counts those).
	WALPath string
	// GroupCommit is ignored: every database with a WALPath commits as
	// WALPath describes. It stays until the benchmark, which sets it,
	// stops doing so.
	GroupCommit bool
	// DebugAddr, when non-empty, serves live observability over HTTP on
	// that address (e.g. "localhost:6060" or ":0" for an ephemeral port;
	// DebugAddr() reports the bound address): GET /debug/mvdb returns the
	// Stats snapshot as JSON and /debug/pprof/ the runtime profiles. It
	// starts the server and nothing else: no transaction path changes.
	// Empty — the default — starts no listener.
	DebugAddr string
	// Audit enables the online serializability auditor: an asynchronous
	// pipeline that mirrors the engine's event stream into a windowed
	// incremental MVSG, raising alarms on cycles, history integrity
	// violations, snapshot-read anomalies and version-control counter
	// inversions. It times nothing: commit latency is PhaseTiming's.
	// The audit path never blocks the engine — when its queue is full,
	// events are dropped and counted. DB.Audit() exposes the live state;
	// with DebugAddr set, GET /debug/mvdb/audit serves it as JSON. Off —
	// the default — costs nothing.
	Audit bool
	// PhaseTiming enables per-transaction latency attribution, the
	// database's one timing source: every read-write commit is broken
	// into protocol phases (lock-wait, read, validate, wal-enqueue,
	// fsync-wait, install, and visible-wait — the committer's
	// VCcomplete), which follow one another without overlap, with
	// per-protocol histograms in Stats().Phases (and so in /debug/mvdb),
	// plus pprof goroutine labels (mvdb_protocol, mvdb_phase) on the
	// timed spans. Off — the default — leaves the hot paths with a nil
	// test and zero extra allocations.
	PhaseTiming bool
	// FlightDir enables the black-box flight recorder: on an audit alarm
	// (when Audit is on), a GET of /debug/mvdb/dump (when DebugAddr is
	// set), or an explicit DB.Flight().Trigger call, a self-contained
	// JSON postmortem bundle is written atomically into this directory.
	// A bundle holds the Stats snapshot taken at the trigger (with the
	// phase matrix when PhaseTiming is on), the auditor's state when
	// Audit is on, and the lock manager's waits-for graph. Between
	// triggers the recorder reads nothing and runs nothing. Render
	// bundles with `mvdb inspect -bundle <file>`. Empty — the default —
	// creates no recorder.
	FlightDir string
	// FS, when non-nil, routes every durability-path file operation
	// (WAL, its rotation, snapshots) through the given filesystem — the
	// fault-injection harness's hook. Nil selects the real filesystem.
	FS faultfs.FS
}

// Stats is the typed observability snapshot returned by DB.Stats: every
// lifecycle counter (commits and begins split by class, aborts by
// cause, retries), the lock, WAL and GC substrate counters, and the
// paper's version-control gauges (tnc, vtnc, visibility lag, VCQueue
// depth). Every engine in the repository, the baselines and the cluster
// included, reports its counters in this one form.
type Stats = obs.Snapshot

// Auditor is the online serializability auditor (see Options.Audit).
type Auditor = audit.Auditor

// AuditSnapshot is the auditor's point-in-time state.
type AuditSnapshot = audit.Snapshot

// AuditAlarm is one anomaly the auditor detected.
type AuditAlarm = audit.Alarm

// Flight is the black-box flight recorder (see Options.FlightDir).
type Flight = flight.Recorder

// FlightBundle is one postmortem bundle document.
type FlightBundle = flight.Bundle

// DB is an open database.
type DB struct {
	eng       *core.Engine // owns the commit log when Options.WALPath is set
	collector *gc.Collector
	auditor   *audit.Auditor   // nil unless Options.Audit
	flightRec *flight.Recorder // nil unless Options.FlightDir
	dbg       *obs.DebugServer // nil unless DebugAddr
	closed    bool
}

// Open creates (or, when Options.WALPath names an existing log, recovers)
// a database.
func Open(opts Options) (*DB, error) {
	// The auditor, when enabled, rides the same recorder plumbing the
	// offline checker uses. It must exist before the engine so core.New
	// (and WAL recovery) can attach it; the version-control gauges it
	// samples are published through an atomic pointer once the engine
	// exists, so the consumer goroutine never races engine construction.
	// The flight recorder is created after the engine (it reads engine
	// state), but the auditor's alarm hook is installed now — so the hook
	// reaches the recorder through an atomic pointer that is published
	// once both exist.
	var flightRec atomic.Pointer[flight.Recorder]
	var auditor *audit.Auditor
	var auditVC atomic.Pointer[vc.Controller]
	if opts.Audit {
		auditor = audit.New(audit.Options{
			OnAlarm: func(al audit.Alarm) {
				if r := flightRec.Load(); r != nil {
					r.TriggerAsync("audit-alarm", al.Kind+": "+al.Message)
				}
			},
			Gauges: func() (tnc, vtnc uint64) {
				c := auditVC.Load()
				if c == nil {
					return 0, 0
				}
				// vtnc before tnc: both only grow, so this order can
				// only under-report vtnc, keeping vtnc <= tnc-1 checks
				// free of false alarms.
				v := (*c).VTNC()
				t := (*c).TNC()
				return t, v
			},
		})
	}
	coreOpts := core.Options{
		Protocol:    coreProtocol(opts.Protocol),
		Visibility:  vcMode(opts.VisibilityMode),
		PhaseTiming: opts.PhaseTiming,
	}
	if auditor != nil {
		coreOpts.Recorder = auditor
	}
	fail := func(err error) (*DB, error) {
		if auditor != nil {
			auditor.Close()
		}
		return nil, err
	}
	var eng *core.Engine
	if opts.WALPath != "" {
		var err error
		if eng, err = core.OpenDurable(opts.WALPath, coreOpts, core.DurableOptions{FS: opts.FS}); err != nil {
			return fail(fmt.Errorf("mvdb: recover: %w", err))
		}
	} else {
		eng = core.New(coreOpts)
	}
	engVC := eng.VC()
	auditVC.Store(&engVC)

	db := &DB{eng: eng, auditor: auditor}
	// Commits collect (CollectGarbage says how); the collector is its
	// sweep for what they leave.
	db.collector = gc.New(eng, 0)
	if opts.FlightDir != "" {
		src := flight.Sources{
			Stats:     db.Stats,
			WaitGraph: eng.LockWaitGraph,
		}
		if auditor != nil {
			src.Audit = auditor.Snapshot
		}
		rec, err := flight.New(src, opts.FlightDir)
		if err != nil {
			db.Close()
			return nil, fmt.Errorf("mvdb: flight recorder: %w", err)
		}
		db.flightRec = rec
		flightRec.Store(rec)
	}
	if opts.DebugAddr != "" {
		routes := make(map[string]http.Handler)
		if auditor != nil {
			routes["/debug/mvdb/audit"] = auditor.HTTPHandler()
		}
		if db.flightRec != nil {
			routes["/debug/mvdb/dump"] = db.flightRec.HTTPHandler()
		}
		dbg, err := obs.Serve(opts.DebugAddr, db.Stats, routes)
		if err != nil {
			db.Close()
			return nil, fmt.Errorf("mvdb: debug server: %w", err)
		}
		db.dbg = dbg
	}
	return db, nil
}

// Close stops background work and closes the commit log, returning its
// error: a write or fsync that failed while the database ran is reported
// here too.
func (db *DB) Close() error {
	if db.closed {
		return nil
	}
	db.closed = true
	if db.dbg != nil {
		db.dbg.Close()
	}
	if db.flightRec != nil {
		// Before the engine and auditor: no bundle write can then observe
		// half-torn-down sources.
		db.flightRec.Close()
	}
	err := db.eng.Close()
	if db.auditor != nil {
		// After the engine: no more events can be produced, so the
		// auditor's drain-on-close covers the whole run.
		db.auditor.Close()
	}
	return err
}

// Bootstrap loads initial data as the pre-transactional state (version
// 0). It must be called before the first transaction. With WALPath set
// the data is logged first, as one version-0 record, so it survives a
// reopen like any commit (durably once Bootstrap returns); a database
// that recovered any data refuses it.
func (db *DB) Bootstrap(data map[string][]byte) error {
	return db.eng.Bootstrap(data)
}

// Begin starts a read-write transaction.
func (db *DB) Begin() (*Tx, error) {
	return public(db.eng.BeginTx(engine.ReadWrite))
}

// BeginReadOnly starts a read-only snapshot transaction (paper Figure 2):
// one counter read, then wait-free reads of the snapshot at that point.
// The snapshot may trail the newest commits by the visibility lag; see
// BeginReadOnlyRecent.
func (db *DB) BeginReadOnly() (*Tx, error) {
	return public(db.eng.BeginTx(engine.ReadOnly))
}

// BeginReadOnlyRecent starts a read-only transaction guaranteed to
// observe everything serialized before this call, waiting out the
// visibility lag if necessary (the paper's Section 6 rectification).
func (db *DB) BeginReadOnlyRecent() (*Tx, error) {
	return public(db.eng.BeginReadOnlyRecent())
}

// BeginReadOnlyAt starts a read-only transaction whose snapshot is pinned
// at exactly serialization position sn (waiting if sn is not yet
// visible). Pass the TN of one of your own committed transactions (Tx.TN)
// for read-your-writes, or a historical position for time travel. Once
// open, the snapshot holds collection off like any other, but a position
// collection had already passed may need versions it discarded; a read
// that does returns ErrSnapshotTooOld.
func (db *DB) BeginReadOnlyAt(sn uint64) (*Tx, error) {
	return public(db.eng.BeginReadOnlyAt(sn))
}

// public converts an engine transaction header to the public handle;
// the two are one object.
func public(h *core.Tx, err error) (*Tx, error) {
	return (*Tx)(h), err
}

// View runs fn in a read-only transaction. The transaction commits when
// fn returns nil and aborts otherwise; either way reads are wait-free and
// fn is called exactly once (snapshot reads cannot conflict). If fn
// panics, the transaction is aborted and the panic goes on. tx is valid
// only until fn returns: the database reuses it for a later View, so a
// View allocates nothing.
func (db *DB) View(fn func(*Tx) error) error {
	return db.eng.View(func(h *core.Tx) error { return fn((*Tx)(h)) })
}

// Update runs fn in a read-write transaction, retrying automatically when
// the engine aborts it with a retryable conflict (up to 100 attempts;
// from the second retry on, after a short random sleep whose bound
// doubles with each retry, up to a millisecond). fn must be idempotent per attempt and must not keep
// references to data read in failed attempts. If fn panics, the attempt's transaction is aborted — its locks and pending
// versions given back — and the panic goes on. tx is valid only until fn
// returns: the database reuses it for a later Update, so an Update
// allocates nothing of its own.
func (db *DB) Update(fn func(*Tx) error) error {
	var last error
	for attempt := 0; engine.Backoff(attempt); attempt++ {
		err := db.attempt(fn)
		if err == nil {
			return nil
		}
		if !IsRetryable(err) {
			return err
		}
		db.eng.Obs().Retries.Inc()
		last = err
	}
	return fmt.Errorf("mvdb: update retries exhausted: %w", last)
}

// attempt is one try of Update: fn in a read-write transaction the
// engine recycles, then its commit (core.Engine.Update).
func (db *DB) attempt(fn func(*Tx) error) error {
	return db.eng.Update(func(h *core.Tx) error { return fn((*Tx)(h)) })
}

// Stats returns a point-in-time observability snapshot: transaction
// lifecycle counters by class and abort cause, lock/WAL/GC substrate
// counters, and the paper's version-control gauges (TNC, VTNC,
// VisibilityLag, VCQueueLen). The snapshot is internally consistent —
// commits never exceed begins, VTNC < TNC — even while transactions run.
func (db *DB) Stats() Stats {
	return db.eng.Stats()
}

// Audit returns the online serializability auditor, or nil when
// Options.Audit was off. Auditor.Snapshot() reads the live state;
// Auditor.Drain() waits until everything recorded so far is processed.
func (db *DB) Audit() *Auditor { return db.auditor }

// Flight returns the black-box flight recorder, or nil when
// Options.FlightDir was empty. Flight().Trigger writes a postmortem
// bundle on demand; Flight().LastBundle reports the newest bundle path.
func (db *DB) Flight() *Flight { return db.flightRec }

// DebugAddr reports the bound address of the debug HTTP server ("" when
// Options.DebugAddr was empty). With Options.DebugAddr ":0" this is how
// the ephemeral port is discovered.
func (db *DB) DebugAddr() string {
	if db.dbg == nil {
		return ""
	}
	return db.dbg.Addr()
}

// CollectGarbage runs one synchronous garbage collection pass and returns
// the number of versions discarded. Commits already collect. With a
// WALPath, a commit drops the versions it superseded that no open
// snapshot can read once it completes, so with no snapshot open a written
// key rests at one version; one that a snapshot, or an older commit still
// in flight, kept from that leaves it to the next begin of its recycled
// Update. Without one, and as a backstop, a commit that finds a key's
// version array full drops them first, so a key rests at two
// (Stats().GCReclaimed counts all of these). The pass is the sweep for
// what those leave: keys nobody writes again.
// None ever takes a version an open snapshot reads; only a snapshot
// pinned below what was already collected (BeginReadOnlyAt) can read
// ErrSnapshotTooOld.
func (db *DB) CollectGarbage() int {
	n := db.collector.Collect()
	st := db.eng.Obs()
	st.GCPasses.Inc()
	st.GCReclaimed.Add(int64(n))
	return n
}

// VisibilityLag returns how many assigned serialization positions are not
// yet visible to new read-only transactions (paper Section 6's "lag
// between the two counters").
func (db *DB) VisibilityLag() uint64 { return db.eng.VisibilityLag() }

// Tx is a transaction handle. It is not safe for concurrent use. It is
// the engine's own transaction header, so a transaction costs one
// allocation however many layers handle it.
type Tx core.Tx

func (tx *Tx) head() *core.Tx { return (*core.Tx)(tx) }

// Get returns the value of key, or ErrNotFound.
func (tx *Tx) Get(key string) ([]byte, error) { return tx.head().Get(key) }

// GetString is a convenience wrapper returning the value as a string.
func (tx *Tx) GetString(key string) (string, error) {
	v, err := tx.head().Get(key)
	return string(v), err
}

// Put sets key to value. The value is retained; do not mutate it after.
func (tx *Tx) Put(key string, value []byte) error { return tx.head().Put(key, value) }

// PutString is a convenience wrapper for string values.
func (tx *Tx) PutString(key, value string) error { return tx.head().Put(key, []byte(value)) }

// Delete removes key.
func (tx *Tx) Delete(key string) error { return tx.head().Delete(key) }

// Commit finishes the transaction, making its effects visible in
// serialization order.
func (tx *Tx) Commit() error { return tx.head().Commit() }

// Abort discards the transaction. It is safe to call after an operation
// already aborted the transaction, and after Commit (no-op).
func (tx *Tx) Abort() { tx.head().Abort() }

// Scan iterates over every live key with the given prefix in ascending
// key order at the transaction's snapshot (read-only transactions only).
// fn returning false stops the scan early.
func (tx *Tx) Scan(prefix string, fn func(key string, value []byte) bool) error {
	return tx.head().Scan(prefix, fn)
}

// ReadOnly reports whether this is a read-only transaction.
func (tx *Tx) ReadOnly() bool { return tx.head().Class() == engine.ReadOnly }

// TN returns the transaction's serialization position: for read-only
// transactions the snapshot number (available immediately); for
// read-write transactions the assigned transaction number (available
// after Commit under 2PL/OCC, at begin under timestamp ordering).
func (tx *Tx) TN() (uint64, bool) { return tx.head().SN() }
