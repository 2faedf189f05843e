// Package adaptive implements an adaptive concurrency control scheme on
// top of the modular framework — the kind of experimentation the paper
// says its decoupling enables (Section 1: version control permits work on
// "adaptive concurrency control schemes without introducing major
// modifications to the entire protocol").
//
// The engine runs read-write transactions under optimistic concurrency
// control while conflicts are rare and switches to two-phase locking when
// the observed conflict rate crosses a high-water mark (and back below a
// low-water mark). Switching uses an epoch barrier: new read-write
// transactions briefly wait for the active ones to drain, the protocol is
// swapped, and execution resumes.
//
// The demonstration of the paper's thesis is in what does NOT happen
// during a switch: read-only transactions keep starting, reading and
// committing completely undisturbed. Their execution depends only on the
// version control module, which is never touched.
package adaptive

import (
	"sync"
	"sync/atomic"

	"mvdb/internal/core"
	"mvdb/internal/engine"
	"mvdb/internal/health"
	"mvdb/internal/obs"
)

// Options configures the adaptive engine.
type Options struct {
	// Core configures the underlying engine. Core.Protocol is ignored:
	// the adaptive engine always starts optimistic and lets the policy
	// move it (optimism is the cheap default; contention is what must be
	// detected).
	Core core.Options
	// Window is the number of finished read-write transactions between
	// policy evaluations (default 64).
	Window int
	// HighWater is the conflict rate (aborts / (commits+aborts)) at or
	// above which the engine switches to two-phase locking
	// (default 0.30).
	HighWater float64
	// LowWater is the rate at or below which it switches back to
	// optimistic execution (default 0.05).
	LowWater float64

	// The knob-controller taps (all optional; a nil tap disables that
	// knob). When any is set and a health monitor drives the policy,
	// OnHealth also runs the knob controller (knobs.go) once per
	// well-sampled tick.
	//
	// WAL is the group-commit batching surface (*wal.Writer).
	WAL WALKnobs
	// Epoch is the epoch publisher's coalescing surface
	// (*epoch.Controller); nil under strict visibility.
	Epoch EpochKnobs
	// Ring, when set, receives one EvKnob event per knob decision.
	Ring *obs.Tracer
}

// Engine is an adaptive-concurrency-control engine. It implements
// engine.Engine.
type Engine struct {
	inner *core.Engine
	opts  Options

	// epoch is an RWMutex used as a barrier: every read-write transaction
	// holds a read lock from Begin to finish; a protocol switch takes the
	// write lock, so it waits for active read-write transactions and
	// blocks new ones — but never read-only ones.
	epoch sync.RWMutex

	// policy state, guarded by polMu.
	polMu        sync.Mutex
	sinceEval    int
	lastCommits  int64
	lastConflict int64

	switches atomic.Uint64

	// When a health monitor is wired (OnHealth), its interval abort
	// fraction replaces the internal every-N-completions sampling as the
	// policy input — same thresholds, better-conditioned signal.
	healthDriven  atomic.Bool
	healthSignals atomic.Uint64

	// Knob-controller state (knobs.go).
	knobActions atomic.Uint64
}

// New creates an adaptive engine over a fresh core engine.
func New(opts Options) *Engine {
	opts.Core.Protocol = core.Optimistic
	return Wrap(core.New(opts.Core), opts)
}

// Wrap builds an adaptive engine around an existing core engine (e.g. one
// produced by recovery). The engine's current protocol is the starting
// point; the policy moves it from there.
func Wrap(inner *core.Engine, opts Options) *Engine {
	if opts.Window <= 0 {
		opts.Window = 64
	}
	if opts.HighWater <= 0 {
		opts.HighWater = 0.30
	}
	if opts.LowWater <= 0 {
		opts.LowWater = 0.05
	}
	return &Engine{inner: inner, opts: opts}
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return "adaptive(" + e.inner.Protocol().String() + ")" }

// Protocol returns the protocol currently in force.
func (e *Engine) Protocol() core.Protocol { return e.inner.Protocol() }

// Switches returns how many protocol switches have occurred.
func (e *Engine) Switches() uint64 { return e.switches.Load() }

// Inner exposes the underlying engine (read-only paths, stats, GC).
func (e *Engine) Inner() *core.Engine { return e.inner }

// Bootstrap loads initial data.
func (e *Engine) Bootstrap(data map[string][]byte) error { return e.inner.Bootstrap(data) }

// Begin implements engine.Engine. Read-only transactions pass straight
// through — the epoch barrier does not apply to them.
func (e *Engine) Begin(class engine.Class) (engine.Tx, error) {
	if class == engine.ReadOnly {
		return e.inner.Begin(class)
	}
	e.epoch.RLock()
	tx, err := e.inner.Begin(class)
	if err != nil {
		e.epoch.RUnlock()
		return nil, err
	}
	return &adaptiveTx{Tx: tx, e: e}, nil
}

// Stats implements engine.Engine.
func (e *Engine) Stats() map[string]int64 {
	m := e.inner.Stats()
	m["adaptive.switches"] = int64(e.switches.Load())
	m["adaptive.protocol"] = int64(e.inner.Protocol())
	m["adaptive.health_signals"] = int64(e.healthSignals.Load())
	m["adaptive.knob_actions"] = int64(e.knobActions.Load())
	return m
}

// HealthSignals returns how many health signals the policy has consumed.
func (e *Engine) HealthSignals() uint64 { return e.healthSignals.Load() }

// minHealthOps is the smallest interval transaction count an abort
// fraction must be computed over before the policy acts on it — a
// near-idle interval where 1 of 2 transactions aborted is not 50%
// contention.
const minHealthOps = 16

// OnHealth consumes one health.Signal per monitor tick (wire it with
// health.Monitor.Subscribe). The first signal permanently hands the
// policy over to the health timeline: the internal every-N-completions
// sampling stops evaluating, and the interval abort fraction drives the
// same high/low-water thresholds instead. Intervals with fewer than
// minHealthOps completed transactions are ignored — too few samples to
// read a conflict rate from.
func (e *Engine) OnHealth(sig health.Signal) {
	e.healthDriven.Store(true)
	e.healthSignals.Add(1)
	if sig.Point.Ops < minHealthOps {
		return
	}
	// The knob controller shares the protocol policy's sampling guard:
	// an interval too thin to read a conflict rate from is too thin to
	// retune batching over. Synchronous on the monitor goroutine — the
	// knob setters are lock-cheap and never block on transactions.
	e.evalKnobs(sig)
	rate := sig.Point.AbortFrac
	switch {
	case rate >= e.opts.HighWater && e.inner.Protocol() != core.TwoPhaseLocking:
		// Async for symmetry with finished(): the monitor's tick
		// goroutine must not block behind the epoch barrier.
		go e.SwitchTo(core.TwoPhaseLocking)
	case rate <= e.opts.LowWater && e.inner.Protocol() != core.Optimistic:
		go e.SwitchTo(core.Optimistic)
	}
}

// Close implements engine.Engine.
func (e *Engine) Close() error { return e.inner.Close() }

// SwitchTo forces a protocol switch, draining active read-write
// transactions first. It is exported for tests and manual tuning; the
// policy calls it automatically.
func (e *Engine) SwitchTo(p core.Protocol) {
	if e.inner.Protocol() == p {
		return
	}
	e.epoch.Lock()
	if e.inner.Protocol() != p { // re-check under the barrier
		e.inner.SetProtocol(p)
		e.switches.Add(1)
	}
	e.epoch.Unlock()
}

// finished is called as each read-write transaction completes; every
// Window completions the conflict rate over the window is evaluated.
// Once a health monitor drives the policy (OnHealth), this becomes a
// no-op — two uncoordinated controllers would fight over the protocol.
func (e *Engine) finished() {
	if e.healthDriven.Load() {
		return
	}
	e.polMu.Lock()
	e.sinceEval++
	if e.sinceEval < e.opts.Window {
		e.polMu.Unlock()
		return
	}
	e.sinceEval = 0
	st := e.inner.Stats()
	commits := st["commits.rw"]
	conflicts := st["aborts.conflict"] + st["aborts.deadlock"] + st["aborts.wounded"]
	dCommits := commits - e.lastCommits
	dConflicts := conflicts - e.lastConflict
	e.lastCommits = commits
	e.lastConflict = conflicts
	e.polMu.Unlock()

	total := dCommits + dConflicts
	if total <= 0 {
		return
	}
	rate := float64(dConflicts) / float64(total)
	switch {
	case rate >= e.opts.HighWater && e.inner.Protocol() != core.TwoPhaseLocking:
		go e.SwitchTo(core.TwoPhaseLocking) // async: the caller still holds its epoch read lock
	case rate <= e.opts.LowWater && e.inner.Protocol() != core.Optimistic:
		go e.SwitchTo(core.Optimistic)
	}
}

// adaptiveTx wraps a read-write transaction to release the epoch read
// lock exactly once and feed the policy.
type adaptiveTx struct {
	engine.Tx
	e    *Engine
	done atomic.Bool
}

func (t *adaptiveTx) release() {
	if t.done.CompareAndSwap(false, true) {
		t.e.epoch.RUnlock()
		t.e.finished()
	}
}

// Commit implements engine.Tx. release is CAS-guarded, so calling it
// after an operation already released (internal abort) is harmless.
func (t *adaptiveTx) Commit() error {
	err := t.Tx.Commit()
	t.release()
	return err
}

// Abort implements engine.Tx.
func (t *adaptiveTx) Abort() {
	t.Tx.Abort()
	t.release()
}

// Get implements engine.Tx; an operation that aborts the transaction
// internally (conflict, deadlock victim) must also release the barrier.
func (t *adaptiveTx) Get(key string) ([]byte, error) {
	v, err := t.Tx.Get(key)
	if err != nil && engine.Retryable(err) {
		t.release()
	}
	return v, err
}

// Put implements engine.Tx.
func (t *adaptiveTx) Put(key string, value []byte) error {
	err := t.Tx.Put(key, value)
	if err != nil && engine.Retryable(err) {
		t.release()
	}
	return err
}

// Delete implements engine.Tx.
func (t *adaptiveTx) Delete(key string) error {
	err := t.Tx.Delete(key)
	if err != nil && engine.Retryable(err) {
		t.release()
	}
	return err
}
