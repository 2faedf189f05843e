// The knob controller: the second half of the adaptive loop. Protocol
// switching (adaptive.go) picks WHICH concurrency control runs; the
// knob controller tunes HOW the rest of the engine runs — WAL
// group-commit batching and the epoch publisher's coalescing — using
// the same health Signal.
//
// Policy shape: every knob is a small ladder stepped at most one rung
// per health tick, so a noisy interval can nudge but never slam the
// engine, and every step is recorded as an EvKnob trace event — the
// decision history is replayable from the ring.
package adaptive

import (
	"fmt"
	"time"

	"mvdb/internal/health"
	"mvdb/internal/obs"
)

// WALKnobs is the group-commit surface the controller tunes.
// *wal.Writer satisfies it.
type WALKnobs interface {
	SetBatchKnobs(maxRecords int, maxDelay time.Duration)
	BatchKnobs() (maxRecords int, maxDelay time.Duration)
}

// EpochKnobs is the epoch publisher's coalescing surface.
// *epoch.Controller satisfies it.
type EpochKnobs interface {
	SetPublishEvery(n int)
	PublishEvery() int
}

// Knob-policy thresholds. Exported nowhere: they are the controller's
// opinion, and EXPERIMENTS.md O7 is where that opinion is audited.
const (
	// knobMinCommitRate is the read-write commit rate (per second) below
	// which batching knobs never step up — batching a trickle only adds
	// latency.
	knobMinCommitRate = 100.0
	// knobFsyncHigh: above this fsyncs-per-commit ratio the group
	// committer is absorbing too little — step the batch window up.
	knobFsyncHigh = 0.6
	// knobFsyncLow: below this the window is already more than wide
	// enough — step back down and return the latency.
	knobFsyncLow = 0.1
	// knobLagHigh is the visibility lag (tn - vtnc) above which the
	// epoch publisher must stop coalescing entirely.
	knobLagHigh = 64
	// knobLagLow is the lag at or below which coalescing may increase.
	knobLagLow = 8
	// knobPublishCap bounds the publish-coalescing factor.
	knobPublishCap = 8
)

// walDelayLadder is the batch-window schedule, stepped one rung per
// decision; walRecordsLadder scales the record cap in lockstep so a
// wider window can actually fill.
var (
	walDelayLadder   = []time.Duration{0, 200 * time.Microsecond, 500 * time.Microsecond, time.Millisecond}
	walRecordsLadder = []int{32, 64, 128, 256}
)

// recordKnob counts one knob decision and drops it in the event ring:
// Key is "knob=value", N the new numeric value, Dur the previous one.
func (e *Engine) recordKnob(name, value string, prev, cur int64) {
	e.knobActions.Add(1)
	e.opts.Ring.Record(obs.Event{
		Type: obs.EvKnob,
		Key:  name + "=" + value,
		Dur:  prev,
		N:    cur,
	})
}

// evalKnobs is the knob controller's decision function, run once per
// well-sampled health tick on the monitor's goroutine. Each knob moves
// at most one step per call.
func (e *Engine) evalKnobs(sig health.Signal) {
	p := sig.Point
	if w := e.opts.WAL; w != nil {
		e.evalWAL(w, p)
	}
	if ep := e.opts.Epoch; ep != nil {
		e.evalEpoch(ep, p)
	}
}

// evalWAL steps the group-commit window along the delay ladder: up when
// commits are fsync-bound at volume, down when the window is wider than
// the workload needs (or traffic died away — no reason to hold commits
// hostage to a batch that will never fill).
func (e *Engine) evalWAL(w WALKnobs, p health.Point) {
	_, curDelay := w.BatchKnobs()
	rung := 0
	for i, d := range walDelayLadder {
		if curDelay >= d {
			rung = i
		}
	}
	next := rung
	switch {
	case p.FsyncPerCommit > knobFsyncHigh && p.CommitRateRW >= knobMinCommitRate:
		next = rung + 1
	case p.FsyncPerCommit < knobFsyncLow || p.CommitRateRW < knobMinCommitRate/10:
		next = rung - 1
	}
	if next < 0 {
		next = 0
	}
	if next >= len(walDelayLadder) {
		next = len(walDelayLadder) - 1
	}
	if next == rung {
		return
	}
	d := walDelayLadder[next]
	w.SetBatchKnobs(walRecordsLadder[next], d)
	e.recordKnob("wal.batch_delay", d.String(), curDelay.Nanoseconds(), d.Nanoseconds())
}

// evalEpoch tunes the epoch publisher's coalescing: any sign of
// visibility lag kills coalescing outright (visibility is correctness-
// adjacent; cheapness is not worth a stale horizon), and only a busy,
// low-lag engine earns a doubling.
func (e *Engine) evalEpoch(ep EpochKnobs, p health.Point) {
	cur := ep.PublishEvery()
	next := cur
	switch {
	case p.VisibilityLag > knobLagHigh:
		next = 1
	case p.CommitRateRW >= knobMinCommitRate && p.VisibilityLag <= knobLagLow && cur < knobPublishCap:
		next = cur * 2
	}
	if next == cur {
		return
	}
	ep.SetPublishEvery(next)
	e.recordKnob("epoch.publish_every", fmt.Sprintf("%d", next), int64(cur), int64(next))
}

// KnobActions returns how many knob decisions the controller has made.
func (e *Engine) KnobActions() uint64 { return e.knobActions.Load() }
