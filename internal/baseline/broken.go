package baseline

import (
	"mvdb/internal/core"
	"mvdb/internal/engine"
)

// Deliberately broken engines, built from the core engine's unsafe
// ablation flags (core.Options). They exist so the online auditor
// (internal/audit) and the offline checker (internal/history) can be
// shown to catch real serializability violations, not just pass clean
// histories: schedtest's TestBrokenBaselinesAlarm and audit's
// TestLiveAlarmOn* run them expecting an MVSG-cycle alarm.

// NewBrokenEarlyRegister returns a 2PL engine with ablation A1: it
// registers read-write transactions with version control at begin
// instead of at the lock-point, so the serialization order no longer
// matches the synchronization order and cycles appear in the MVSG.
func NewBrokenEarlyRegister(rec engine.Recorder) engine.Engine {
	return brokenEngine{core.New(core.Options{
		Protocol:               core.TwoPhaseLocking,
		Recorder:               rec,
		UnsafeEarlyRegister2PL: true,
	}), "broken-early-register"}
}

// NewBrokenEagerVisibility returns a T/O engine with ablation A2: vtnc
// advances in completion order rather than serialization order,
// violating the Transaction Visibility Property, so snapshot readers
// can observe inconsistent states.
func NewBrokenEagerVisibility(rec engine.Recorder) engine.Engine {
	return brokenEngine{core.New(core.Options{
		Protocol:              core.TimestampOrdering,
		Recorder:              rec,
		UnsafeEagerVisibility: true,
	}), "broken-eager-visibility"}
}

// brokenEngine renames the wrapped engine so reports cannot confuse an
// ablated engine with the correct protocol of the same name. Embedding
// the concrete engine keeps Bootstrap and the rest of the core surface.
type brokenEngine struct {
	*core.Engine
	name string
}

func (b brokenEngine) Name() string { return b.name }
