package adaptive

import (
	"testing"
	"time"

	"mvdb/internal/health"
)

type fakeWAL struct {
	recs  int
	delay time.Duration
}

func (f *fakeWAL) SetBatchKnobs(recs int, d time.Duration) { f.recs, f.delay = recs, d }
func (f *fakeWAL) BatchKnobs() (int, time.Duration)        { return f.recs, f.delay }

type fakeEpoch struct{ n int }

func (f *fakeEpoch) SetPublishEvery(n int) { f.n = n }
func (f *fakeEpoch) PublishEvery() int {
	if f.n < 1 {
		return 1
	}
	return f.n
}

func signal(fsyncPerCommit, commitRate float64, lag uint64) health.Signal {
	return health.Signal{Point: health.Point{
		Ops:            1000,
		FsyncPerCommit: fsyncPerCommit,
		CommitRateRW:   commitRate,
		VisibilityLag:  lag,
	}}
}

func TestKnobWALLadder(t *testing.T) {
	w := &fakeWAL{recs: 32}
	e := New(Options{})
	defer e.Close()
	e.opts.WAL = w

	// Fsync-bound at volume: one rung per tick, up to the ladder top.
	for i, want := range []time.Duration{200 * time.Microsecond, 500 * time.Microsecond, time.Millisecond, time.Millisecond} {
		e.evalKnobs(signal(1.0, 500, 0))
		if w.delay != want {
			t.Fatalf("tick %d: delay = %v, want %v", i, w.delay, want)
		}
	}
	if w.recs != 256 {
		t.Fatalf("records = %d, want 256 at ladder top", w.recs)
	}
	if got := e.KnobActions(); got != 3 {
		t.Fatalf("KnobActions = %d, want 3 (top rung is not a decision)", got)
	}

	// Batching saturated (almost no fsyncs per commit): step back down.
	e.evalKnobs(signal(0.05, 500, 0))
	if w.delay != 500*time.Microsecond {
		t.Fatalf("delay after step-down = %v, want 500µs", w.delay)
	}

	// Traffic died: keep stepping down to zero.
	for i := 0; i < 3; i++ {
		e.evalKnobs(signal(0.5, 1, 0))
	}
	if w.delay != 0 {
		t.Fatalf("delay after idle = %v, want 0", w.delay)
	}
}

func TestKnobEpochCoalescing(t *testing.T) {
	ep := &fakeEpoch{}
	e := New(Options{})
	defer e.Close()
	e.opts.Epoch = ep

	// Busy + low lag: doubles up to the cap.
	for _, want := range []int{2, 4, 8, 8} {
		e.evalKnobs(signal(0, 500, 0))
		if ep.PublishEvery() != want {
			t.Fatalf("publishEvery = %d, want %d", ep.PublishEvery(), want)
		}
	}

	// Any real lag kills coalescing in one step.
	e.evalKnobs(signal(0, 500, 100))
	if ep.PublishEvery() != 1 {
		t.Fatalf("publishEvery under lag = %d, want 1", ep.PublishEvery())
	}
}
