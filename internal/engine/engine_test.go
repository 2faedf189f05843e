package engine

import (
	"errors"
	"fmt"
	"testing"
)

func TestRetryable(t *testing.T) {
	for _, err := range []error{ErrConflict, ErrDeadlock} {
		if !Retryable(err) {
			t.Errorf("Retryable(%v) = false", err)
		}
		if !Retryable(fmt.Errorf("wrapped: %w", err)) {
			t.Errorf("Retryable(wrapped %v) = false", err)
		}
	}
	for _, err := range []error{ErrNotFound, ErrReadOnly, ErrTxDone, ErrSnapshotTooOld, nil, errors.New("other")} {
		if Retryable(err) {
			t.Errorf("Retryable(%v) = true", err)
		}
	}
}

func TestClassString(t *testing.T) {
	if ReadOnly.String() != "read-only" || ReadWrite.String() != "read-write" {
		t.Fatalf("class strings: %q %q", ReadOnly, ReadWrite)
	}
}

func TestNopRecorderIsInert(t *testing.T) {
	var r Recorder = NopRecorder{}
	r.RecordBegin(1, ReadWrite)
	r.RecordRead(1, "k", 0)
	r.RecordWrite(1, "k", 1)
	r.RecordCommit(1, 1)
	r.RecordAbort(2)
	r.RecordSnapshot(3, 1)
	r.RecordParked(3, true)
}

// countingRecorder counts calls for Multi fan-out checks.
type countingRecorder struct{ begins, reads, writes, commits, aborts, snaps, parks int }

func (c *countingRecorder) RecordBegin(uint64, Class)          { c.begins++ }
func (c *countingRecorder) RecordRead(uint64, string, uint64)  { c.reads++ }
func (c *countingRecorder) RecordWrite(uint64, string, uint64) { c.writes++ }
func (c *countingRecorder) RecordCommit(uint64, uint64)        { c.commits++ }
func (c *countingRecorder) RecordAbort(uint64)                 { c.aborts++ }
func (c *countingRecorder) RecordSnapshot(uint64, uint64)      { c.snaps++ }
func (c *countingRecorder) RecordParked(uint64, bool)          { c.parks++ }

func TestMultiCollapses(t *testing.T) {
	if _, ok := Multi().(NopRecorder); !ok {
		t.Fatal("Multi() should collapse to NopRecorder")
	}
	if _, ok := Multi(nil, nil).(NopRecorder); !ok {
		t.Fatal("Multi(nil, nil) should collapse to NopRecorder")
	}
	if _, ok := Multi(NopRecorder{}, nil).(NopRecorder); !ok {
		t.Fatal("Multi(nop, nil) should collapse to NopRecorder")
	}
	c := &countingRecorder{}
	if got := Multi(nil, c, NopRecorder{}); got != Recorder(c) {
		t.Fatalf("Multi with one live recorder should return it unchanged, got %T", got)
	}
}

func TestMultiFansOut(t *testing.T) {
	a, b := &countingRecorder{}, &countingRecorder{}
	m := Multi(a, nil, b)
	m.RecordBegin(1, ReadWrite)
	m.RecordRead(1, "k", 0)
	m.RecordWrite(1, "k", 2)
	m.RecordCommit(1, 2)
	m.RecordAbort(3)
	m.RecordSnapshot(4, 2)
	m.RecordParked(1, true)
	m.RecordParked(1, false)
	for i, r := range []*countingRecorder{a, b} {
		if r.begins != 1 || r.reads != 1 || r.writes != 1 || r.commits != 1 || r.aborts != 1 || r.snaps != 1 || r.parks != 2 {
			t.Fatalf("recorder %d saw %+v", i, *r)
		}
	}
}

// The retry loops call Backoff on every attempt; it must cost no
// allocation, sleeping or not.
func TestBackoffAllocatesNothing(t *testing.T) {
	for _, attempt := range []int{0, 1, 2, 9, 99, 100} {
		if n := testing.AllocsPerRun(20, func() { Backoff(attempt) }); n != 0 {
			t.Errorf("Backoff(%d) allocates %.0f times", attempt, n)
		}
	}
}

// Backoff holds the retry budget both Update loops share: it lets the
// last attempt of the budget run and refuses the next one.
func TestBackoffSpendsTheBudget(t *testing.T) {
	if !Backoff(maxAttempts-1) || Backoff(maxAttempts) {
		t.Fatalf("Backoff(%d), Backoff(%d) = %v, %v; want true, false",
			maxAttempts-1, maxAttempts, Backoff(maxAttempts-1), Backoff(maxAttempts))
	}
}
