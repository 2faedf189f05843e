package gc

import (
	"fmt"
	"sync"
	"testing"

	"mvdb/internal/core"
	"mvdb/internal/engine"
)

func fill(t *testing.T, e *core.Engine, key string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		tx, err := e.Begin(engine.ReadWrite)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Put(key, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCollectPrunesOldVersions(t *testing.T) {
	e := core.New(core.Options{Protocol: core.TwoPhaseLocking})
	defer e.Close()
	fill(t, e, "k", 1)
	// An open snapshot keeps the installs from collecting.
	held, _ := e.Begin(engine.ReadOnly)
	fill(t, e, "k", 49)
	held.Commit()
	if got := e.Stats().Versions; got != 50 {
		t.Fatalf("versions before GC = %d, want 50", got)
	}
	c := New(e, 0)
	pruned := c.Collect()
	if pruned != 49 {
		t.Fatalf("pruned = %d, want 49", pruned)
	}
	if got := e.Stats().Versions; got != 1 {
		t.Fatalf("versions after GC = %d, want 1", got)
	}
	// The surviving version is still readable.
	ro, _ := e.Begin(engine.ReadOnly)
	v, err := ro.Get("k")
	if err != nil || string(v) != "v48" {
		t.Fatalf("Get = (%q,%v), want v48", v, err)
	}
	ro.Commit()
}

// An active read-only transaction holds the watermark back: versions it
// can reach must survive (paper Section 6 refined).
func TestActiveReadOnlyHoldsWatermark(t *testing.T) {
	e := core.New(core.Options{Protocol: core.TwoPhaseLocking})
	defer e.Close()
	fill(t, e, "k", 10)
	ro, _ := e.Begin(engine.ReadOnly) // snapshot at version 10
	fill(t, e, "k", 10)               // versions 11..20

	c := New(e, 0)
	c.Collect()
	// Watermark = ro's sn (10): versions 10..20 survive (plus none below).
	if got := e.Store().Get("k").VersionCount(); got != 11 {
		t.Fatalf("versions = %d, want 11", got)
	}
	if v, err := ro.Get("k"); err != nil || string(v) != "v9" {
		t.Fatalf("old snapshot Get = (%q,%v), want v9", v, err)
	}
	ro.Commit()
	c.Collect()
	if got := e.Store().Get("k").VersionCount(); got != 1 {
		t.Fatalf("versions after release = %d, want 1", got)
	}
}

func TestWatermarkUsesMinOfVTNCAndRO(t *testing.T) {
	e := core.New(core.Options{Protocol: core.TwoPhaseLocking})
	defer e.Close()
	fill(t, e, "k", 5)
	c := New(e, 0)
	if w := c.Watermark(); w != 5 {
		t.Fatalf("watermark = %d, want 5 (vtnc)", w)
	}
	ro, _ := e.Begin(engine.ReadOnly)
	fill(t, e, "k", 3)
	if w := c.Watermark(); w != 5 {
		t.Fatalf("watermark = %d, want 5 (held by ro)", w)
	}
	ro.Commit()
	if w := c.Watermark(); w != 8 {
		t.Fatalf("watermark = %d, want 8", w)
	}
}

// GC under concurrent load must never break snapshot reads: a pass
// loop and the installs of a writer both collect while readers begin.
func TestGCConcurrentWithReaders(t *testing.T) {
	e := core.New(core.Options{Protocol: core.TwoPhaseLocking})
	defer e.Close()
	fill(t, e, "k", 1)
	c := New(e, 0)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				c.Collect()
			}
		}
	}()
	go func() {
		defer close(done)
		for i := 0; i < 300; i++ {
			tx, _ := e.Begin(engine.ReadWrite)
			tx.Put("k", []byte(fmt.Sprintf("v%d", i)))
			tx.Commit()
		}
	}()
	defer wg.Wait()
	for {
		select {
		case <-done:
			return
		default:
		}
		ro, _ := e.Begin(engine.ReadOnly)
		if _, err := ro.Get("k"); err != nil {
			t.Fatalf("snapshot read failed under GC: %v", err)
		}
		ro.Commit()
	}
}
