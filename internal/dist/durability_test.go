package dist

import (
	"errors"
	"fmt"
	"testing"

	"mvdb/internal/engine"
	"mvdb/internal/history"
)

func newDurableCluster(t *testing.T, sites int, dir string, rec engine.Recorder) *Cluster {
	t.Helper()
	c, err := New(Options{Sites: sites, WALDir: dir, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestCrashRequiresDurability(t *testing.T) {
	c := newCluster(t, 2, nil)
	if err := c.CrashSite(0); err == nil {
		t.Fatal("CrashSite without WALDir succeeded")
	}
}

func TestCrashSiteValidation(t *testing.T) {
	c := newDurableCluster(t, 2, t.TempDir(), nil)
	if err := c.CrashSite(7); err == nil {
		t.Fatal("CrashSite(7) accepted")
	}
	if err := c.RecoverSite(0); err == nil {
		t.Fatal("RecoverSite of a healthy site accepted")
	}
}

func TestSiteCrashRecoveryPreservesState(t *testing.T) {
	rec := history.NewRecorder()
	c := newDurableCluster(t, 3, t.TempDir(), rec)
	k0 := keyAt(c, 0, "dur")
	k1 := keyAt(c, 1, "dur")
	if err := c.Bootstrap(map[string][]byte{k0: []byte("b0"), k1: []byte("b1")}); err != nil {
		t.Fatal(err)
	}

	// Cross-site transactions touching the soon-to-crash site 1.
	var lastTN uint64
	for i := 0; i < 5; i++ {
		tx, _ := c.Begin(engine.ReadWrite)
		if err := tx.Put(k0, []byte(fmt.Sprintf("v0-%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Put(k1, []byte(fmt.Sprintf("v1-%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		lastTN, _ = tx.(*DTx).SN()
	}
	preVTNC := c.sites[1].Engine().VTNC()

	if err := c.CrashSite(1); err != nil {
		t.Fatal(err)
	}
	if err := c.RecoverSite(1); err != nil {
		t.Fatal(err)
	}
	// Visibility resumed where it stood: recovery makes everything logged
	// visible at once and catches the site up to the high-water mark.
	if got := c.sites[1].Engine().VTNC(); got < preVTNC {
		t.Fatalf("recovered vtnc %d < pre-crash vtnc %d", got, preVTNC)
	}

	// The recovered site serves the same committed state.
	ro, _ := c.Begin(engine.ReadOnly)
	if v, err := ro.Get(k1); err != nil || string(v) != "v1-4" {
		t.Fatalf("recovered Get = (%q,%v), want v1-4", v, err)
	}
	if v, err := ro.Get(k0); err != nil || string(v) != "v0-4" {
		t.Fatalf("healthy-site Get = (%q,%v)", v, err)
	}
	ro.Commit()

	// Counters resumed: new transactions get numbers past everything.
	tx, _ := c.Begin(engine.ReadWrite)
	if err := tx.Put(k1, []byte("post-crash")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tn, _ := tx.(*DTx).SN()
	if tn <= lastTN {
		t.Fatalf("post-recovery tn %d <= pre-crash tn %d (number reuse!)", tn, lastTN)
	}

	// The complete cross-crash history is still one-copy serializable.
	if err := rec.Check(); err != nil {
		t.Fatal(err)
	}
	for _, s := range c.Sites() {
		if err := s.Engine().VC().CheckInvariants(); err != nil {
			t.Fatalf("site %d: %v", s.ID(), err)
		}
	}
}

func TestClusterRestartFromLogs(t *testing.T) {
	dir := t.TempDir()
	var k string
	var wantTN uint64
	{
		c := newDurableCluster(t, 2, dir, nil)
		k = keyAt(c, 1, "persist")
		if err := c.Bootstrap(map[string][]byte{k: []byte("orig")}); err != nil {
			t.Fatal(err)
		}
		tx, _ := c.Begin(engine.ReadWrite)
		if err := tx.Put(k, []byte("committed")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		wantTN, _ = tx.(*DTx).SN()
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// A brand-new cluster over the same directory resumes.
	c2 := newDurableCluster(t, 2, dir, nil)
	ro, _ := c2.Begin(engine.ReadOnly)
	if v, err := ro.Get(k); err != nil || string(v) != "committed" {
		t.Fatalf("restarted Get = (%q,%v)", v, err)
	}
	ro.Commit()
	tx, _ := c2.Begin(engine.ReadWrite)
	if err := tx.Put(k, []byte("after-restart")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if tn, _ := tx.(*DTx).SN(); tn <= wantTN {
		t.Fatalf("restart reused numbers: %d <= %d", tn, wantTN)
	}
}

// Bootstrap data is logged as version-0 records, and a key that is never
// written again must come back from them: after a site crash and after a
// restart of the whole cluster.
func TestBootstrapSurvivesCrashAndRestart(t *testing.T) {
	dir := t.TempDir()
	c := newDurableCluster(t, 2, dir, nil)
	boot := map[string][]byte{keyAt(c, 0, "boot"): []byte("b0"), keyAt(c, 1, "boot"): []byte("b1")}
	if err := c.Bootstrap(boot); err != nil {
		t.Fatal(err)
	}
	other := keyAt(c, 0, "other")
	tx, _ := c.Begin(engine.ReadWrite)
	if err := tx.Put(other, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	check := func(c *Cluster, when string) {
		t.Helper()
		ro, _ := c.Begin(engine.ReadOnly)
		defer ro.Commit()
		for k, want := range boot {
			if v, err := ro.Get(k); err != nil || string(v) != string(want) {
				t.Fatalf("%s: Get(%s) = (%q, %v), want %q", when, k, v, err, want)
			}
		}
	}
	if err := c.CrashSite(0); err != nil {
		t.Fatal(err)
	}
	if err := c.RecoverSite(0); err != nil {
		t.Fatal(err)
	}
	check(c, "after a site crash")
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	check(newDurableCluster(t, 2, dir, nil), "after a restart")
}

// A filler takes an idle site's horizon past its log, which then lets the
// other sites collect up to it. The recovered site must not resume below
// that: a snapshot anchored there would read versions already collected.
func TestRecoveredSiteResumesAtTheMark(t *testing.T) {
	c := newDurableCluster(t, 2, t.TempDir(), nil)
	k, idle := keyAt(c, 0, "hot"), keyAt(c, 1, "idle")
	if err := c.Bootstrap(map[string][]byte{k: []byte("v0"), idle: []byte("i")}); err != nil {
		t.Fatal(err)
	}
	put := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			tx, _ := c.Begin(engine.ReadWrite)
			if err := tx.Put(k, []byte("v")); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	put(20)
	ro, _ := c.Begin(engine.ReadOnly)
	if _, err := ro.Get(idle); err != nil { // a filler at site 1
		t.Fatal(err)
	}
	ro.Commit()
	put(100)
	if err := c.CrashSite(1); err != nil {
		t.Fatal(err)
	}
	if err := c.RecoverSite(1); err != nil {
		t.Fatal(err)
	}
	anchored, _ := c.BeginReadOnlyAtHome(1)
	defer anchored.Commit()
	if v, err := anchored.Get(k); err != nil || string(v) != "v" {
		t.Fatalf("anchored at the recovered site: Get = (%q, %v), want v", v, err)
	}
}

func TestCrashedSiteTombstonesSurvive(t *testing.T) {
	c := newDurableCluster(t, 2, t.TempDir(), nil)
	k := keyAt(c, 0, "tomb")
	c.Bootstrap(map[string][]byte{k: []byte("x")})
	tx, _ := c.Begin(engine.ReadWrite)
	if err := tx.Delete(k); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := c.CrashSite(0); err != nil {
		t.Fatal(err)
	}
	if err := c.RecoverSite(0); err != nil {
		t.Fatal(err)
	}
	ro, _ := c.Begin(engine.ReadOnly)
	if _, err := ro.Get(k); !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("tombstone lost across crash: err = %v", err)
	}
	ro.Commit()
}
