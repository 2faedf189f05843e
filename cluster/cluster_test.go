package cluster

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mvdb"
	"mvdb/internal/wal"
)

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Sites=0 accepted")
	}
}

func TestUpdateViewRoundTrip(t *testing.T) {
	c, err := Open(Options{Sites: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Update(func(tx *Tx) error {
		for i := 0; i < 10; i++ {
			if err := tx.Put(fmt.Sprintf("k%d", i), []byte{byte(i)}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// All ten writes landed atomically; BeginReadOnlyAtHome anywhere must
	// see either all of this transaction or none — anchor at each site.
	for home := 0; home < 3; home++ {
		tx, err := c.BeginReadOnlyAtHome(home)
		if err != nil {
			t.Fatal(err)
		}
		seen := 0
		if err := tx.Scan("k", func(string, []byte) bool { seen++; return true }); err != nil {
			t.Fatal(err)
		}
		tx.Commit()
		if seen != 0 && seen != 10 {
			t.Fatalf("home %d: torn cross-site commit: saw %d of 10", home, seen)
		}
	}

	// A view anchored at a site the transaction touched sees everything.
	anyKeySite := c.SiteOf("k0")
	tx, _ := c.BeginReadOnlyAtHome(anyKeySite)
	n := 0
	tx.Scan("k", func(string, []byte) bool { n++; return true })
	tx.Commit()
	if n != 10 {
		t.Fatalf("anchored view saw %d of 10", n)
	}
}

func TestViewErrorPropagates(t *testing.T) {
	c, _ := Open(Options{Sites: 2})
	defer c.Close()
	sentinel := errors.New("nope")
	if err := c.View(func(*Tx) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
}

// A panic in Update's or View's fn aborts the transaction. A panicking
// Update must give back its part's X lock, or the next Update of the key
// times out on it; a panicking View must leave the snapshot registry,
// or its global snapshot holds collection at every site.
func TestPanicInFnAbortsTheTransaction(t *testing.T) {
	c, err := Open(Options{Sites: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var keys []string // one key at each site
	for i := 0; len(keys) < 2; i++ {
		if k := fmt.Sprintf("k%d", i); c.SiteOf(k) == len(keys) {
			keys = append(keys, k)
		}
	}
	put := func(v string) error {
		return c.Update(func(tx *Tx) error {
			for _, k := range keys {
				if err := tx.Put(k, []byte(v)); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err := put("v0"); err != nil {
		t.Fatal(err)
	}
	mustPanic := func(what string, run func()) {
		t.Helper()
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("%s: recovered %v, want the panic of fn", what, r)
			}
		}()
		run()
	}
	mustPanic("Update", func() {
		c.Update(func(tx *Tx) error {
			if err := tx.Put(keys[0], []byte("lost")); err != nil {
				return err
			}
			panic("boom")
		})
	})
	if err := put("after-update"); err != nil {
		t.Fatalf("Update after a panicking Update: %v", err)
	}

	mustPanic("View", func() {
		c.View(func(tx *Tx) error {
			tx.Get(keys[0])
			panic("boom")
		})
	})
	for i := 1; i <= 100; i++ {
		if err := put(fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// An install collects when it finds the chain's array full, which is
	// at most as many commits away as the chain is long.
	o := c.c.Sites()[0].Engine().Store().Get(keys[0])
	for i, n := 0, o.VersionCount(); i < n && o.VersionCount() > 2; i++ {
		if err := put("after-view"); err != nil {
			t.Fatal(err)
		}
	}
	if n := o.VersionCount(); n > 2 {
		t.Fatalf("chain holds %d versions after a panicking View, want <= 2", n)
	}
}

func TestBootstrapAndStats(t *testing.T) {
	c, _ := Open(Options{Sites: 2})
	defer c.Close()
	if err := c.Bootstrap(map[string][]byte{"a": []byte("1")}); err != nil {
		t.Fatal(err)
	}
	if err := c.View(func(tx *Tx) error {
		v, err := tx.Get("a")
		if err != nil || string(v) != "1" {
			return fmt.Errorf("got (%q,%v)", v, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st["commits.ro"] != 1 {
		t.Fatalf("stats = %v", st)
	}
	if st["bus.messages"] == 0 {
		t.Fatal("no bus messages counted")
	}
}

func TestConcurrentUpdatesConserve(t *testing.T) {
	c, _ := Open(Options{Sites: 3})
	defer c.Close()
	const n = 10
	boot := map[string][]byte{}
	for i := 0; i < n; i++ {
		boot[fmt.Sprintf("acct%d", i)] = []byte{100}
	}
	c.Bootstrap(boot)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				from := fmt.Sprintf("acct%d", (w+i)%n)
				to := fmt.Sprintf("acct%d", (w+i+1)%n)
				err := c.Update(func(tx *Tx) error {
					fv, err := tx.Get(from)
					if err != nil {
						return err
					}
					if fv[0] == 0 {
						return nil
					}
					tv, err := tx.Get(to)
					if err != nil {
						return err
					}
					if err := tx.Put(from, []byte{fv[0] - 1}); err != nil {
						return err
					}
					return tx.Put(to, []byte{tv[0] + 1})
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	total := 0
	c.View(func(tx *Tx) error {
		return tx.Scan("acct", func(_ string, v []byte) bool {
			total += int(v[0])
			return true
		})
	})
	if total != n*100 {
		t.Fatalf("total = %d, want %d", total, n*100)
	}
}

func TestScanRequiresReadOnly(t *testing.T) {
	c, _ := Open(Options{Sites: 1})
	defer c.Close()
	tx, _ := c.Begin()
	err := tx.Scan("x", func(string, []byte) bool { return true })
	if !errors.Is(err, mvdb.ErrReadOnly) {
		t.Fatalf("err = %v", err)
	}
	tx.Abort()
}

// A commit the cluster acknowledges is on disk at once: the owning site's
// log holds its record while the cluster is still open.
func TestAcknowledgedCommitIsOnDisk(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(Options{Sites: 2, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Update(func(tx *Tx) error { return tx.Put("k", []byte("v")) }); err != nil {
		t.Fatal(err)
	}
	found := false
	path := filepath.Join(dir, fmt.Sprintf("site-%d.log", c.SiteOf("k")))
	if _, err := wal.Replay(path, func(r wal.Record) error {
		for _, w := range r.Writes {
			found = found || (w.Key == "k" && string(w.Value) == "v")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatalf("acknowledged commit is not in %s", path)
	}
}

func TestDurableClusterCrashRecovery(t *testing.T) {
	c, err := Open(Options{Sites: 2, WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Update(func(tx *Tx) error { return tx.Put("k", []byte("v")) }); err != nil {
		t.Fatal(err)
	}
	site := c.SiteOf("k")
	if err := c.CrashSite(site); err != nil {
		t.Fatal(err)
	}
	if err := c.RecoverSite(site); err != nil {
		t.Fatal(err)
	}
	var got string
	if err := c.View(func(tx *Tx) error {
		v, err := tx.Get("k")
		got = string(v)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got != "v" {
		t.Fatalf("got %q", got)
	}
}

// A crashed site refuses work until RecoverSite: every call that reaches
// it fails with an error that is not retryable, and a read-write
// transaction that fails there gives back its part at the live site.
// Stats reports on the live sites. A closed cluster refuses an anchored
// snapshot as it refuses Begin.
func TestCrashedSiteRefusesWork(t *testing.T) {
	c, err := Open(Options{Sites: 2, WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var keys []string // one key at each site
	for i := 0; len(keys) < 2; i++ {
		if k := fmt.Sprintf("k%d", i); c.SiteOf(k) == len(keys) {
			keys = append(keys, k)
		}
	}
	if err := c.Bootstrap(map[string][]byte{keys[0]: []byte("0"), keys[1]: []byte("1")}); err != nil {
		t.Fatal(err)
	}
	if err := c.CrashSite(1); err != nil {
		t.Fatal(err)
	}
	down := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "site 1 is down") || mvdb.IsRetryable(err) {
			t.Errorf("%s: err = %v, want a non-retryable \"site 1 is down\"", what, err)
		}
	}

	if n := c.Stats()["commits.rw"]; n != 0 {
		t.Errorf("Stats: %d read-write commits, want 0", n)
	}
	down("View Get", c.View(func(tx *Tx) error {
		_, err := tx.Get(keys[1])
		return err
	}))
	down("View Scan", c.View(func(tx *Tx) error {
		return tx.Scan("k", func(string, []byte) bool { return true })
	}))
	down("Update Put", c.Update(func(tx *Tx) error {
		if err := tx.Put(keys[0], []byte("lost")); err != nil {
			return err
		}
		return tx.Put(keys[1], []byte("lost"))
	}))
	_, err = c.BeginReadOnlyAtHome(1)
	down("BeginReadOnlyAtHome", err)

	// The failed Update gave back its lock at site 0: a new transaction
	// takes it without waiting out a lock timeout.
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(keys[0], []byte("v")); err != nil {
		t.Fatalf("Put at the live site after the failed Update: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	if err := c.RecoverSite(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Update(func(tx *Tx) error { return tx.Put(keys[1], []byte("v")) }); err != nil {
		t.Fatalf("Update after RecoverSite: %v", err)
	}
	if err := c.View(func(tx *Tx) error {
		for _, k := range keys {
			if v, err := tx.Get(k); err != nil || string(v) != "v" {
				return fmt.Errorf("%s = (%q, %v), want v", k, v, err)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	closed, _ := Open(Options{Sites: 1})
	closed.Close()
	if _, err := closed.BeginReadOnlyAtHome(0); err == nil {
		t.Error("BeginReadOnlyAtHome on a closed cluster succeeded")
	}
}
