package dist

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"mvdb/internal/engine"
	"mvdb/internal/history"
)

func newCluster(t *testing.T, sites int, rec engine.Recorder) *Cluster {
	t.Helper()
	c, err := New(Options{Sites: sites, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// keyAt constructs a key that partitions to the wanted site (brute-force
// over a suffix; deterministic given the default partitioner).
func keyAt(c *Cluster, site int, hint string) string {
	for i := 0; ; i++ {
		k := fmt.Sprintf("%s-%d", hint, i)
		if c.opts.Partition(k) == site {
			return k
		}
	}
}

func TestSingleSiteBasics(t *testing.T) {
	c := newCluster(t, 1, nil)
	tx, _ := c.Begin(engine.ReadWrite)
	if err := tx.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	ro, _ := c.Begin(engine.ReadOnly)
	if v, err := ro.Get("a"); err != nil || string(v) != "1" {
		t.Fatalf("Get = (%q,%v)", v, err)
	}
	ro.Commit()
}

func TestCrossSiteTransactionSameTNEverywhere(t *testing.T) {
	c := newCluster(t, 3, nil)
	kA := keyAt(c, 0, "a")
	kB := keyAt(c, 2, "b")

	tx, _ := c.Begin(engine.ReadWrite)
	if err := tx.Put(kA, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(kB, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tn, ok := tx.(*DTx).SN()
	if !ok {
		t.Fatal("committed DTx has no tn")
	}
	vA := c.sites[0].Engine().Store().Get(kA).Versions()
	vB := c.sites[2].Engine().Store().Get(kB).Versions()
	if len(vA) != 1 || len(vB) != 1 || vA[0].TN != tn || vB[0].TN != tn {
		t.Fatalf("versions: A=%+v B=%+v, want both tn=%d", vA, vB, tn)
	}
}

func TestLocalNumbersAreDisjointAcrossSites(t *testing.T) {
	c := newCluster(t, 4, nil)
	seen := map[uint64]int{}
	for site := 0; site < 4; site++ {
		for i := 0; i < 5; i++ {
			k := keyAt(c, site, fmt.Sprintf("s%d-%d", site, i))
			tx, _ := c.Begin(engine.ReadWrite)
			if err := tx.Put(k, []byte("v")); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			tn, _ := tx.(*DTx).SN()
			if other, dup := seen[tn]; dup {
				t.Fatalf("tn %d assigned at sites %d and %d", tn, other, site)
			}
			seen[tn] = site
		}
	}
}

// A read-only transaction needs NO a-priori knowledge of its read sites:
// it fixes sn at its home site and lagging sites catch up via fillers.
func TestReadOnlyNoAPrioriSites(t *testing.T) {
	c := newCluster(t, 3, nil)
	k0 := keyAt(c, 0, "home")
	k2 := keyAt(c, 2, "remote")
	if err := c.Bootstrap(map[string][]byte{k0: []byte("h0"), k2: []byte("r0")}); err != nil {
		t.Fatal(err)
	}

	// Drive site 0 forward so its vtnc outruns idle site 2.
	for i := 0; i < 5; i++ {
		tx, _ := c.Begin(engine.ReadWrite)
		if err := tx.Put(k0, []byte(fmt.Sprintf("h%d", i+1))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if c.sites[0].Engine().VTNC() <= c.sites[2].Engine().VTNC() {
		t.Fatal("test setup: site 0 not ahead")
	}

	ro, err := c.BeginReadOnlyAtHome(0)
	if err != nil {
		t.Fatal(err)
	}
	// The remote site was never named in advance; the read must succeed
	// and observe a consistent snapshot.
	if v, err := ro.Get(k2); err != nil || string(v) != "r0" {
		t.Fatalf("remote Get = (%q,%v)", v, err)
	}
	if v, err := ro.Get(k0); err != nil || string(v) != "h5" {
		t.Fatalf("home Get = (%q,%v), want h5", v, err)
	}
	ro.Commit()
	if c.sites[2].Fillers() == 0 {
		t.Fatal("expected a filler registration at the lagging site")
	}
	if c.Stats().RecencyWaits == 0 {
		t.Fatal("RecencyWaits not counted")
	}
}

// A lagging site with an ACTIVE older transaction makes the read-only
// transaction wait (not skip): visibility must not jump over it. The
// wait is a park at the site under the reader's global id, which the
// cluster's recorder hears, and the older part's commit wakes it.
func TestReadOnlyWaitsForActiveOlderTxnAtRemoteSite(t *testing.T) {
	// Room for the park and the wake, and for any stray event the test
	// then reports, so a site never blocks in RecordParked.
	rec := parkLog{events: make(chan parkEvent, 4)}
	c := newCluster(t, 2, rec)
	k0 := keyAt(c, 0, "a")
	k1 := keyAt(c, 1, "b")
	c.Bootstrap(map[string][]byte{k0: []byte("0"), k1: []byte("0")})

	// Hold a part at site 1 between its adoption and its commit, the way
	// a distributed transaction's part waits for its coordinator.
	s1 := c.sites[1]
	older, err := s1.Engine().BeginSite(c.ids.Add(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := older.Put(k1, []byte("older")); err != nil {
		t.Fatal(err)
	}
	s1.gate.Lock()
	err = s1.Engine().Adopt(older, s1.Engine().Vote())
	s1.gate.Unlock()
	if err != nil {
		t.Fatal(err)
	}

	// Advance site 0 well past site 1.
	for i := 0; i < 4; i++ {
		tx, _ := c.Begin(engine.ReadWrite)
		tx.Put(k0, []byte("x"))
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	ro, _ := c.BeginReadOnlyAtHome(0)
	got := make(chan string)
	go func() {
		v, _ := ro.Get(k1)
		ro.Commit()
		got <- string(v)
	}()
	rec.hear(t, parkEvent{ro.ID(), true})
	select {
	case v := <-got:
		t.Fatalf("read-only returned %q although an older txn was active at site 1", v)
	default:
	}
	if err := older.Commit(); err != nil {
		t.Fatal(err)
	}
	rec.hear(t, parkEvent{ro.ID(), false})
	select {
	case v := <-got:
		if v != "older" {
			t.Fatalf("read-only read %q, want the older transaction's write", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("read-only never unblocked")
	}
	rec.heardAll(t)
}

func TestBusLatencyAndMessages(t *testing.T) {
	c, err := New(Options{Sites: 2, Latency: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	k0, k1 := keyAt(c, 0, "m"), keyAt(c, 1, "m")
	start := time.Now()
	tx, _ := c.Begin(engine.ReadWrite)
	tx.Put(k0, []byte("1"))
	tx.Put(k1, []byte("2"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// 2 writes + 2 prepares + 2 adopts + 2 installs = 8 exchanges minimum.
	if got := c.Bus().Messages(); got < 8 {
		t.Fatalf("messages = %d, want >= 8", got)
	}
	if elapsed := time.Since(start); elapsed < 16*time.Millisecond {
		t.Fatalf("elapsed %v; latency not simulated", elapsed)
	}
}

func TestAbortReleasesEverything(t *testing.T) {
	c := newCluster(t, 2, nil)
	k := keyAt(c, 1, "k")
	tx, _ := c.Begin(engine.ReadWrite)
	if err := tx.Put(k, []byte("x")); err != nil {
		t.Fatal(err)
	}
	tx.Abort()

	tx2, _ := c.Begin(engine.ReadWrite)
	if err := tx2.Put(k, []byte("y")); err != nil {
		t.Fatalf("lock leaked after abort: %v", err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	// A snapshot anchored at the writing site sees the committed value
	// (a snapshot from idle site 0 would be consistent-but-stale: its
	// vtnc never advanced, which is exactly the delayed-visibility
	// trade-off of Section 6).
	ro, _ := c.BeginReadOnlyAtHome(1)
	if v, err := ro.Get(k); err != nil || string(v) != "y" {
		t.Fatalf("Get = (%q,%v)", v, err)
	}
	ro.Commit()
}

func TestLockConflictTimesOutAndRetries(t *testing.T) {
	c, err := New(Options{Sites: 2, LockTimeout: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	k := keyAt(c, 0, "hot")

	t1, _ := c.Begin(engine.ReadWrite)
	if err := t1.Put(k, []byte("held")); err != nil {
		t.Fatal(err)
	}
	t2, _ := c.Begin(engine.ReadWrite)
	if err := t2.Put(k, []byte("blocked")); !errors.Is(err, engine.ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock (timeout)", err)
	}
	if st := c.Stats(); st.AbortsTimeout != 1 || st.AbortsTotal() != 1 {
		t.Fatalf("aborts: timeout %d, total %d; want 1 and 1", st.AbortsTimeout, st.AbortsTotal())
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
}

// parkLog is a recorder that hears only park events.
type parkLog struct {
	engine.NopRecorder
	events chan parkEvent
}

type parkEvent struct {
	id     uint64
	parked bool
}

func (p parkLog) RecordParked(id uint64, parked bool) { p.events <- parkEvent{id, parked} }

// hear fails t unless the next event is want.
func (p parkLog) hear(t *testing.T, want parkEvent) {
	t.Helper()
	select {
	case got := <-p.events:
		if got != want {
			t.Fatalf("recorder heard %+v, want %+v", got, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("recorder never heard %+v", want)
	}
}

// heardAll fails t if an event is left.
func (p parkLog) heardAll(t *testing.T) {
	t.Helper()
	select {
	case ev := <-p.events:
		t.Fatalf("recorder heard %+v after the wake", ev)
	default:
	}
}

// TestSiteParksReachTheClusterRecorder: two transactions conflict on one
// key at one site. The cluster's recorder hears the waiter park and,
// once the holder commits, wake, both under the waiter's global id.
func TestSiteParksReachTheClusterRecorder(t *testing.T) {
	// Room for the park and the wake, and for any stray event the test
	// then reports, so a site never blocks in RecordParked.
	rec := parkLog{events: make(chan parkEvent, 4)}
	c, err := New(Options{Sites: 2, LockTimeout: time.Minute, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	k := keyAt(c, 1, "hot")

	t1, _ := c.Begin(engine.ReadWrite)
	if err := t1.Put(k, []byte("held")); err != nil {
		t.Fatal(err)
	}
	t2, _ := c.Begin(engine.ReadWrite)
	put := make(chan error, 1)
	go func() { put <- t2.Put(k, []byte("waited")) }()
	rec.hear(t, parkEvent{t2.ID(), true})
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	rec.hear(t, parkEvent{t2.ID(), false})
	if err := <-put; err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	rec.heardAll(t)
}

// TestOneSiteDetectsDeadlocks: a one-site cluster's waits-for graph
// sees every cycle, so an opposite-order pair loses one transaction to
// deadlock detection at once, not to the lock timeout.
func TestOneSiteDetectsDeadlocks(t *testing.T) {
	const timeout = 2 * time.Second
	c, err := New(Options{Sites: 1, LockTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	t1, _ := c.Begin(engine.ReadWrite)
	t2, _ := c.Begin(engine.ReadWrite)
	if err := t1.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := t2.Put("b", []byte("2")); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	for _, put := range []func() error{
		func() error { return t1.Put("b", []byte("1")) },
		func() error { return t2.Put("a", []byte("2")) },
	} {
		go func() { errs <- put() }()
	}
	var victims int
	for range 2 {
		switch err := <-errs; {
		case errors.Is(err, engine.ErrDeadlock):
			victims++
		case err != nil:
			t.Fatalf("err = %v, want nil or ErrDeadlock", err)
		}
	}
	if elapsed := time.Since(start); victims != 1 || elapsed >= timeout/2 {
		t.Fatalf("%d victims after %v, want 1 well under the %v timeout", victims, elapsed, timeout)
	}
	st := c.Sites()[0].Engine().Stats()
	if st.LockDeadlocks != 1 || st.LockTimeouts != 0 {
		t.Fatalf("site: %d deadlocks, %d timeouts; want 1 and 0", st.LockDeadlocks, st.LockTimeouts)
	}
	t1.Abort()
	t2.Abort()
}

// Distributed bank: transfers across sites with concurrent global
// read-only audits; conservation plus global one-copy serializability.
func TestStressDistributedSerializability(t *testing.T) {
	const (
		nSites   = 3
		nKeys    = 12
		nWorkers = 6
		nTxns    = 60
		initBal  = 100
	)
	rec := history.NewRecorder()
	c, err := New(Options{Sites: nSites, Recorder: rec, LockTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	keys := make([]string, nKeys)
	bootKV := map[string][]byte{}
	for i := range keys {
		keys[i] = fmt.Sprintf("acct%02d", i)
		bootKV[keys[i]] = []byte{initBal}
	}
	if err := c.Bootstrap(bootKV); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < nTxns; i++ {
				if rng.Intn(3) == 0 {
					// Half the audits are anchored at a home site, half are
					// global snapshots; sites collect meanwhile, and neither
					// kind may miss a version it reads.
					var ro engine.Tx
					var err error
					if rng.Intn(2) == 0 {
						ro, err = c.BeginReadOnlyAtHome(rng.Intn(nSites))
					} else {
						ro, err = c.Begin(engine.ReadOnly)
					}
					if err != nil {
						t.Error(err)
						return
					}
					for j := 0; j < 3; j++ {
						if _, err := ro.Get(keys[rng.Intn(nKeys)]); err != nil && !errors.Is(err, engine.ErrNotFound) {
							t.Errorf("ro get: %v", err)
						}
					}
					ro.Commit()
					continue
				}
				for attempt := 0; attempt < 60; attempt++ {
					from := keys[rng.Intn(nKeys)]
					to := keys[rng.Intn(nKeys)]
					if from == to {
						continue
					}
					tx, _ := c.Begin(engine.ReadWrite)
					fv, err := tx.Get(from)
					if err != nil {
						tx.Abort()
						continue
					}
					tv, err := tx.Get(to)
					if err != nil {
						tx.Abort()
						continue
					}
					if fv[0] == 0 {
						tx.Abort()
						break
					}
					if err := tx.Put(from, []byte{fv[0] - 1}); err != nil {
						continue
					}
					if err := tx.Put(to, []byte{tv[0] + 1}); err != nil {
						continue
					}
					if err := tx.Commit(); err == nil {
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()

	ro, _ := c.Begin(engine.ReadOnly)
	total := 0
	for _, k := range keys {
		v, err := ro.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		total += int(v[0])
	}
	ro.Commit()
	if total != nKeys*initBal {
		t.Fatalf("balance not conserved: %d != %d", total, nKeys*initBal)
	}
	if err := rec.Check(); err != nil {
		t.Fatalf("global history not one-copy serializable: %v", err)
	}
	for _, s := range c.Sites() {
		if err := s.Engine().VC().CheckInvariants(); err != nil {
			t.Fatalf("site %d: %v", s.ID(), err)
		}
	}
}

// A global snapshot publishes in the registry the sites share before it
// takes its number: a remote site driven through many commits while it
// is open collects nothing the snapshot reads, and collects again once
// it closes. Every commit also writes at the other sites: an idle site
// holds collection everywhere at its horizon (see the anchored test
// below), which would keep the chain whether the view published or not.
func TestGlobalSnapshotHoldsOffSiteCollection(t *testing.T) {
	c := newCluster(t, 3, nil)
	k := keyAt(c, 2, "hot")
	others := []string{keyAt(c, 0, "other"), keyAt(c, 1, "other")}
	if err := c.Bootstrap(map[string][]byte{k: []byte("v0")}); err != nil {
		t.Fatal(err)
	}
	put := func(v string) {
		t.Helper()
		tx, _ := c.Begin(engine.ReadWrite)
		for _, key := range append(others, k) {
			if err := tx.Put(key, []byte(v)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	view, _ := c.Begin(engine.ReadOnly)
	for i := 1; i <= 100; i++ {
		put(fmt.Sprintf("v%d", i))
	}
	if v, err := view.Get(k); err != nil || string(v) != "v0" {
		t.Fatalf("view Get = (%q, %v), want v0", v, err)
	}
	view.Commit()
	// An install collects when it finds the chain's array full, which is
	// at most as many commits away as the chain is long.
	o := c.sites[2].Engine().Store().Get(k)
	for i, n := 0, o.VersionCount(); i < n && o.VersionCount() > 2; i++ {
		put("after")
	}
	if n := o.VersionCount(); n > 2 {
		t.Fatalf("chain holds %d versions once the view closed, want <= 2", n)
	}
}

// A snapshot anchored at a home site reads at the home's horizon, which
// stays put while the home is idle. A site driven through many commits
// meanwhile must still hold the versions at that horizon for a snapshot
// anchored there later.
func TestAnchoredSnapshotHoldsOffSiteCollection(t *testing.T) {
	c := newCluster(t, 3, nil)
	k := keyAt(c, 2, "hot")
	if err := c.Bootstrap(map[string][]byte{k: []byte("v0")}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 100; i++ {
		tx, _ := c.Begin(engine.ReadWrite)
		if err := tx.Put(k, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	ro, _ := c.BeginReadOnlyAtHome(0)
	defer ro.Commit()
	if v, err := ro.Get(k); err != nil || string(v) != "v0" {
		t.Fatalf("anchored Get = (%q, %v), want v0", v, err)
	}
}

// A part completes at its site, making its number visible there, before
// its transaction raises the high-water mark. Sites hold collection at
// the mark, so a global snapshot that takes the mark meanwhile still
// finds the versions below such parts. The parts here commit straight
// through the site's engine and never raise the mark at all, while the
// hold is taken again before each, as other transactions' commits would.
// One site, so that no other site's horizon holds collection instead.
func TestSitesHoldCollectionAtTheMark(t *testing.T) {
	c := newCluster(t, 1, nil)
	k := keyAt(c, 0, "k")
	if err := c.Bootstrap(map[string][]byte{k: []byte("v0")}); err != nil {
		t.Fatal(err)
	}
	s := c.sites[0]
	for i := uint64(1); i <= 100; i++ {
		c.hold()
		p, err := s.Engine().BeginSite(1000 + i)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Put(k, []byte("ahead")); err != nil {
			t.Fatal(err)
		}
		s.gate.Lock()
		err = s.Engine().Adopt(p, s.Engine().Vote())
		s.gate.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	ro, _ := c.Begin(engine.ReadOnly)
	defer ro.Commit()
	if v, err := ro.Get(k); err != nil || string(v) != "v0" {
		t.Fatalf("Get at the mark = (%q, %v), want v0", v, err)
	}
}

func TestDistributedScan(t *testing.T) {
	c := newCluster(t, 3, nil)
	boot := map[string][]byte{}
	for i := 0; i < 20; i++ {
		boot[fmt.Sprintf("item%02d", i)] = []byte{byte(i)}
	}
	if err := c.Bootstrap(boot); err != nil {
		t.Fatal(err)
	}
	ro, _ := c.Begin(engine.ReadOnly)
	scanner, ok := ro.(engine.Scanner)
	if !ok {
		t.Fatal("distributed ro tx is not a Scanner")
	}
	var keys []string
	if err := scanner.Scan("item", func(k string, v []byte) bool {
		keys = append(keys, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	ro.Commit()
	if len(keys) != 20 {
		t.Fatalf("scanned %d, want 20", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("not ordered: %v", keys)
		}
	}
}

// Default read-only transactions snapshot at the cluster high-water mark:
// a commit at ANY site is visible to a subsequent Begin(ReadOnly),
// regardless of which sites are involved. The anchored variant stays
// cheap and possibly stale.
func TestReadAfterCommitAcrossSites(t *testing.T) {
	c := newCluster(t, 3, nil)
	k := keyAt(c, 2, "probe")

	tx, _ := c.Begin(engine.ReadWrite)
	if err := tx.Put(k, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	ro, _ := c.Begin(engine.ReadOnly)
	if v, err := ro.Get(k); err != nil || string(v) != "v" {
		t.Fatalf("fresh snapshot Get = (%q,%v), want v", v, err)
	}
	ro.Commit()

	// Anchored at an uninvolved idle site: stale but consistent.
	stale, _ := c.BeginReadOnlyAtHome(0)
	if _, err := stale.Get(k); !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("anchored-stale Get err = %v, want ErrNotFound", err)
	}
	stale.Commit()
}

func TestCustomPartitioner(t *testing.T) {
	c, err := New(Options{Sites: 2, Partition: func(key string) int {
		if len(key) > 0 && key[0] == 'a' {
			return 0
		}
		return 1
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.SiteFor("apple").ID() != 0 || c.SiteFor("banana").ID() != 1 {
		t.Fatal("partitioner not honored")
	}
	tx, _ := c.Begin(engine.ReadWrite)
	tx.Put("alpha", []byte("1"))
	tx.Put("beta", []byte("2"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if c.sites[0].Engine().Store().Get("alpha") == nil || c.sites[1].Engine().Store().Get("beta") == nil {
		t.Fatal("keys landed on wrong sites")
	}
}

func TestBusJitterStillCorrect(t *testing.T) {
	rec := history.NewRecorder()
	c, err := New(Options{Sites: 2, Jitter: 300 * time.Microsecond, Recorder: rec,
		LockTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Bootstrap(map[string][]byte{"a": {50}, "b": {50}})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				for attempt := 0; attempt < 50; attempt++ {
					tx, _ := c.Begin(engine.ReadWrite)
					av, err := tx.Get("a")
					if err != nil {
						tx.Abort()
						continue
					}
					bv, err := tx.Get("b")
					if err != nil {
						tx.Abort()
						continue
					}
					if av[0] == 0 {
						tx.Abort()
						break
					}
					if tx.Put("a", []byte{av[0] - 1}) != nil {
						continue
					}
					if tx.Put("b", []byte{bv[0] + 1}) != nil {
						continue
					}
					if tx.Commit() == nil {
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()
	ro, _ := c.Begin(engine.ReadOnly)
	av, err := ro.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	bv, err := ro.Get("b")
	if err != nil {
		t.Fatal(err)
	}
	ro.Commit()
	if int(av[0])+int(bv[0]) != 100 {
		t.Fatalf("sum = %d", int(av[0])+int(bv[0]))
	}
	if err := rec.Check(); err != nil {
		t.Fatal(err)
	}
}
