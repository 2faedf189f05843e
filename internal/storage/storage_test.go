package storage

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestReadVisiblePicksLargestAtMost(t *testing.T) {
	o := newObject()
	for _, tn := range []uint64{2, 5, 9} {
		o.InstallCommitted(Version{TN: tn, Data: []byte{byte(tn)}})
	}
	tests := []struct {
		sn     uint64
		wantTN uint64
		ok     bool
	}{
		{0, 0, false},
		{1, 0, false},
		{2, 2, true},
		{4, 2, true},
		{5, 5, true},
		{8, 5, true},
		{9, 9, true},
		{100, 9, true},
	}
	for _, tc := range tests {
		v, ok := o.ReadVisible(tc.sn)
		if ok != tc.ok || (ok && v.TN != tc.wantTN) {
			t.Errorf("ReadVisible(%d) = (%v,%v), want (%d,%v)", tc.sn, v.TN, ok, tc.wantTN, tc.ok)
		}
	}
}

func TestInstallOutOfOrderKeepsChainSorted(t *testing.T) {
	o := newObject()
	for _, tn := range []uint64{5, 2, 9, 7, 1} {
		o.InstallCommitted(Version{TN: tn})
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	vs := o.Versions()
	if len(vs) != 5 {
		t.Fatalf("len = %d, want 5", len(vs))
	}
	for i, want := range []uint64{1, 2, 5, 7, 9} {
		if vs[i].TN != want {
			t.Fatalf("vs[%d].TN = %d, want %d", i, vs[i].TN, want)
		}
	}
}

func TestDuplicateInstallPanics(t *testing.T) {
	o := newObject()
	o.InstallCommitted(Version{TN: 3})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	o.InstallCommitted(Version{TN: 3})
}

func TestTombstoneVisibility(t *testing.T) {
	o := newObject()
	o.InstallCommitted(Version{TN: 1, Data: []byte("v1")})
	o.InstallCommitted(Version{TN: 3, Tombstone: true})
	if v, ok := o.ReadVisible(2); !ok || v.Tombstone {
		t.Fatalf("sn=2: got (%+v,%v), want live v1", v, ok)
	}
	if v, ok := o.ReadVisible(3); !ok || !v.Tombstone {
		t.Fatalf("sn=3: got (%+v,%v), want tombstone", v, ok)
	}
}

func TestTOWriteRejectsStaleWriter(t *testing.T) {
	o := newObject()
	o.InstallCommitted(Version{TN: 0})
	// A read by tn=5 raises r-ts.
	if _, ok := o.TORead(5, nil); !ok {
		t.Fatal("TORead(5) found nothing")
	}
	// Writer tn=3 < r-ts must be rejected (Figure 3 write rule).
	if err := o.TOWrite(3, nil, false, nil); err != ErrConflict {
		t.Fatalf("TOWrite(3) err = %v, want ErrConflict", err)
	}
	// Writer tn=5 is allowed (>= r-ts).
	if err := o.TOWrite(5, []byte("x"), false, nil); err != nil {
		t.Fatalf("TOWrite(5) err = %v", err)
	}
	// Writer tn=4 < w-ts(5) rejected.
	if err := o.TOWrite(4, nil, false, nil); err != ErrConflict {
		t.Fatalf("TOWrite(4) err = %v, want ErrConflict", err)
	}
}

func TestTOReadBlocksOnOlderPendingWrite(t *testing.T) {
	o := newObject()
	o.InstallCommitted(Version{TN: 0, Data: []byte("old")})
	if err := o.TOWrite(2, []byte("new"), false, nil); err != nil {
		t.Fatal(err)
	}

	got := make(chan Version)
	w := newParkLog()
	go func() {
		v, _ := o.TORead(5, w) // must wait for T2's pending write
		got <- v
	}()
	<-w.parks
	o.ResolvePending(2, true, nil)
	if n := w.wakes.Load(); n != 1 {
		t.Fatalf("ResolvePending returned having woken the parked reader %d times, want 1", n)
	}
	select {
	case v := <-got:
		if v.TN != 2 || string(v.Data) != "new" {
			t.Fatalf("TORead(5) = %+v, want version 2", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("TORead never woke after commit")
	}
}

// parkLog is a Waiter that hands each park to the test and counts the
// wakes.
type parkLog struct {
	parks chan struct{}
	wakes atomic.Int32
}

func newParkLog() *parkLog { return &parkLog{parks: make(chan struct{}, 8)} }

func (p *parkLog) Parked(parked bool) {
	if parked {
		p.parks <- struct{}{}
	} else {
		p.wakes.Add(1)
	}
}

// TestResolveWakesEveryParkedWaiter: a timestamp-ordering read and a
// snapshot read both wait for one pending write; the resolution tells
// both before it returns.
func TestResolveWakesEveryParkedWaiter(t *testing.T) {
	o := newObject()
	if err := o.TOWrite(2, []byte("v2"), false, nil); err != nil {
		t.Fatal(err)
	}
	r, ro := newParkLog(), newParkLog()
	got := make(chan Version, 2)
	go func() { v, _ := o.TORead(5, r); got <- v }()
	go func() { v, _ := o.SnapshotReadWait(4, ro); got <- v }()
	<-r.parks
	<-ro.parks
	o.ResolvePending(2, true, nil)
	if r.wakes.Load() != 1 || ro.wakes.Load() != 1 {
		t.Fatalf("ResolvePending returned having told %d and %d of the parked waiters, want 1 and 1", r.wakes.Load(), ro.wakes.Load())
	}
	for range 2 {
		if v := <-got; v.TN != 2 {
			t.Fatalf("read version %d, want 2", v.TN)
		}
	}
}

func TestTOReadAfterAbortSeesOldVersion(t *testing.T) {
	o := newObject()
	o.InstallCommitted(Version{TN: 1, Data: []byte("keep")})
	if err := o.TOWrite(3, []byte("drop"), false, nil); err != nil {
		t.Fatal(err)
	}
	got := make(chan Version)
	go func() {
		v, _ := o.TORead(4, nil)
		got <- v
	}()
	time.Sleep(10 * time.Millisecond)
	o.ResolvePending(3, false, nil) // abort
	select {
	case v := <-got:
		if v.TN != 1 {
			t.Fatalf("read version %d, want 1 after abort", v.TN)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("TORead never woke after abort")
	}
}

func TestTOReadDoesNotBlockOnYoungerPending(t *testing.T) {
	o := newObject()
	o.InstallCommitted(Version{TN: 1, Data: []byte("v1")})
	if err := o.TOWrite(9, []byte("future"), false, nil); err != nil {
		t.Fatal(err)
	}
	done := make(chan Version)
	go func() {
		v, _ := o.TORead(5, nil)
		done <- v
	}()
	select {
	case v := <-done:
		if v.TN != 1 {
			t.Fatalf("read %d, want 1", v.TN)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("TORead(5) blocked on younger pending write")
	}
}

func TestTOReadOwnPending(t *testing.T) {
	o := newObject()
	o.InstallCommitted(Version{TN: 0, Data: []byte("base")})
	if err := o.TOWrite(4, []byte("mine"), false, nil); err != nil {
		t.Fatal(err)
	}
	v, ok := o.TORead(4, nil)
	if !ok || string(v.Data) != "mine" {
		t.Fatalf("read-own-write = (%q,%v), want mine", v.Data, ok)
	}
}

func TestTOWriteBlocksOnOlderPending(t *testing.T) {
	o := newObject()
	o.InstallCommitted(Version{TN: 0})
	if err := o.TOWrite(2, []byte("a"), false, nil); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error)
	go func() { errc <- o.TOWrite(5, []byte("b"), false, nil) }()
	select {
	case err := <-errc:
		t.Fatalf("TOWrite(5) returned %v before T2 resolved", err)
	case <-time.After(20 * time.Millisecond):
	}
	o.ResolvePending(2, true, nil)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("TOWrite(5) never unblocked")
	}
	o.ResolvePending(5, true, nil)
	if got := o.LatestTN(); got != 5 {
		t.Fatalf("latest = %d, want 5", got)
	}
}

func TestTOWriteOverwriteOwnPending(t *testing.T) {
	o := newObject()
	if err := o.TOWrite(2, []byte("first"), false, nil); err != nil {
		t.Fatal(err)
	}
	if err := o.TOWrite(2, []byte("second"), false, nil); err != nil {
		t.Fatal(err)
	}
	if n := o.PendingCount(); n != 1 {
		t.Fatalf("pending count = %d, want 1", n)
	}
	o.ResolvePending(2, true, nil)
	v, _ := o.ReadVisible(2)
	if string(v.Data) != "second" {
		t.Fatalf("data = %q, want second", v.Data)
	}
}

func TestSnapshotReadWait(t *testing.T) {
	o := newObject()
	o.InstallCommitted(Version{TN: 1, Data: []byte("v1")})
	if err := o.TOWrite(3, []byte("v3"), false, nil); err != nil {
		t.Fatal(err)
	}
	done := make(chan Version)
	w := newParkLog()
	go func() {
		v, _ := o.SnapshotReadWait(4, w)
		done <- v
	}()
	<-w.parks // it waits for pending tn=3
	o.ResolvePending(3, true, nil)
	if v := <-done; v.TN != 3 {
		t.Fatalf("read %d, want 3", v.TN)
	}
}

func TestReadVisibleWhere(t *testing.T) {
	o := newObject()
	for _, tn := range []uint64{1, 3, 5, 7} {
		o.InstallCommitted(Version{TN: tn, Data: []byte{byte(tn)}})
	}
	admit := func(tn uint64) bool { return tn != 5 && tn != 7 }
	v, ok := o.ReadVisibleWhere(6, admit)
	if !ok || v.TN != 3 {
		t.Fatalf("got (%d,%v), want 3 (skipping non-admitted 5)", v.TN, ok)
	}
	if _, ok := o.ReadVisibleWhere(6, func(uint64) bool { return false }); ok {
		t.Fatal("admitted nothing but found a version")
	}
	if v, ok := o.ReadVisibleWhere(100, func(uint64) bool { return true }); !ok || v.TN != 7 {
		t.Fatalf("got (%d,%v), want 7", v.TN, ok)
	}
}

func TestPrune(t *testing.T) {
	o := newObject()
	for tn := uint64(1); tn <= 10; tn++ {
		o.InstallCommitted(Version{TN: tn})
	}
	// watermark 6: newest version <= 6 is tn=6; drop 1..5.
	if got := o.Prune(6); got != 5 {
		t.Fatalf("pruned %d, want 5", got)
	}
	if v, ok := o.ReadVisible(6); !ok || v.TN != 6 {
		t.Fatalf("ReadVisible(6) = (%v,%v), want 6", v.TN, ok)
	}
	if v, ok := o.ReadVisible(7); !ok || v.TN != 7 {
		t.Fatalf("ReadVisible(7) = (%v,%v), want 7", v.TN, ok)
	}
	// Second prune at the same watermark is a no-op.
	if got := o.Prune(6); got != 0 {
		t.Fatalf("second prune = %d, want 0", got)
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPruneKeepsNewestBelowWatermarkOnly(t *testing.T) {
	o := newObject()
	o.InstallCommitted(Version{TN: 2})
	o.InstallCommitted(Version{TN: 8})
	// watermark 5: newest <= 5 is tn=2; nothing before it.
	if got := o.Prune(5); got != 0 {
		t.Fatalf("pruned %d, want 0", got)
	}
	if n := o.VersionCount(); n != 2 {
		t.Fatalf("count = %d, want 2", n)
	}
}

func TestStoreGetOrCreate(t *testing.T) {
	s := NewStore(4)
	a := s.GetOrCreate("k")
	b := s.GetOrCreate("k")
	if a != b {
		t.Fatal("GetOrCreate returned distinct objects for same key")
	}
	if s.Get("absent") != nil {
		t.Fatal("Get(absent) != nil")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestStoreBootstrapAndRange(t *testing.T) {
	s := NewStore(0)
	for i := 0; i < 100; i++ {
		s.Bootstrap(fmt.Sprintf("k%03d", i), []byte{byte(i)})
	}
	if s.Len() != 100 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.TotalVersions() != 100 {
		t.Fatalf("TotalVersions = %d", s.TotalVersions())
	}
	seen := 0
	s.Range(func(k string, o *Object) bool {
		seen++
		if v, ok := o.ReadVisible(0); !ok || len(v.Data) != 1 {
			t.Errorf("key %s: bad bootstrap version", k)
		}
		return true
	})
	if seen != 100 {
		t.Fatalf("Range visited %d, want 100", seen)
	}
}

func TestStoreRangeEarlyStop(t *testing.T) {
	s := NewStore(0)
	for i := 0; i < 50; i++ {
		s.Bootstrap(fmt.Sprintf("k%d", i), nil)
	}
	n := 0
	s.Range(func(string, *Object) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Fatalf("visited %d, want 10", n)
	}
}

func TestConcurrentStoreAccess(t *testing.T) {
	s := NewStore(8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 1000; i++ {
				k := fmt.Sprintf("k%d", rng.Intn(32))
				o := s.GetOrCreate(k)
				o.ReadVisible(uint64(rng.Intn(100)))
			}
		}(w)
	}
	wg.Wait()
	if s.Len() > 32 {
		t.Fatalf("Len = %d, want <= 32", s.Len())
	}
}

// Property: ReadVisible(sn) equals a linear scan for the max TN <= sn.
func TestPropertyReadVisibleMatchesScan(t *testing.T) {
	f := func(tns []uint64, sn uint64) bool {
		o := newObject()
		seen := map[uint64]bool{}
		for _, tn := range tns {
			tn %= 1000
			if tn == 0 || seen[tn] {
				continue
			}
			seen[tn] = true
			o.InstallCommitted(Version{TN: tn})
		}
		sn %= 1200
		var want uint64
		found := false
		for tn := range seen {
			if tn <= sn && tn >= want {
				want = tn
				found = true
			}
		}
		v, ok := o.ReadVisible(sn)
		if ok != found {
			return false
		}
		return !ok || v.TN == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: pruning at any watermark never changes the result of
// ReadVisible at snapshots >= watermark.
func TestPropertyPrunePreservesVisibility(t *testing.T) {
	f := func(tns []uint64, wm uint64) bool {
		o := newObject()
		seen := map[uint64]bool{}
		for _, tn := range tns {
			tn = tn%500 + 1
			if seen[tn] {
				continue
			}
			seen[tn] = true
			o.InstallCommitted(Version{TN: tn})
		}
		wm %= 600
		type res struct {
			tn uint64
			ok bool
		}
		before := map[uint64]res{}
		for sn := wm; sn < wm+50; sn++ {
			v, ok := o.ReadVisible(sn)
			before[sn] = res{v.TN, ok}
		}
		o.Prune(wm)
		if err := o.CheckInvariants(); err != nil {
			return false
		}
		for sn := wm; sn < wm+50; sn++ {
			v, ok := o.ReadVisible(sn)
			if before[sn] != (res{v.TN, ok}) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
