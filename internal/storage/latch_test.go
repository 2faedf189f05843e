package storage

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestLatchRacesReaders races, on one object, everything that edits a
// chain — installs that collect, T/O writes resolved by commit and by
// abort, withdrawals, prunes at completion and by a sweeping goroutine,
// the spill to the extension while a pinned reader holds old versions
// and the way back to the slots once it lets go — against snapshot,
// pinned and T/O readers, and checks every read against the chain it
// must see. A version's value is its own number.
func TestLatchRacesReaders(t *testing.T) {
	const (
		writes    = 600
		readers   = 2
		pinned    = readers     // the slot of the reader that holds a snapshot across writes
		toReader  = readers + 1 // the slot of the T/O reader
		holdWrite = 5           // writes a pinned snapshot waits out: at least three commit
	)
	var (
		vis   atomic.Uint64              // every tn at or below it is decided
		slots [readers + 2]atomic.Uint64 // sn+1 of each open reader, 0 when closed
		done  atomic.Bool
		wg    sync.WaitGroup
		ready sync.WaitGroup
		parks = &parkCount{}
	)
	// expect[sn] is the newest committed tn <= sn, written before vis
	// passes sn.
	expect := make([]uint64, writes+1)
	// watermark is the engine's ordering in small: vis first, then the
	// slots. A reader publishes vis, then reads vis again as its snapshot.
	watermark := func() uint64 {
		w := vis.Load()
		for i := range slots {
			if s := slots[i].Load(); s != 0 && s-1 < w {
				w = s - 1
			}
		}
		return w
	}
	value := func(tn uint64) []byte { return binary.BigEndian.AppendUint64(nil, tn) }
	holds := func(v Version) bool { return len(v.Data) == 8 && binary.BigEndian.Uint64(v.Data) == v.TN }
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
		done.Store(true)
	}
	obj := newObject()
	obj.InstallCommitted(Version{TN: 0, Data: value(0)})
	// check checks a read at sn: exact, or — for a snapshot that did not
	// hold the watermark at sn — a miss below the floor.
	check := func(who string, sn uint64, published bool) {
		v, ok, floor := obj.ReadAt(sn)
		switch {
		case ok && v.TN == expect[sn] && holds(v):
		case !ok && !published && floor > sn:
		default:
			fail("%s read at %d: (tn %d, ok %v, floor %d), want version %d", who, sn, v.TN, ok, floor, expect[sn])
		}
	}
	publish := func(slot int) uint64 {
		slots[slot].Store(vis.Load() + 1)
		return vis.Load()
	}
	run := func(f func()) {
		wg.Add(1)
		ready.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}

	for r := 0; r < readers; r++ {
		run(func() {
			rng := rand.New(rand.NewSource(int64(r)))
			ready.Done()
			for !done.Load() {
				sn := publish(r)
				check("snapshot", sn, true)
				check("below the watermark", rng.Uint64()%(sn+1), false)
				if v, ok := obj.LatestCommitted(); !ok || v.TN < expect[sn] || !holds(v) {
					fail("latest: (tn %d, ok %v), want at least %d", v.TN, ok, expect[sn])
				}
				slots[r].Store(0)
			}
		})
	}
	run(func() {
		first := true
		for !done.Load() {
			sn := publish(pinned)
			if first {
				ready.Done()
				first = false
			}
			for vis.Load() < sn+holdWrite && !done.Load() {
				runtime.Gosched()
			}
			if !done.Load() {
				if n := obj.VersionCount(); n <= len(obj.slots) {
					fail("a snapshot held %d writes and the chain has %d versions", holdWrite, n)
				}
			}
			check("pinned", sn, true)
			slots[pinned].Store(0)
		}
	})
	run(func() {
		ready.Done()
		for !done.Load() {
			sn := publish(toReader)
			tn := sn + 2
			if v, ok := obj.TORead(tn, parks); !ok || v.TN > tn || v.TN < expect[sn] || !holds(v) {
				fail("T/O read at %d: (tn %d, ok %v), want at least %d", tn, v.TN, ok, expect[sn])
			}
			slots[toReader].Store(0)
		}
	})
	run(func() {
		ready.Done()
		for !done.Load() {
			obj.Prune(watermark())
			if err := checkLayout(obj); err != nil {
				fail("sweep: %v", err)
			}
		}
	})

	ready.Wait()
	for tn := uint64(1); tn <= writes && !done.Load(); tn++ {
		v := Version{TN: tn, Data: value(tn)}
		committed := true
		switch tn % 5 {
		case 0, 1:
			obj.Install(v, watermark)
		case 2: // a T/O commit; a conflict with the T/O reader's r-ts installs directly
			if obj.TOWrite(tn, v.Data, false, nil) == nil {
				obj.ResolvePending(tn, true, watermark)
			} else {
				obj.Install(v, watermark)
			}
		case 3: // a T/O abort
			if obj.TOWrite(tn, v.Data, false, nil) == nil {
				obj.ResolvePending(tn, false, nil)
			}
			committed = false
		case 4: // a commit whose log failed
			obj.Install(v, watermark)
			obj.Withdraw(tn)
			committed = false
		}
		if expect[tn] = expect[tn-1]; committed {
			expect[tn] = tn
		}
		vis.Store(tn)
		if tn%3 == 0 { // collection at completion
			obj.Prune(watermark())
		}
	}
	done.Store(true)
	wg.Wait()

	if p, w := parks.parks.Load(), parks.wakes.Load(); p != w {
		t.Errorf("%d parks, %d wakes", p, w)
	}
	obj.Prune(vis.Load())
	if err := checkLayout(obj); err != nil {
		t.Fatal(err)
	}
	if vs := obj.Versions(); len(vs) != 1 || vs[0].TN != expect[vis.Load()] || obj.ext.chain != nil {
		t.Fatalf("after a prune with no reader open: %d versions, want version %d alone in the slots", len(vs), expect[vis.Load()])
	}
}

// parkCount is a Waiter that counts parks and wakes.
type parkCount struct{ parks, wakes atomic.Int64 }

func (p *parkCount) Parked(parked bool) {
	if parked {
		p.parks.Add(1)
	} else {
		p.wakes.Add(1)
	}
}
