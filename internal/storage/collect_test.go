package storage

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"weak"
)

// full returns an object whose chain holds tns with no room left, so
// that the next install collects: in the slots up to two versions, else
// in an extension array of exactly len(tns).
func full(tns ...uint64) *Object {
	o := newObject()
	c := make([]version, 0, len(tns))
	for _, tn := range tns {
		c = append(c, pack(Version{TN: tn, Data: []byte{byte(tn)}}))
	}
	w := uint32(len(c)) << lenShift
	if len(c) <= len(o.slots) {
		copy(o.slots[:], c)
	} else {
		o.ext = &extension{chain: c}
		w |= spilled
	}
	o.meta = w
	return o
}

// vacated returns the record positions the chain does not use: the
// slots beyond it, or all of them and the array's tail while it is
// spilled.
func vacated(o *Object) []version {
	w := o.lock()
	defer o.unlock(w)
	return vacatedLocked(o, w)
}

func vacatedLocked(o *Object, w uint32) []version {
	if w&spilled == 0 {
		return slices.Clone(o.slots[w>>lenShift:])
	}
	return append(slices.Clone(o.slots[:]), o.ext.chain[w>>lenShift:]...)
}

// checkLayout is CheckInvariants plus the layout: the chain is where the
// meta says — at most two versions in the slots, or at least two in the
// extension's array — and nothing is left where it is not.
func checkLayout(o *Object) error {
	if err := o.CheckInvariants(); err != nil {
		return err
	}
	w := o.lock()
	defer o.unlock(w)
	x := o.ext
	n, inArray := int(w>>lenShift), x != nil && x.chain != nil
	if sp := w&spilled != 0; sp != inArray || sp && (n < 2 || len(x.chain) < n || len(x.chain) != cap(x.chain)) || !sp && n > len(o.slots) {
		return fmt.Errorf("storage: a chain of %d versions is in the wrong place (spilled %v, array %v)", n, sp, inArray)
	}
	if slices.ContainsFunc(vacatedLocked(o, w), func(v version) bool { return v != version{} }) {
		return fmt.Errorf("storage: a slot or array position beyond the chain is not clear")
	}
	return nil
}

func chainTNs(o *Object) []uint64 {
	var tns []uint64
	for _, v := range o.Versions() {
		tns = append(tns, v.TN)
	}
	return tns
}

func TestInstallCollects(t *testing.T) {
	cases := []struct {
		name      string
		o         *Object
		watermark uint64
		tn        uint64 // installed by Install, or by ResolvePending if pending
		pending   bool
		want      []uint64
		dropped   int
		floor     uint64
		asked     bool // whether the install computes the watermark
		older     bool // whether a version older than tn is left
	}{
		{name: "room in the array: no collection",
			o: func() *Object {
				o := full(1, 2, 3)
				x := o.ext
				x.chain = slices.Grow(x.chain, 1)
				x.chain = x.chain[:cap(x.chain)]
				return o
			}(),
			watermark: 3, tn: 9, want: []uint64{1, 2, 3, 9}, older: true},
		{name: "keeps the newest version at or below the watermark",
			o: full(1, 2, 3, 4), watermark: 3, tn: 9, want: []uint64{3, 4, 9}, dropped: 2, floor: 3, asked: true, older: true},
		{name: "a watermark between versions keeps the one below it",
			o: full(1, 2, 5, 6), watermark: 4, tn: 9, want: []uint64{2, 5, 6, 9}, dropped: 1, floor: 2, asked: true, older: true},
		{name: "never touches versions above it; the array grows",
			o: full(1, 5, 6, 7), watermark: 4, tn: 9, want: []uint64{1, 5, 6, 7, 9}, asked: true, older: true},
		{name: "an out-of-order install lands among the kept versions",
			o: full(1, 2, 3, 8), watermark: 3, tn: 5, want: []uint64{3, 5, 8}, dropped: 2, floor: 3, asked: true, older: true},
		{name: "a T/O commit collects like an install",
			o: full(1, 2, 3, 4), watermark: 3, tn: 9, pending: true, want: []uint64{3, 4, 9}, dropped: 2, floor: 3, asked: true, older: true},
		{name: "a lone version is never collected",
			o: full(1), watermark: 1, tn: 9, want: []uint64{1, 9}, older: true},
		{name: "a first version leaves nothing older",
			o: newObject(), watermark: 1, tn: 9, want: []uint64{9}},
		{name: "full slots collect",
			o: full(1, 2), watermark: 2, tn: 9, want: []uint64{2, 9}, dropped: 1, floor: 2, asked: true, older: true},
		{name: "full slots a snapshot holds spill to the extension",
			o: full(1, 2), watermark: 1, tn: 9, want: []uint64{1, 2, 9}, asked: true, older: true},
		{name: "a spilled chain stays in its array until it is at rest",
			o: full(1, 2, 3), watermark: 3, tn: 9, want: []uint64{3, 9}, dropped: 2, floor: 3, asked: true, older: true},
		{name: "an out-of-order install below every version leaves nothing older",
			o: full(5), watermark: 1, tn: 3, want: []uint64{3, 5}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			asked := false
			watermark := func() uint64 { asked = true; return c.watermark }
			var dropped int
			var older bool
			if c.pending {
				if err := c.o.TOWrite(c.tn, []byte{byte(c.tn)}, false, nil); err != nil {
					t.Fatal(err)
				}
				dropped, older = c.o.ResolvePending(c.tn, true, watermark)
			} else {
				dropped, older = c.o.Install(Version{TN: c.tn, Data: []byte{byte(c.tn)}}, watermark)
			}
			if got := chainTNs(c.o); !slices.Equal(got, c.want) {
				t.Fatalf("chain = %v, want %v", got, c.want)
			}
			if _, _, floor := c.o.ReadAt(0); dropped != c.dropped || floor != c.floor || asked != c.asked || older != c.older {
				t.Fatalf("dropped %d, floor %d, asked %v, older %v; want %d, %d, %v, %v",
					dropped, floor, asked, older, c.dropped, c.floor, c.asked, c.older)
			}
			for _, v := range vacated(c.o) {
				if v != (version{}) {
					t.Fatalf("vacated slot still holds version %d", v.tn)
				}
			}
			if err := checkLayout(c.o); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// An install that frees a slot reuses the room it frees: a chain the
// watermark keeps up with costs no allocation. A spilled one keeps its
// array until a prune brings it to rest.
func TestInstallThatCollectsAllocatesNothing(t *testing.T) {
	o := full(1, 2, 3, 4)
	tn := uint64(4)
	watermark := func() uint64 { return tn - 1 }
	val := []byte("v")
	if n := testing.AllocsPerRun(200, func() {
		tn++
		o.Install(Version{TN: tn, Data: val}, watermark)
	}); n != 0 {
		t.Fatalf("Install allocs/op = %.1f, want 0", n)
	}
	if c := cap(o.ext.chain); c != 4 {
		t.Fatalf("the array grew to %d", c)
	}
	o.Prune(tn) // at rest: back to the slots, and the array and the extension go
	if o.VersionCount() != 1 || o.ext != nil || checkLayout(o) != nil {
		t.Fatalf("after a prune to one version: %d versions, extension %p, %v", o.VersionCount(), o.ext, checkLayout(o))
	}
}

// A chain that grew while a snapshot held the watermark gives its large
// array up at the first install that collects once the snapshot is gone.
func TestHeldChainShrinksOnceCollected(t *testing.T) {
	o := newObject()
	tn := uint64(0)
	watermark := func() uint64 { return 0 } // a snapshot pinned at 0
	for range 1000 {
		tn++
		if d, _ := o.Install(Version{TN: tn}, watermark); d != 0 {
			t.Fatalf("install %d dropped %d below a pinned snapshot", tn, d)
		}
	}
	if c := cap(o.ext.chain); c < 1000 {
		t.Fatalf("the array holds %d while the snapshot is pinned", c)
	}
	watermark = func() uint64 { return tn - 1 } // unpinned
	for {
		tn++
		if d, _ := o.Install(Version{TN: tn}, watermark); d > 0 {
			break
		}
	}
	w := o.lock()
	room := len(o.slots)
	if w&spilled != 0 {
		room = cap(o.ext.chain)
	}
	o.unlock(w)
	if room > 8 || o.VersionCount() > 2 || checkLayout(o) != nil {
		t.Fatalf("after the collecting install: %d versions in room for %d, %v", o.VersionCount(), room, checkLayout(o))
	}
}

// What Prune, a collecting install and Withdraw drop is garbage at once,
// from the slots and from an extension array alike: no stale record
// keeps a dropped value alive.
func TestDroppedVersionsFreeTheirValues(t *testing.T) {
	handles := map[uint64]weak.Pointer[byte]{}
	o := newObject()
	put := func(tn uint64) Version {
		b := make([]byte, 64<<10)
		handles[tn] = weak.Make(&b[0])
		return Version{TN: tn, Data: b}
	}
	freed := func(where string, tns ...uint64) {
		t.Helper()
		runtime.GC()
		for _, tn := range tns {
			if handles[tn].Value() != nil {
				t.Fatalf("%s: dropped value %d is still reachable", where, tn)
			}
		}
		if err := checkLayout(o); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
	}

	for tn := range uint64(64) {
		o.InstallCommitted(put(tn))
	}
	if n := o.Prune(63); n != 63 {
		t.Fatalf("Prune = %d, want 63", n)
	}
	var dropped []uint64
	for tn := range uint64(63) {
		dropped = append(dropped, tn)
	}
	freed("Prune of a spilled chain", dropped...)

	o.InstallCommitted(put(64))
	o.Install(put(65), func() uint64 { return 64 })
	freed("a collecting install into the slots", 63)
	o.Withdraw(65)
	freed("Withdraw from the slots", 65)
	o.InstallCommitted(put(66))
	o.Prune(66)
	freed("Prune of the slots", 64)

	o.InstallCommitted(put(67))
	o.InstallCommitted(put(68))
	o.Withdraw(68)
	freed("Withdraw from a spilled chain", 68)
	o.Prune(67)
	freed("Prune of a spilled chain back to the slots", 66)

	o = newObject()
	for tn := range uint64(4) {
		o.InstallCommitted(put(100 + tn))
	}
	o.Install(put(200), func() uint64 { return 103 })
	freed("a collecting install into an extension array", 100, 101, 102)
	o.InstallCommitted(put(300))
	o.Withdraw(300)
	freed("Withdraw from an extension array", 300)
	runtime.KeepAlive(o) // the object itself stays: only what it dropped may go
}
