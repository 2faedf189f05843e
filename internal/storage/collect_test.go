package storage

import (
	"runtime"
	"slices"
	"testing"
	"weak"
)

// full returns an object whose chain holds tns in an array with no room
// left, so that the next install collects.
func full(tns ...uint64) *Object {
	o := &Object{versions: make([]version, 0, len(tns))}
	for _, tn := range tns {
		o.InstallCommitted(Version{TN: tn, Data: []byte{byte(tn)}})
	}
	return o
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
			o:         func() *Object { o := full(1, 2, 3); o.versions = slices.Grow(o.versions, 1); return o }(),
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
			o: &Object{}, watermark: 1, tn: 9, want: []uint64{9}},
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
			if dropped != c.dropped || c.o.Floor() != c.floor || asked != c.asked || older != c.older {
				t.Fatalf("dropped %d, floor %d, asked %v, older %v; want %d, %d, %v, %v",
					dropped, c.o.Floor(), asked, older, c.dropped, c.floor, c.asked, c.older)
			}
			for _, v := range c.o.versions[len(c.o.versions):cap(c.o.versions)] {
				if v != (version{}) {
					t.Fatalf("vacated slot still holds version %d", v.tn)
				}
			}
			if err := c.o.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// An install that frees a slot reuses the array: a chain the watermark
// keeps up with costs no allocation.
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
	if c := cap(o.versions); c != 4 {
		t.Fatalf("array grew to %d", c)
	}
}

// What Prune, a collecting install and Withdraw drop is garbage at once:
// no stale record behind len keeps a dropped value alive.
func TestDroppedVersionsFreeTheirValues(t *testing.T) {
	var handles []weak.Pointer[byte]
	value := func() []byte {
		b := make([]byte, 64<<10)
		handles = append(handles, weak.Make(&b[0]))
		return b
	}
	freed := func(where string, first, n int) {
		t.Helper()
		runtime.GC()
		for i, h := range handles[first : first+n] {
			if h.Value() != nil {
				t.Fatalf("%s: dropped value %d is still reachable", where, first+i)
			}
		}
	}

	o := newObject()
	for tn := range uint64(64) {
		o.InstallCommitted(Version{TN: tn, Data: value()})
	}
	if n := o.Prune(63); n != 63 {
		t.Fatalf("Prune = %d, want 63", n)
	}
	freed("Prune", 0, 63)

	o = &Object{versions: make([]version, 0, 4)}
	first := len(handles)
	for tn := range uint64(4) {
		o.InstallCommitted(Version{TN: 100 + tn, Data: value()})
	}
	o.Install(Version{TN: 200, Data: value()}, func() uint64 { return 103 })
	freed("Install", first, 3)

	first = len(handles)
	o.InstallCommitted(Version{TN: 300, Data: value()})
	o.Withdraw(300)
	freed("Withdraw", first, 1)
	runtime.KeepAlive(o) // the object itself stays: only what it dropped may go
}
