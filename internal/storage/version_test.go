package storage

import (
	"testing"
	"unsafe"
)

func TestRecordSizes(t *testing.T) {
	if s := unsafe.Sizeof(version{}); s != 24 {
		t.Errorf("sizeof(version) = %d, want 24", s)
	}
	if s := unsafe.Sizeof(Object{}); s > 48 {
		t.Errorf("sizeof(Object) = %d, want <= 48", s)
	}
}

// Every way a value goes into a chain and comes back out must return the
// installed value itself: the same backing array, nil and empty kept
// apart, the tombstone flag, and no spare capacity a reader's append
// could write into.
func TestPackedRecordRoundTrip(t *testing.T) {
	big := make([]byte, 64, 128) // spare capacity behind the value
	for i := range big {
		big[i] = byte(i)
	}
	cases := []struct {
		name string
		v    Version
	}{
		{"nil", Version{}},
		{"empty", Version{Data: make([]byte, 0, 8)}},
		{"64B", Version{Data: big}},
		{"tombstone", Version{Tombstone: true}},
	}
	filler := func(tn uint64) Version { return Version{TN: tn, Data: []byte("f")} }
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			const tn = 5
			want := c.v
			want.TN = tn
			check := func(where string) func(Version, bool) {
				return func(got Version, ok bool) {
					t.Helper()
					if !ok || got.TN != tn || got.Tombstone != want.Tombstone {
						t.Fatalf("%s: got (tn %d, tombstone %v, %v), want (tn %d, tombstone %v)",
							where, got.TN, got.Tombstone, ok, tn, want.Tombstone)
					}
					if want.Tombstone {
						return
					}
					if (got.Data == nil) != (want.Data == nil) {
						t.Fatalf("%s: nil-ness changed: got nil=%v, installed nil=%v", where, got.Data == nil, want.Data == nil)
					}
					if unsafe.SliceData(got.Data) != unsafe.SliceData(want.Data) || len(got.Data) != len(want.Data) {
						t.Fatalf("%s: value is not the installed one", where)
					}
					if cap(got.Data) != len(got.Data) {
						t.Fatalf("%s: cap %d != len %d", where, cap(got.Data), len(got.Data))
					}
				}
			}
			find := func(vs []Version) (Version, bool) {
				for _, v := range vs {
					if v.TN == tn {
						return v, true
					}
				}
				return Version{}, false
			}

			// In-order install, then the readers.
			o := newObject()
			o.InstallCommitted(filler(2))
			o.InstallCommitted(want)
			check("ReadVisible")(o.ReadVisible(tn))
			check("LatestCommitted")(o.LatestCommitted())
			check("Versions")(find(o.Versions()))
			check("ReadVisibleWhere")(o.ReadVisibleWhere(tn+1, func(uint64) bool { return true }))

			// Out-of-order install shifts the record; Prune and Withdraw
			// move it again.
			o = newObject()
			o.InstallCommitted(filler(9))
			o.InstallCommitted(filler(2))
			o.InstallCommitted(want)
			check("out-of-order")(o.ReadVisible(tn))
			o.Withdraw(9)
			check("Withdraw")(o.LatestCommitted())
			if n := o.Prune(tn); n != 1 {
				t.Fatalf("Prune = %d, want 1", n)
			}
			check("Prune")(o.ReadVisible(tn))
			if err := o.CheckInvariants(); err != nil {
				t.Fatal(err)
			}

			// A T/O pending version becomes the same record on commit.
			o = newObject()
			o.InstallCommitted(filler(2))
			if err := o.TOWrite(tn, want.Data, want.Tombstone, nil); err != nil {
				t.Fatal(err)
			}
			o.ResolvePending(tn, true, nil)
			check("ResolvePending")(o.ReadVisible(tn))
		})
	}
}

func TestPruneSetsFloor(t *testing.T) {
	o := newObject()
	for _, tn := range []uint64{2, 5, 9} {
		o.InstallCommitted(Version{TN: tn})
	}
	if o.Prune(4); o.Floor() != 0 {
		t.Fatalf("floor = %d after a pass that dropped nothing, want 0", o.Floor())
	}
	if o.Prune(6); o.Floor() != 5 {
		t.Fatalf("floor = %d, want 5 (the oldest version kept)", o.Floor())
	}
	if _, ok := o.ReadVisible(3); ok {
		t.Fatal("version 2 survived the prune")
	}
}

// Read-only accessors must not allocate the timestamp-ordering state.
func TestAccessorsLeaveTOStateUnallocated(t *testing.T) {
	o := newObject()
	o.InstallCommitted(Version{TN: 1})
	o.RTS()
	o.WTS()
	o.PendingCount()
	o.ResolvePending(1, true, nil)
	o.SnapshotReadWait(1, nil)
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if o.to != nil {
		t.Fatal("a read-only accessor allocated the T/O state")
	}
	o.SetRTS(3, false)
	if o.to == nil || o.RTS() != 3 {
		t.Fatal("SetRTS did not allocate the T/O state")
	}
}
