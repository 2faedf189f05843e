package vc

import (
	"testing"
)

// FuzzVCLifecycle drives the Strict controller through a random register
// / complete / discard sequence decoded from the fuzz input and checks
// the Controller contract's invariants after every step:
//
//   - vtnc <= tnc-1 (visibility never runs ahead of assignment),
//   - vtnc is monotonically non-decreasing,
//   - VCstart (the read-only start number) is never above vtnc,
//   - the unresolved count is bounded by the live handles,
//
// and, at the end, that completing every remaining transaction resolves
// everything and catches vtnc all the way up to tnc-1.
//
// The queue-shape checks (sortedness, head-is-oldest) live in
// CheckInvariants because they are Strict implementation details, not
// part of the Controller contract; the cross-implementation contract is
// fuzzed by FuzzVisibilityEquivalence in internal/vc/epoch, which runs
// the same sequence against Strict and the epoch controller and demands
// identical vtnc at every step.
func FuzzVCLifecycle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0})                   // register, complete it
	f.Add([]byte{0, 0, 2, 0})                   // register, discard it
	f.Add([]byte{0, 0, 0, 0, 1, 1, 2, 0, 1, 0}) // out-of-order resolution
	f.Add([]byte{3, 2, 0, 0, 1, 0, 1, 0})       // number-skipping registration
	f.Fuzz(func(t *testing.T, data []byte) {
		c := New(0)
		var live []*Entry
		lastVTNC := c.VTNC()
		registered := 0
		discarded := 0
		for i := 0; i < len(data); i++ {
			op := data[i] % 4
			arg := 0
			if i+1 < len(data) {
				i++
				arg = int(data[i])
			}
			switch op {
			case 0:
				live = append(live, c.Register())
				registered++
			case 1:
				if len(live) > 0 {
					j := arg % len(live)
					c.Complete(live[j])
					live = append(live[:j], live[j+1:]...)
				}
			case 2:
				if len(live) > 0 {
					j := arg % len(live)
					c.Discard(live[j])
					live = append(live[:j], live[j+1:]...)
					discarded++
				}
			case 3:
				// Distributed-style adoption that may skip numbers
				// (skipped numbers never hold back visibility).
				e := new(Entry)
				if err := c.RegisterExact(e, c.Reserve()+uint64(arg%3)); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				live = append(live, e)
				registered++
			}

			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			start := c.Start()
			vtnc := c.VTNC()
			tnc := c.TNC()
			if start > vtnc {
				t.Fatalf("step %d: VCstart %d above vtnc %d", i, start, vtnc)
			}
			if vtnc > tnc-1 {
				t.Fatalf("step %d: vtnc %d > tnc-1 %d", i, vtnc, tnc-1)
			}
			if vtnc < lastVTNC {
				t.Fatalf("step %d: vtnc regressed %d -> %d", i, lastVTNC, vtnc)
			}
			lastVTNC = vtnc
			// The queue holds every live entry plus completed entries not
			// yet drained past the head; discarded entries leave at once.
			if got := c.QueueLen(); got < len(live) || got > registered-discarded {
				t.Fatalf("step %d: queue length %d outside [%d, %d]", i, got, len(live), registered-discarded)
			}
		}

		// Completing everything left must make every assigned number
		// visible: queue empty, vtnc caught up to tnc-1.
		for _, e := range live {
			c.Complete(e)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("after final drain: %v", err)
		}
		if c.QueueLen() != 0 {
			t.Fatalf("after final drain: queue length %d", c.QueueLen())
		}
		if vtnc, tnc := c.VTNC(), c.TNC(); vtnc != tnc-1 {
			t.Fatalf("after final drain: vtnc %d, want tnc-1 = %d", vtnc, tnc-1)
		}
	})
}
