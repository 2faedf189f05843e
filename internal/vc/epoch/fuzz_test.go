package epoch

import (
	"testing"

	"mvdb/internal/vc"
)

// FuzzVisibilityEquivalence is the differential oracle for the
// Controller interface split: one random register / complete / discard
// sequence, decoded exactly like FuzzVCLifecycle's, drives a strict
// controller and an epoch controller in lock step. Driven sequentially
// the two must agree — at every step — on tnc, on the visible prefix
// (both expose it as vtnc: every tn <= vtnc is visible, everything
// above is not), and on the read-only anchor, and after a final drain
// both must land on vtnc == tnc-1. Any divergence means one of the two
// implementations violated the Transaction Visibility Property.
//
// The epoch controller runs with a deliberately tiny shape (2 lanes × 4
// slots) so long inputs wrap its rings many times and exercise slot
// reuse and the capacity guard, not just the easy first generation.
func FuzzVisibilityEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0})                                           // register, complete it
	f.Add([]byte{0, 0, 2, 0})                                           // register, discard it
	f.Add([]byte{0, 0, 0, 0, 1, 1, 2, 0, 1, 0})                         // out-of-order resolution
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 9, 1, 8, 1, 7, 1, 0}) // deep batch
	f.Fuzz(func(t *testing.T, data []byte) {
		s := vc.New(0)
		e := NewWithShape(0, 2, 4)
		type pair struct{ hs, he *vc.Entry }
		var live []pair
		for i := 0; i < len(data); i++ {
			op := data[i] % 3
			arg := 0
			if i+1 < len(data) {
				i++
				arg = int(data[i])
			}
			switch op {
			case 0:
				// The tiny shape means a register can block on the
				// capacity guard once the watermark distance fills the
				// ring; with everything sequential that would deadlock,
				// so stop accepting registers at the window edge —
				// exactly where a real client would block in Register.
				if e.TNC()-1-e.VTNC() >= e.capacity {
					continue
				}
				live = append(live, pair{s.Register(), e.Register()})
			case 1:
				if len(live) > 0 {
					j := arg % len(live)
					s.Complete(live[j].hs)
					e.Complete(live[j].he)
					live = append(live[:j], live[j+1:]...)
				}
			case 2:
				if len(live) > 0 {
					j := arg % len(live)
					s.Discard(live[j].hs)
					e.Discard(live[j].he)
					live = append(live[:j], live[j+1:]...)
				}
			}
			if sv, ev := s.VTNC(), e.VTNC(); sv != ev {
				t.Fatalf("step %d: visible prefix diverged: strict vtnc %d, epoch vtnc %d", i, sv, ev)
			}
			if st, et := s.TNC(), e.TNC(); st != et {
				t.Fatalf("step %d: tnc diverged: strict %d, epoch %d", i, st, et)
			}
			if ss, es := s.Start(), e.Start(); ss != es {
				t.Fatalf("step %d: read-only anchor diverged: strict %d, epoch %d", i, ss, es)
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
		for _, p := range live {
			s.Complete(p.hs)
			e.Complete(p.he)
		}
		if sv, ev := s.VTNC(), e.VTNC(); sv != ev {
			t.Fatalf("final: strict vtnc %d, epoch vtnc %d", sv, ev)
		}
		if ev, et := e.VTNC(), e.TNC(); ev != et-1 {
			t.Fatalf("final: epoch vtnc %d, want tnc-1 = %d", ev, et-1)
		}
	})
}
