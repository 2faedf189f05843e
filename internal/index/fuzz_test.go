package index

import (
	"slices"
	"strings"
	"testing"
)

// FuzzPrefixUpperBound: for any prefix and key, key having the prefix
// implies prefix <= key < upperBound (when a bound exists), and keys
// outside that window never have the prefix.
func FuzzPrefixUpperBound(f *testing.F) {
	f.Add("a", "abc")
	f.Add("", "anything")
	f.Add("\xff", "\xff\x00")
	f.Add("k0", "k00")
	f.Fuzz(func(t *testing.T, prefix, key string) {
		ub := prefixUpperBound(prefix)
		has := strings.HasPrefix(key, prefix)
		inWindow := key >= prefix && (ub == "" || key < ub)
		if has && !inWindow {
			t.Fatalf("key %q has prefix %q but outside window [%q,%q)", key, prefix, prefix, ub)
		}
		if !has && inWindow && prefix != "" {
			t.Fatalf("key %q lacks prefix %q but inside window [%q,%q)", key, prefix, prefix, ub)
		}
	})
}

// FuzzIndex runs a byte-coded program against an Index and a sorted
// slice, and fails when they disagree or an invariant breaks. Each step
// is three bytes: an opcode, a and b.
//
//	op%4 == 0  Insert(fkey(a, b))
//	op%4 == 1  Contains(fkey(a, b))
//	op%4 == 2  Range(fkey(a, 0), fkey(b, 0)), or unbounded above when b is
//	           0, stopping after op/4 keys when op/4 is not 0
//	op%4 == 3  Insert fkey(a, i) for i < b: ascending, or descending when
//	           op/4 is odd — a run that fills and splits leaves
//
// fkey(a, b) is the one byte a when b is 0, else the two bytes a b.
func FuzzIndex(f *testing.F) {
	f.Add([]byte{3, 'm', 200, 7, 'a', 255, 0, 'm', 100, 2, 'a', 'z', 1, 'm', 5})
	f.Add([]byte{3, 2, 255, 3, 1, 255, 0, 2, 0, 10, 1, 0, 2, 0, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		fkey := func(a, b byte) string {
			if b == 0 {
				return string([]byte{a})
			}
			return string([]byte{a, b})
		}
		x := New(0)
		var model []string
		insert := func(k string) {
			i, present := slices.BinarySearch(model, k)
			if got := x.Insert(k); got == present {
				t.Fatalf("Insert(%q) = %t with the key present: %t", k, got, present)
			}
			if !present {
				model = slices.Insert(model, i, k)
			}
		}
		for ; len(prog) >= 3; prog = prog[3:] {
			op, a, b := prog[0], prog[1], prog[2]
			switch op % 4 {
			case 0:
				insert(fkey(a, b))
			case 1:
				k := fkey(a, b)
				if _, present := slices.BinarySearch(model, k); x.Contains(k) != present {
					t.Fatalf("Contains(%q) = %t, want %t", k, !present, present)
				}
			case 2:
				from, to, limit := fkey(a, 0), "", int(op/4)
				if b != 0 {
					to = fkey(b, 0)
				}
				lo, _ := slices.BinarySearch(model, from)
				hi := len(model)
				if to != "" {
					hi, _ = slices.BinarySearch(model, to)
				}
				want := model[lo:max(lo, hi)]
				if limit > 0 && limit < len(want) {
					want = want[:limit]
				}
				var got []string
				x.Range(from, to, func(k string) bool {
					got = append(got, k)
					return limit == 0 || len(got) < limit
				})
				if !slices.Equal(got, want) {
					t.Fatalf("Range(%q, %q) stopping at %d = %q, want %q", from, to, limit, got, want)
				}
			case 3:
				for i := range int(b) {
					if op/4%2 == 1 {
						i = int(b) - 1 - i
					}
					insert(fkey(a, byte(i)))
				}
			}
			if err := x.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if x.Len() != len(model) {
				t.Fatalf("Len = %d, want %d", x.Len(), len(model))
			}
		}
		if got := x.Keys(); !slices.Equal(got, model) {
			t.Fatalf("Keys = %q, want %q", got, model)
		}
	})
}
