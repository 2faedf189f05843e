package index

import (
	"math/rand"
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

// FuzzIndex runs a byte-coded program against a Map and a sorted slice
// of key/value pairs, and fails when they disagree or an invariant
// breaks. A key's value is the number of the step that inserted it.
// Each step is three bytes: an opcode, a and b.
//
//	op%4 == 0  LoadOrInsert(fkey(a, b))
//	op%4 == 1  Get(fkey(a, b))
//	op%4 == 2  Range(fkey(a, 0), fkey(b, 0)), or unbounded above when b is
//	           0, stopping after op/4 keys when op/4 is not 0
//	op%4 == 3  LoadOrInsert fkey(a, i) for i < b: ascending, or descending
//	           when op/4 is odd — a run that fills and splits leaves
//
// fkey(a, b) is the one byte a when b is 0, else the two bytes a b.
func FuzzIndex(f *testing.F) {
	f.Add([]byte{3, 'm', 200, 7, 'a', 255, 0, 'm', 100, 2, 'a', 'z', 1, 'm', 5})
	f.Add([]byte{3, 2, 255, 3, 1, 255, 0, 2, 0, 10, 1, 0, 2, 0, 0})
	// Random order: single inserts scattered over four prefixes, each
	// range full enough to split, with lookups and bounded scans between.
	rng := rand.New(rand.NewSource(1))
	var random []byte
	for i := range 400 {
		random = append(random, byte(4*rng.Intn(4)), 'a'+byte(rng.Intn(4)), byte(rng.Intn(256)))
		if i%50 == 0 {
			random = append(random, 1, 'b', byte(rng.Intn(256)), 6, 'a', 'c')
		}
	}
	f.Add(random)
	// Split-heavy: eight descending runs, every insert in front of a full
	// leaf's keys, then eight ascending runs that fill new last leaves.
	// (TestDirectoryNodesSplitAndGrow covers inner nodes that split: a
	// seed that large slows every exec the fuzzer derives from it.)
	var splits []byte
	for a := byte('A'); a <= 'H'; a++ {
		splits = append(splits, 7, a, 255)
	}
	for a := byte('a'); a <= 'h'; a++ {
		splits = append(splits, 3, a, 255)
	}
	f.Add(append(splits, 2, 'M', 'c', 0, 'N', 7))
	f.Fuzz(func(t *testing.T, prog []byte) {
		fkey := func(a, b byte) string {
			if b == 0 {
				return string([]byte{a})
			}
			return string([]byte{a, b})
		}
		type kv struct {
			k string
			v int
		}
		cmp := func(e kv, k string) int { return strings.Compare(e.k, k) }
		var x Map[int]
		var model []kv
		step := 0
		insert := func(k string) {
			i, present := slices.BinarySearchFunc(model, k, cmp)
			want := kv{k, step}
			if present {
				want = model[i]
			}
			if v, inserted := x.LoadOrInsert(k, func() int { return step }); inserted == present || v != want.v {
				t.Fatalf("LoadOrInsert(%q) = %d, %t; want %d, %t", k, v, inserted, want.v, !present)
			}
			if !present {
				model = slices.Insert(model, i, want)
			}
		}
		for ; len(prog) >= 3; prog, step = prog[3:], step+1 {
			op, a, b := prog[0], prog[1], prog[2]
			switch op % 4 {
			case 0:
				insert(fkey(a, b))
			case 1:
				k := fkey(a, b)
				var want kv
				i, present := slices.BinarySearchFunc(model, k, cmp)
				if present {
					want = model[i]
				}
				if v, ok := x.Get(k); ok != present || v != want.v {
					t.Fatalf("Get(%q) = %d, %t; want %d, %t", k, v, ok, want.v, present)
				}
			case 2:
				from, to, limit := fkey(a, 0), "", int(op/4)
				if b != 0 {
					to = fkey(b, 0)
				}
				lo, _ := slices.BinarySearchFunc(model, from, cmp)
				hi := len(model)
				if to != "" {
					hi, _ = slices.BinarySearchFunc(model, to, cmp)
				}
				want := model[lo:max(lo, hi)]
				if limit > 0 && limit < len(want) {
					want = want[:limit]
				}
				var got []kv
				x.Range(from, to, func(k string, v int) bool {
					got = append(got, kv{k, v})
					return limit == 0 || len(got) < limit
				})
				if !slices.Equal(got, want) {
					t.Fatalf("Range(%q, %q) stopping at %d = %v, want %v", from, to, limit, got, want)
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
		var got []kv
		x.Range("", "", func(k string, v int) bool {
			got = append(got, kv{k, v})
			return true
		})
		if !slices.Equal(got, model) {
			t.Fatalf("Range = %v, want %v", got, model)
		}
	})
}
