package index

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// insertOrders are the property test's four arrival orders: ascending
// (every insert appends to the last leaf), descending (every insert goes
// in front), shuffled, and ascending runs interleaved with keys below
// the last one.
var insertOrders = []struct {
	name  string
	order func(keys []string, rng *rand.Rand) []string
}{
	{"ascending", func(keys []string, _ *rand.Rand) []string {
		sort.Strings(keys)
		return keys
	}},
	{"descending", func(keys []string, _ *rand.Rand) []string {
		sort.Sort(sort.Reverse(sort.StringSlice(keys)))
		return keys
	}},
	{"random", func(keys []string, rng *rand.Rand) []string {
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		return keys
	}},
	{"interleaved", func(keys []string, rng *rand.Rand) []string {
		sort.Strings(keys)
		lo, hi := keys[:len(keys)/2], keys[len(keys)/2:]
		rng.Shuffle(len(lo), func(i, j int) { lo[i], lo[j] = lo[j], lo[i] })
		out := make([]string, 0, len(keys))
		for len(hi) > 0 || len(lo) > 0 {
			run := min(1+rng.Intn(4), len(hi))
			out = append(out, hi[:run]...)
			hi = hi[run:]
			if len(lo) > 0 {
				out = append(out, lo[0])
				lo = lo[1:]
			}
		}
		return out
	}},
}

// oddKeys returns n keys "k0001", "k0003", …: an even number between two
// of them sorts between them.
func oddKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = key(2*i + 1)
	}
	return keys
}

func key(i int) string { return fmt.Sprintf("k%04d", i) }

// load inserts keys in the named order, checking the invariants after
// every insert.
func load(t *testing.T, order func([]string, *rand.Rand) []string, keys []string) *Index {
	t.Helper()
	x := New(0)
	for _, k := range order(slices.Clone(keys), rand.New(rand.NewSource(1))) {
		if !x.Insert(k) {
			t.Fatalf("fresh key %q reported present", k)
		}
		if err := x.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	return x
}

// agree fails unless x holds exactly want (sorted).
func agree(t *testing.T, x *Index, want []string) {
	t.Helper()
	if err := x.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := x.Keys(); x.Len() != len(want) || !slices.Equal(got, want) {
		t.Fatalf("Keys %q Len %d, want %q", got, x.Len(), want)
	}
	for _, k := range want {
		if !x.Contains(k) {
			t.Fatalf("Contains(%q) = false", k)
		}
	}
}

// leaves returns the keys of each leaf of x's current directory.
func leaves(x *Index) [][]string {
	var out [][]string
	if d := x.m.dir.Load(); d != nil {
		for i := range *d {
			l := (*d)[i].leaf.Load()
			out = append(out, l.keys[:l.n.Load()])
		}
	}
	return out
}

func leafLens(x *Index) []int {
	var lens []int
	for _, l := range leaves(x) {
		lens = append(lens, len(l))
	}
	return lens
}

// TestLeafCapBoundaries: one key short of a full leaf, a full leaf, and
// one key over, in every arrival order.
func TestLeafCapBoundaries(t *testing.T) {
	for _, o := range insertOrders {
		for _, n := range []int{leafCap - 1, leafCap, leafCap + 1} {
			t.Run(fmt.Sprintf("%s/%d", o.name, n), func(t *testing.T) {
				keys := oddKeys(n)
				x := load(t, o.order, keys)
				agree(t, x, keys)
				if x.Insert(keys[n/2]) || x.Insert(keys[0]) || x.Insert(keys[n-1]) {
					t.Fatal("a duplicate insert reported new")
				}
				if wantLeaves := 1 + n/(leafCap+1); len(leaves(x)) != wantLeaves {
					t.Fatalf("%d keys in leaves %v, want %d leaves", n, leafLens(x), wantLeaves)
				}
			})
		}
	}
}

// TestInsertIntoFullLeaf: a key at the start, in the middle and at the
// end of a full leaf that is not the last one splits it in half, and the
// key lands on the side it sorts to.
func TestInsertIntoFullLeaf(t *testing.T) {
	const half = leafCap / 2
	for _, o := range insertOrders {
		for _, at := range []struct {
			name      string
			key       string
			wantLens  []int
			wantIndex int // the leaf the key lands in
		}{
			{"start", key(0), []int{half + 1, half, 1}, 0},
			{"middle", key(2 * half), []int{half + 1, half, 1}, 0},
			{"past-middle", key(2*half + 2), []int{half, half + 1, 1}, 1},
			{"end", key(2 * leafCap), []int{half, half + 1, 1}, 1},
		} {
			t.Run(o.name+"/"+at.name, func(t *testing.T) {
				keys := oddKeys(leafCap + 1) // a full leaf, then one key on a leaf of its own
				x := New(0)
				for _, k := range o.order(slices.Clone(keys[:leafCap]), rand.New(rand.NewSource(1))) {
					x.Insert(k)
				}
				x.Insert(keys[leafCap])
				if lens := leafLens(x); !slices.Equal(lens, []int{leafCap, 1}) {
					t.Fatalf("before the insert: leaves %v", lens)
				}
				if !x.Insert(at.key) {
					t.Fatalf("fresh key %q reported present", at.key)
				}
				if lens := leafLens(x); !slices.Equal(lens, at.wantLens) {
					t.Fatalf("after the insert: leaves %v, want %v", lens, at.wantLens)
				}
				if !slices.Contains(leaves(x)[at.wantIndex], at.key) {
					t.Fatalf("%q is not in leaf %d", at.key, at.wantIndex)
				}
				want := append(slices.Clone(keys), at.key)
				slices.Sort(want)
				agree(t, x, want)
			})
		}
	}
}

// TestRangeCursorLeafSplits: between two keys of a scan, inside fn, the
// leaf holding the cursor splits. The scan still delivers each key once, in
// order, with the keys inserted ahead of the cursor and without the one
// inserted behind it.
func TestRangeCursorLeafSplits(t *testing.T) {
	for _, o := range insertOrders {
		t.Run(o.name, func(t *testing.T) {
			keys := oddKeys(leafCap)
			x := load(t, o.order, keys)
			const cursor = leafCap / 2 // keys delivered before the split
			behind, ahead := key(0), []string{key(2 * cursor), key(2*leafCap - 4)}
			var got []string
			x.Range("", "", func(k string) bool {
				got = append(got, k)
				if len(got) == cursor {
					if len(leaves(x)) != 1 {
						t.Fatalf("leaves %v before the split", leafLens(x))
					}
					for _, k := range append([]string{behind}, ahead...) {
						x.Insert(k)
					}
					if len(leaves(x)) != 2 {
						t.Fatalf("leaves %v: the cursor's leaf did not split", leafLens(x))
					}
				}
				return true
			})
			want := append(slices.Clone(keys), ahead...)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("scan delivered %q, want %q", got, want)
			}
			agree(t, x, append([]string{behind}, want...))
		})
	}
}

// TestAscendingLoadFillsLeaves: a bulk load in key order leaves every
// leaf but the last full, so the leaves are at least 90 % full.
func TestAscendingLoadFillsLeaves(t *testing.T) {
	x := New(0)
	for i := range 4000 {
		x.Insert(fmt.Sprintf("key%06d", i))
	}
	if fill := float64(x.Len()) / float64(x.m.Leaves()*leafCap); fill < 0.9 {
		t.Fatalf("%d keys in %d leaves of %d: fill %.2f, want >= 0.9", x.Len(), x.m.Leaves(), leafCap, fill)
	}
}
