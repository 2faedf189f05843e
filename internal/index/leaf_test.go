package index

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
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

// leaves returns the keys of each leaf of x's current directory, in
// order.
func leaves(x *Index) [][]string {
	var out [][]string
	if r := x.m.root.Load(); r != nil {
		for i := range *r {
			in := *(*r)[i].ptr.Load()
			for k := range in {
				l := in[k].ptr
				var keys []string
				for p, j := l.order.Load(), 0; j < leafCap && p.at(j) >= 0; j++ {
					keys = append(keys, l.key(p.at(j)))
				}
				out = append(out, keys)
			}
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

// TestDirectoryNodesSplitAndGrow: 20 000 keys in every arrival order
// outgrow one inner node. Full nodes split in half, a key order load
// starts new last nodes and leaves every node but the last full, and the
// table agrees with its keys.
func TestDirectoryNodesSplitAndGrow(t *testing.T) {
	keys := make([]string, 20_000)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%06d", i)
	}
	for _, o := range insertOrders {
		t.Run(o.name, func(t *testing.T) {
			x := New(0)
			for _, k := range o.order(slices.Clone(keys), rand.New(rand.NewSource(1))) {
				x.Insert(k)
			}
			agree(t, x, keys)
			r := *x.m.root.Load()
			if len(r) < 2 {
				t.Fatalf("%d leaves in %d inner node", x.m.Leaves(), len(r))
			}
			if o.name == "ascending" {
				for i := range r[:len(r)-1] {
					if n := len(*r[i].ptr.Load()); n != fanout {
						t.Fatalf("inner node %d of %d holds %d leaves, want %d", i, len(r), n, fanout)
					}
				}
			}
		})
	}
}

// TestRandomInsertCostIsFlat: the heap bytes one insert in random key
// order allocates, on average over a fixed batch, at 10⁴, 10⁵ and 4·10⁵
// keys. An insert writes into its leaf in place and copies at most the
// leaf's 128-byte order; a split copies one leaf into two and one inner
// node: so the figure does not grow with the table. A table that copies
// the leaf at every insert and the whole directory at every split reads
// ≈ 3 kB rising to ≈ 4 kB.
func TestRandomInsertCostIsFlat(t *testing.T) {
	const batch = 20_000
	sizes := []int{10_000, 100_000, 400_000}
	keys := make([]string, sizes[len(sizes)-1]+batch)
	for i, v := range rand.New(rand.NewSource(1)).Perm(len(keys)) {
		keys[i] = fmt.Sprintf("key%09d", v)
	}
	x := New(0)
	var per []float64
	for _, n := range sizes {
		for _, k := range keys[x.Len():n] {
			x.Insert(k)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, k := range keys[n : n+batch] {
			x.Insert(k)
		}
		runtime.ReadMemStats(&after)
		per = append(per, float64(after.TotalAlloc-before.TotalAlloc)/batch)
	}
	t.Logf("bytes an insert allocates at %v keys: %.0f", sizes, per)
	if lo, hi := slices.Min(per), slices.Max(per); hi > 1.5*lo || hi > 250 {
		t.Fatalf("bytes an insert allocates at %v keys: %.0f; want within 1.5× of each other and <= 250", sizes, per)
	}
}

// TestHandedOutKeysStayIntact: a key a scan hands out, and a directory
// entry's first key, is a view of a leaf's arena. Taken while inserts go
// on into the same leaves — in place, through copied orders, grown
// arenas and splits — each must stay byte-identical and keep finding
// its own value.
func TestHandedOutKeysStayIntact(t *testing.T) {
	// Keys of 1 to 40 bytes in random order: a later key often outgrows
	// an arena sized for the keys before it.
	rng := rand.New(rand.NewSource(7))
	keys := make([]string, 3000)
	for i := range keys {
		keys[i] = fmt.Sprintf("%0*d", 1+rng.Intn(40), i)
	}
	var m Map[int]
	type held struct {
		key  string
		want []byte
		v    int
	}
	check := func(h []held) {
		for _, h := range h {
			if h.key != string(h.want) {
				t.Errorf("a handed-out key changed: %q, was %q", h.key, h.want)
				return
			}
			if v, ok := m.Get(h.key); !ok || v != h.v {
				t.Errorf("Get(%q) = %d, %t; want %d", h.key, v, ok, h.v)
				return
			}
		}
	}
	// take hands out every key once, by a scan, and every directory
	// entry's first key, and keeps one key in five.
	take := func(rng *rand.Rand) (kept []held) {
		m.Range("", "", func(k string, v int) bool {
			if k != keys[v] {
				t.Errorf("scan handed out %q for %q", k, keys[v])
			}
			if rng.Intn(5) == 0 {
				kept = append(kept, held{k, []byte(k), v})
			}
			return true
		})
		if r := m.root.Load(); r != nil {
			for i := range *r {
				in := *(*r)[i].ptr.Load()
				for k := range in[1:] {
					f := in[k+1].first
					if v, ok := m.Get(f); ok {
						kept = append(kept, held{f, []byte(f), v})
					}
				}
			}
		}
		return kept
	}
	order := rng.Perm(len(keys))
	for _, i := range order[:300] { // the readers start with keys to keep
		m.LoadOrInsert(keys[i], func() int { return i })
	}
	done := make(chan struct{})
	var wg, started sync.WaitGroup
	var final [][]held
	var mu sync.Mutex
	for r := range 2 {
		wg.Add(1)
		started.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			kept := take(rng)
			started.Done()
			for {
				select {
				case <-done:
					mu.Lock()
					final = append(final, kept)
					mu.Unlock()
					return
				default:
				}
				kept = append(kept, take(rng)...)
				check(kept)
				if len(kept) > 4000 {
					kept = kept[len(kept)-2000:]
				}
			}
		}()
	}
	started.Wait() // the inserts race scans that have already kept keys
	for _, i := range order[300:] {
		m.LoadOrInsert(keys[i], func() int { return i })
	}
	close(done)
	wg.Wait()
	for _, kept := range final {
		check(kept)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLongKeysAreNotMultiplied: a leaf's arena is sized for a full leaf
// of keys like the ones it holds, but a long key must not be multiplied
// by the leaf's capacity. A 1 MB key into an empty table, and one that
// starts a new last leaf, each allocate a small multiple of the key.
func TestLongKeysAreNotMultiplied(t *testing.T) {
	const size = 1 << 20
	for _, small := range []int{0, leafCap} { // the long key goes into the first leaf; into a new last leaf
		var m Map[int]
		for i := range small {
			m.LoadOrInsert(fmt.Sprintf("a%03d", i), func() int { return i })
		}
		key := "b" + string(make([]byte, size))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m.LoadOrInsert(key, func() int { return -1 })
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 3*size {
			t.Errorf("after %d keys, inserting a %d-byte key allocated %d bytes; want <= %d", small, len(key), got, 3*size)
		}
		if v, ok := m.Get(key); !ok || v != -1 || m.Leaves() != 1+small/leafCap {
			t.Errorf("after %d keys: Get(long key) = %d, %t; %d leaves", small, v, ok, m.Leaves())
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestKeyLongerThanMaxKeyPanics: with keys of at most MaxKey bytes a
// full leaf's arena fits its 32-bit offsets; a longer key is refused
// before anything is written.
func TestKeyLongerThanMaxKeyPanics(t *testing.T) {
	var m Map[int]
	m.LoadOrInsert("a", func() int { return 1 })
	defer func() {
		if recover() == nil {
			t.Fatal("LoadOrInsert took a key longer than MaxKey")
		}
		if m.Len() != 1 {
			t.Fatalf("Len() = %d after a refused key; want 1", m.Len())
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}()
	m.LoadOrInsert(string(make([]byte, MaxKey+1)), func() int { return 2 })
}

// TestScansRaceInnerNodeSplits: scans cross from one inner node to the
// next while inserts split leaves and inner nodes. Every key inserted
// before a scan began must be visited, in ascending order.
func TestScansRaceInnerNodeSplits(t *testing.T) {
	const n = 12_000 // even keys loaded in order fill ≈ 1.5 inner nodes
	var m Map[int]
	key := func(i int) string { return fmt.Sprintf("k%06d", i) }
	for i := range n {
		m.LoadOrInsert(key(2*i), func() int { return 2 * i })
	}
	perm := rand.New(rand.NewSource(3)).Perm(n)
	var done atomic.Int64 // perm[:done] are inserted
	stop := make(chan struct{})
	var scanners sync.WaitGroup
	for range 2 {
		scanners.Add(1)
		go func() {
			defer scanners.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				before := perm[:done.Load()]
				var seen []string
				m.Range("", "", func(k string, v int) bool {
					if k != key(v) || len(seen) > 0 && k <= seen[len(seen)-1] {
						t.Errorf("scan visited %q (value %d) after %d keys", k, v, len(seen))
					}
					seen = append(seen, k)
					return true
				})
				for i := range n {
					if _, ok := slices.BinarySearch(seen, key(2*i)); !ok {
						t.Errorf("a scan missed %s, loaded before it began", key(2*i))
						return
					}
				}
				for _, i := range before {
					if _, ok := slices.BinarySearch(seen, key(2*i+1)); !ok {
						t.Errorf("a scan missed %s, inserted before it began", key(2*i+1))
						return
					}
				}
			}
		}()
	}
	for _, i := range perm {
		m.LoadOrInsert(key(2*i+1), func() int { return 2*i + 1 })
		done.Add(1)
	}
	close(stop)
	scanners.Wait()
	if r := *m.root.Load(); len(r) < 3 {
		t.Fatalf("%d inner nodes; want inner nodes to have split", len(r))
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
