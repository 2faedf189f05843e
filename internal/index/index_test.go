package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestInsertAndContains(t *testing.T) {
	s := New(1)
	if !s.Insert("b") || !s.Insert("a") || !s.Insert("c") {
		t.Fatal("fresh inserts reported duplicate")
	}
	if s.Insert("b") {
		t.Fatal("duplicate insert reported new")
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
	for _, k := range []string{"a", "b", "c"} {
		if !s.Contains(k) {
			t.Fatalf("missing %q", k)
		}
	}
	if s.Contains("d") || s.Contains("") {
		t.Fatal("phantom membership")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOrderedIteration(t *testing.T) {
	s := New(2)
	want := []string{"alpha", "beta", "delta", "gamma", "omega"}
	for _, k := range []string{"gamma", "alpha", "omega", "delta", "beta"} {
		s.Insert(k)
	}
	if got := s.Keys(); !reflect.DeepEqual(got, want) {
		t.Fatalf("keys = %v", got)
	}
}

func TestRangeBounds(t *testing.T) {
	s := New(3)
	for i := 0; i < 20; i++ {
		s.Insert(fmt.Sprintf("k%02d", i))
	}
	var got []string
	s.Range("k05", "k10", func(k string) bool {
		got = append(got, k)
		return true
	})
	want := []string{"k05", "k06", "k07", "k08", "k09"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("range = %v", got)
	}
	// early stop
	n := 0
	s.Range("", "", func(string) bool { n++; return n < 7 })
	if n != 7 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestRangePrefix(t *testing.T) {
	s := New(4)
	for _, k := range []string{"a/1", "a/2", "ab", "b/1", "a", "a0"} {
		s.Insert(k)
	}
	var got []string
	s.RangePrefix("a/", func(k string) bool { got = append(got, k); return true })
	if !reflect.DeepEqual(got, []string{"a/1", "a/2"}) {
		t.Fatalf("prefix a/ = %v", got)
	}
	got = nil
	s.RangePrefix("a", func(k string) bool { got = append(got, k); return true })
	if !reflect.DeepEqual(got, []string{"a", "a/1", "a/2", "a0", "ab"}) {
		t.Fatalf("prefix a = %v", got)
	}
	got = nil
	s.RangePrefix("", func(k string) bool { got = append(got, k); return true })
	if len(got) != 6 {
		t.Fatalf("empty prefix visited %d", len(got))
	}
}

func TestPrefixUpperBound(t *testing.T) {
	tests := []struct{ in, want string }{
		{"a", "b"},
		{"az", "a{"},
		{"a\xff", "b"},
		{"\xff\xff", ""},
		{"k0", "k1"},
	}
	for _, tc := range tests {
		if got := prefixUpperBound(tc.in); got != tc.want {
			t.Errorf("prefixUpperBound(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// Property: the index agrees with a sorted, deduplicated slice,
// whatever order the keys arrive in (insertOrders), with duplicates
// re-inserted. Range, Contains and Len agree, and the invariants hold
// after every insert.
func TestPropertyMatchesSortedSet(t *testing.T) {
	for _, o := range insertOrders {
		t.Run(o.name, func(t *testing.T) {
			f := func(raw []string, seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				set := map[string]bool{}
				for i, k := range raw {
					if len(k) > 12 {
						raw[i] = k[:12]
					}
					set[raw[i]] = true
				}
				for i := 0; i < len(raw)/4; i++ { // duplicates
					raw = append(raw, raw[rng.Intn(len(raw))])
				}
				s := New(99)
				for _, k := range o.order(raw, rng) {
					s.Insert(k)
					if err := s.CheckInvariants(); err != nil {
						t.Log(err)
						return false
					}
				}
				want := make([]string, 0, len(set))
				for k := range set {
					want = append(want, k)
				}
				sort.Strings(want)
				if got := s.Keys(); s.Len() != len(want) || !slices.Equal(got, want) {
					t.Logf("Keys %q Len %d, want %q", got, s.Len(), want)
					return false
				}
				for _, k := range want {
					if !s.Contains(k) || s.Contains(k+"\x00") != set[k+"\x00"] {
						t.Logf("Contains disagrees around %q", k)
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestConcurrentInsertAndScan(t *testing.T) {
	s := New(5)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Scanners verify order continuously.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				prev := ""
				first := true
				s.Range("", "", func(k string) bool {
					if !first && k <= prev {
						panic("out of order iteration")
					}
					prev, first = k, false
					return true
				})
			}
		}()
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				s.Insert(fmt.Sprintf("key%06d", rng.Intn(5000)))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		// wait for inserters only (indexes 2..5 of the waitgroup) — just
		// give them time, then stop scanners.
		for s.Len() < 100 {
		}
		close(done)
	}()
	<-done
	close(stop)
	wg.Wait()
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkInsert inserts fresh keys in key order — a bulk load or a
// log replay, which appends to the last leaf — and in a scattered order,
// which searches the leaves and splits full ones.
// BenchmarkInsert inserts b.N keys in ascending order, and in a random
// one: a shuffled permutation, as TestRandomInsertCostIsFlat inserts.
func BenchmarkInsert(b *testing.B) {
	for _, bc := range []struct {
		name  string
		order func(n int) []int
	}{
		{"ascending", func(n int) []int {
			p := make([]int, n)
			for i := range p {
				p[i] = i
			}
			return p
		}},
		{"random", func(n int) []int { return rand.New(rand.NewSource(1)).Perm(n) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			order := bc.order(b.N)
			s := New(1)
			b.ReportAllocs()
			b.ResetTimer()
			for _, k := range order {
				s.Insert(fmt.Sprintf("key%09d", k))
			}
		})
	}
}

func BenchmarkRangeScan(b *testing.B) {
	s := New(1)
	for i := 0; i < 100_000; i++ {
		s.Insert(fmt.Sprintf("key%06d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		s.RangePrefix("key0012", func(string) bool { n++; return true })
		if n != 100 {
			b.Fatalf("scanned %d", n)
		}
	}
}
