package storage

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"
)

// TestLookupRacesInserts runs Get, Range and RangeOrdered readers with no
// lock against inserts that append in place (ascending keys), copy a
// leaf's order and split leaves (keys between those), and against two
// GetOrCreate calls on each of a run of fresh keys. Every key inserted
// before a reader began must be found, with its object; keys must
// ascend; the two racing calls must return one object.
func TestLookupRacesInserts(t *testing.T) {
	const n = 600
	s := NewStore(0)
	type rec struct {
		key string
		o   *Object
	}
	var mu sync.Mutex
	var done []rec // every insert that has returned, in the order they did
	inserted := func() []rec {
		mu.Lock()
		defer mu.Unlock()
		return done[:len(done):len(done)]
	}
	insert := func(key string) *Object {
		o := s.GetOrCreate(key)
		mu.Lock()
		done = append(done, rec{key, o})
		mu.Unlock()
		return o
	}

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 8)
	fail := func(format string, args ...any) {
		select {
		case errs <- fmt.Errorf(format, args...):
		default:
		}
	}
	writers.Add(3)
	go func() { // ascending: appends in place and new last leaves
		defer writers.Done()
		for i := range n {
			insert(fmt.Sprintf("k%05d", 4*i))
		}
	}()
	go func() { // between them, shuffled: order copies and splits
		defer writers.Done()
		for _, i := range rand.New(rand.NewPCG(1, 2)).Perm(n) {
			insert(fmt.Sprintf("k%05d", 4*i+1))
		}
	}()
	go func() { // two GetOrCreate calls racing on each fresh key
		defer writers.Done()
		for i := range n / 4 {
			key := fmt.Sprintf("k%05d", 4*(n-1-i)+2)
			other := make(chan *Object)
			go func() { other <- s.GetOrCreate(key) }()
			if o := insert(key); o != <-other {
				fail("two GetOrCreate calls on %q returned two objects", key)
			}
		}
	}()

	// check fails unless the keys a scan visited ascend and hold every
	// key of before that match has, with its object.
	check := func(what string, before []rec, match func(string) bool, scan func(func(string, *Object) bool)) {
		seen := map[string]*Object{}
		last := ""
		scan(func(k string, o *Object) bool {
			if len(seen) > 0 && k <= last {
				fail("%s: %q after %q", what, k, last)
			}
			seen[k], last = o, k
			return true
		})
		for _, r := range before {
			if match(r.key) && seen[r.key] != r.o {
				fail("%s missed %q or its object", what, r.key)
				return
			}
		}
	}
	readers.Add(3)
	go func() {
		defer readers.Done()
		rng := rand.New(rand.NewPCG(3, 4))
		for {
			select {
			case <-stop:
				return
			default:
			}
			before := inserted()
			for range 64 {
				if len(before) == 0 {
					break
				}
				r := before[rng.IntN(len(before))]
				if o := s.Get(r.key); o != r.o {
					fail("Get(%q) = %p, want %p", r.key, o, r.o)
				}
			}
		}
	}()
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			check("Range", inserted(), func(string) bool { return true }, s.Range)
		}
	}()
	go func() {
		defer readers.Done()
		rng := rand.New(rand.NewPCG(5, 6))
		for {
			select {
			case <-stop:
				return
			default:
			}
			prefix := fmt.Sprintf("k%03d", rng.IntN(60))
			check("RangeOrdered "+prefix, inserted(), func(k string) bool { return strings.HasPrefix(k, prefix) },
				func(fn func(string, *Object) bool) { s.RangeOrdered(prefix, fn) })
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()
	check("the last Range", inserted(), func(string) bool { return true }, s.Range)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if want := 2*n + n/4; s.Len() != want {
		t.Fatalf("Len = %d, want %d", s.Len(), want)
	}
}

// TestRangeKeysStayIntact: a key Range or RangeOrdered hands out is a
// view of the key table's bytes. Kept by the caller while inserts go on
// into the same leaves — in place, through copied orders, grown arenas
// and splits — it must stay byte-identical and keep finding its object.
func TestRangeKeysStayIntact(t *testing.T) {
	s := NewStore(0)
	rng := rand.New(rand.NewPCG(7, 8))
	keys := make([]string, 1500)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%0*d", 1+rng.IntN(30), i) // lengths vary: arenas grow
	}
	type held struct {
		key  string
		want []byte
		o    *Object
	}
	check := func(kept []held) {
		for _, h := range kept {
			if h.key != string(h.want) {
				t.Errorf("a handed-out key changed: %q, was %q", h.key, h.want)
				return
			}
			if o := s.Get(h.key); o != h.o {
				t.Errorf("Get(%q) = %p, want %p", h.key, o, h.o)
				return
			}
		}
	}
	var wg, started sync.WaitGroup
	done := make(chan struct{})
	for _, k := range keys[:100] { // the readers start with keys to keep
		s.GetOrCreate(k)
	}
	for r := range 2 {
		wg.Add(1)
		started.Add(1)
		go func() {
			defer wg.Done()
			var kept []held
			keep := func(k string, o *Object) bool {
				if len(kept) < 3000 {
					kept = append(kept, held{k, []byte(k), o})
				}
				return true
			}
			scan := func() {
				if r == 0 {
					s.Range(keep)
				} else {
					s.RangeOrdered("k0", keep)
				}
				check(kept)
			}
			scan()
			started.Done()
			for {
				select {
				case <-done:
					check(kept)
					return
				default:
					scan()
				}
			}
		}()
	}
	started.Wait() // the inserts race scans that have already kept keys
	for _, i := range rng.Perm(len(keys)) {
		s.GetOrCreate(keys[i])
	}
	close(done)
	wg.Wait()
}
