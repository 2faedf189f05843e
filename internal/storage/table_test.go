package storage

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"
)

// TestLookupRacesInserts runs Get, Range and RangeOrdered readers with no
// lock against inserts that append in place (ascending keys), copy
// leaves and split them (keys between those), and against two
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
	go func() { // between them, shuffled: leaf copies and splits
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
