// Package index provides the ordered key index substrate: a concurrent
// skip list over strings. The multiversion store itself is hash-sharded
// for point-access speed; this index gives snapshot scans their ordered,
// prefix-bounded iteration without sorting per scan.
//
// Keys are only ever inserted (a deleted key still exists as a tombstone
// version chain), which keeps the concurrency story simple: a plain
// RWMutex suffices — insertions are rare relative to scans, the critical
// sections are tiny, and scans batch keys so user callbacks run outside
// the lock.
//
// The list keeps a finger on its tail: the last node of every level,
// maintained under the write lock. A key that sorts after every key
// present links in after those nodes without a search, so a bulk load or
// a log replay in key order inserts in O(height); any other key pays one
// comparison before the usual search from the head. A node with a tower
// of one or two levels — 15 of every 16 at a promotion probability of
// 1/4 — is allocated together with its tower, as one object; taller
// towers get a slice of their own.
package index

import (
	"fmt"
	"math/rand"
	"sync"
)

const (
	maxHeight = 20
	pBranch   = 4 // 1/4 promotion probability
)

type node struct {
	key  string
	next []*node
}

// node1 and node2 are a node and its tower in one allocation.
type node1 struct {
	n     node
	tower [1]*node
}

type node2 struct {
	n     node
	tower [2]*node
}

func newNode(key string, h int) *node {
	switch h {
	case 1:
		a := &node1{n: node{key: key}}
		a.n.next = a.tower[:]
		return &a.n
	case 2:
		a := &node2{n: node{key: key}}
		a.n.next = a.tower[:]
		return &a.n
	}
	return &node{key: key, next: make([]*node, h)}
}

// SkipList is an ordered set of string keys, safe for concurrent use.
type SkipList struct {
	mu     sync.RWMutex
	head   *node
	height int
	length int
	rng    *rand.Rand
	// tail[lvl] is the last node of level lvl, head while it is empty.
	tail [maxHeight]*node
}

// New creates an empty skip list. seed fixes the tower-height sequence
// (useful for deterministic tests; pass any value otherwise).
func New(seed int64) *SkipList {
	s := &SkipList{
		head:   &node{next: make([]*node, maxHeight)},
		height: 1,
		rng:    rand.New(rand.NewSource(seed)),
	}
	for lvl := range s.tail {
		s.tail[lvl] = s.head
	}
	return s
}

// Len returns the number of keys.
func (s *SkipList) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.length
}

// randomHeight draws a tower height with geometric distribution.
// Caller holds the write lock (the rng is not otherwise synchronized).
func (s *SkipList) randomHeight() int {
	h := 1
	for h < maxHeight && s.rng.Intn(pBranch) == 0 {
		h++
	}
	return h
}

// findPredecessors fills prev[i] with the rightmost node at level i whose
// key is < key. Caller holds at least the read lock.
func (s *SkipList) findPredecessors(key string, prev *[maxHeight]*node) {
	n := s.head
	for lvl := s.height - 1; lvl >= 0; lvl-- {
		for n.next[lvl] != nil && n.next[lvl].key < key {
			n = n.next[lvl]
		}
		prev[lvl] = n
	}
}

// Insert adds key; it reports whether the key was newly inserted.
func (s *SkipList) Insert(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	// A key after every key present (the head's "" sorts first) follows
	// each level's last node, and on a level above the list's height
	// that is the head, whatever the key.
	prev := s.tail
	if s.tail[0].key >= key {
		s.findPredecessors(key, &prev)
		if nxt := prev[0].next[0]; nxt != nil && nxt.key == key {
			return false
		}
	}
	h := s.randomHeight()
	s.height = max(s.height, h)
	n := newNode(key, h)
	for lvl := 0; lvl < h; lvl++ {
		n.next[lvl] = prev[lvl].next[lvl]
		prev[lvl].next[lvl] = n
		if n.next[lvl] == nil {
			s.tail[lvl] = n
		}
	}
	s.length++
	return true
}

// Contains reports whether key is present.
func (s *SkipList) Contains(key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := s.head
	for lvl := s.height - 1; lvl >= 0; lvl-- {
		for n.next[lvl] != nil && n.next[lvl].key < key {
			n = n.next[lvl]
		}
	}
	nxt := n.next[0]
	return nxt != nil && nxt.key == key
}

// Range calls fn for every key in [from, to) in ascending order, stopping
// early if fn returns false. An empty `to` means "no upper bound".
//
// The iteration holds the read lock in short stretches (batching keys)
// rather than across user callbacks, so a slow consumer cannot block
// inserters; keys inserted behind the cursor during iteration are simply
// not revisited, which is fine for snapshot scans (the snapshot read
// filters versions anyway, and keys cannot be removed).
func (s *SkipList) Range(from, to string, fn func(key string) bool) {
	const batch = 64
	buf := make([]string, 0, batch)
	cursor := from
	first := true
	for {
		buf = buf[:0]
		s.mu.RLock()
		n := s.head
		for lvl := s.height - 1; lvl >= 0; lvl-- {
			for n.next[lvl] != nil && n.next[lvl].key < cursor {
				n = n.next[lvl]
			}
		}
		n = n.next[0]
		if !first {
			// cursor was already delivered; skip it.
			if n != nil && n.key == cursor {
				n = n.next[0]
			}
		}
		for n != nil && len(buf) < batch {
			if to != "" && n.key >= to {
				break
			}
			buf = append(buf, n.key)
			n = n.next[0]
		}
		s.mu.RUnlock()
		if len(buf) == 0 {
			return
		}
		for _, k := range buf {
			if !fn(k) {
				return
			}
		}
		cursor = buf[len(buf)-1]
		first = false
	}
}

// RangePrefix calls fn for every key with the given prefix, ascending.
func (s *SkipList) RangePrefix(prefix string, fn func(key string) bool) {
	if prefix == "" {
		s.Range("", "", fn)
		return
	}
	s.Range(prefix, prefixUpperBound(prefix), fn)
}

// prefixUpperBound returns the smallest string greater than every string
// with the given prefix, or "" if none exists (prefix is all 0xFF).
func prefixUpperBound(prefix string) string {
	b := []byte(prefix)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] != 0xFF {
			b[i]++
			return string(b[:i+1])
		}
	}
	return ""
}

// Keys returns all keys in order (tests and tools).
func (s *SkipList) Keys() []string {
	out := make([]string, 0, s.Len())
	s.Range("", "", func(k string) bool {
		out = append(out, k)
		return true
	})
	return out
}

// CheckInvariants validates level ordering, reachability and the tail
// finger (tests).
func (s *SkipList) CheckInvariants() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for lvl := 0; lvl < maxHeight; lvl++ {
		last := s.head
		for n := s.head.next[lvl]; n != nil; n = n.next[lvl] {
			if last != s.head && n.key <= last.key {
				return fmt.Errorf("index: level %d out of order: %q !< %q", lvl, last.key, n.key)
			}
			last = n
		}
		if s.tail[lvl] != last {
			return fmt.Errorf("index: level %d tail finger %q is not its last node %q", lvl, s.tail[lvl].key, last.key)
		}
	}
	n0 := 0
	for n := s.head.next[0]; n != nil; n = n.next[0] {
		n0++
	}
	if n0 != s.length {
		return fmt.Errorf("index: level-0 count %d != length %d", n0, s.length)
	}
	return nil
}
