// Package index provides the ordered key index substrate: a sorted set of
// strings kept as a sorted run of sorted leaves. The multiversion store
// itself is hash-sharded for point-access speed; this index gives
// snapshot scans their ordered, prefix-bounded iteration without sorting
// per scan.
//
// Keys are only ever inserted (a deleted key still exists as a tombstone
// version chain), which keeps the concurrency story simple: a plain
// RWMutex suffices — insertions are rare relative to scans, the critical
// sections are tiny, and scans batch keys so user callbacks run outside
// the lock.
//
// A leaf is a []string of capacity leafCap, allocated once: a key costs
// its 16-byte string header and one allocation per leaf. A lookup
// searches the leaves' first keys, then one leaf. A key after every key
// present appends to the last leaf, or starts a new one when that is
// full, so a bulk load or a log replay in key order fills every leaf;
// any other insert into a full leaf splits it in half.
package index

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

const (
	// leafCap is a leaf's capacity. EXPERIMENTS P11 has the measurements
	// it was chosen by.
	leafCap = 128
	// scanBatch is how many keys a scan copies under one read lock.
	scanBatch = 64
)

// Index is an ordered set of string keys, safe for concurrent use.
type Index struct {
	mu sync.RWMutex
	// leaves are non-empty, each sorted, and each leaf's keys sort
	// before the next leaf's.
	leaves [][]string
	length int
}

// New creates an empty index. seed is unused: the layout has no random
// choices.
func New(seed int64) *Index { return &Index{} }

// Len returns the number of keys.
func (x *Index) Len() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.length
}

// find returns the leaf that holds key if it is present, key's position
// in it, and whether it is present. The leaf is the last one whose first
// key is <= key, or the first leaf; the position may be the leaf's
// length. Caller holds at least the read lock.
func (x *Index) find(key string) (leaf, pos int, found bool) {
	if len(x.leaves) == 0 {
		return 0, 0, false
	}
	leaf = max(sort.Search(len(x.leaves), func(i int) bool { return x.leaves[i][0] > key })-1, 0)
	pos, found = slices.BinarySearch(x.leaves[leaf], key)
	return leaf, pos, found
}

// Insert adds key; it reports whether the key was newly inserted.
func (x *Index) Insert(key string) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	n := len(x.leaves)
	if n == 0 || key > x.leaves[n-1][len(x.leaves[n-1])-1] {
		if n == 0 || len(x.leaves[n-1]) == leafCap {
			x.leaves = append(x.leaves, make([]string, 0, leafCap))
			n++
		}
		x.leaves[n-1] = append(x.leaves[n-1], key)
		x.length++
		return true
	}
	i, j, found := x.find(key)
	if found {
		return false
	}
	if l := x.leaves[i]; len(l) == leafCap {
		const half = leafCap / 2
		right := append(make([]string, 0, leafCap), l[half:]...)
		clear(l[half:])
		x.leaves[i] = l[:half]
		x.leaves = slices.Insert(x.leaves, i+1, right)
		if j > half {
			i, j = i+1, j-half
		}
	}
	x.leaves[i] = slices.Insert(x.leaves[i], j, key)
	x.length++
	return true
}

// Contains reports whether key is present.
func (x *Index) Contains(key string) bool {
	x.mu.RLock()
	defer x.mu.RUnlock()
	_, _, found := x.find(key)
	return found
}

// Range calls fn for every key in [from, to) in ascending order, stopping
// early if fn returns false. An empty `to` means "no upper bound".
//
// The iteration holds the read lock in short stretches (batching keys)
// rather than across user callbacks, so a slow consumer cannot block
// inserters; keys inserted behind the cursor during iteration are simply
// not revisited, which is fine for snapshot scans (the snapshot read
// filters versions anyway, and keys cannot be removed).
func (x *Index) Range(from, to string, fn func(key string) bool) {
	var buf [scanBatch]string
	cursor, after := from, false
	for {
		n := x.batch(cursor, after, to, &buf)
		for _, k := range buf[:n] {
			if !fn(k) {
				return
			}
		}
		if n < scanBatch {
			return
		}
		cursor, after = buf[n-1], true
	}
}

// batch copies into buf the keys from cursor on (after it, if after is
// set) and below to, as many as fit, and returns how many it copied.
func (x *Index) batch(cursor string, after bool, to string, buf *[scanBatch]string) int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	i, j, found := x.find(cursor)
	if found && after {
		j++
	}
	n := 0
	for ; i < len(x.leaves); i, j = i+1, 0 {
		for _, k := range x.leaves[i][j:] {
			if n == scanBatch || (to != "" && k >= to) {
				return n
			}
			buf[n] = k
			n++
		}
	}
	return n
}

// RangePrefix calls fn for every key with the given prefix, ascending.
func (x *Index) RangePrefix(prefix string, fn func(key string) bool) {
	if prefix == "" {
		x.Range("", "", fn)
		return
	}
	x.Range(prefix, prefixUpperBound(prefix), fn)
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
func (x *Index) Keys() []string {
	x.mu.RLock()
	defer x.mu.RUnlock()
	out := make([]string, 0, x.length)
	for _, l := range x.leaves {
		out = append(out, l...)
	}
	return out
}

// CheckInvariants validates that every leaf is non-empty and within its
// capacity, that the keys ascend strictly within and across leaves, and
// that they number Len (tests).
func (x *Index) CheckInvariants() error {
	x.mu.RLock()
	defer x.mu.RUnlock()
	n, last := 0, ""
	for i, l := range x.leaves {
		if len(l) == 0 || cap(l) != leafCap {
			return fmt.Errorf("index: leaf %d holds %d keys in capacity %d", i, len(l), cap(l))
		}
		for _, k := range l {
			if n > 0 && k <= last {
				return fmt.Errorf("index: leaf %d out of order: %q !< %q", i, last, k)
			}
			n, last = n+1, k
		}
	}
	if n != x.length {
		return fmt.Errorf("index: %d keys in the leaves != length %d", n, x.length)
	}
	return nil
}
