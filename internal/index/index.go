// Package index provides the ordered key table the multiversion store is
// built on: a map from string keys to values, kept as a sorted run of
// sorted leaves, that point lookups and scans read without a lock.
//
// A leaf holds up to leafCap keys in order, each key's value beside it,
// and a hash of its keys' positions for point lookups: leafCap*2 one-byte
// slots, packed eight to an atomic word, each 0 or a position + 1, probed
// linearly. A directory of the leaves' first keys, searched by their
// 8-byte big-endian prefixes, finds the leaf.
//
// Keys are only ever inserted (a deleted key still exists as a tombstone
// version chain). Inserts are serialised by one mutex; readers take none
// (DESIGN.md §16):
//
//   - a key after a leaf's last key, with room in the leaf, is written
//     into its slot, then into the hash, then the leaf's length is
//     published: a reader that sees the hash entry or the length sees
//     the key;
//   - any other insert builds a new leaf — a copy with the key in place,
//     two halves of a full leaf split, or a new last leaf — and publishes
//     it whole: a copy by a store into its directory entry, a split in a
//     new directory, a new last leaf in the directory's array past its
//     length (where no reader of it looks) or in a new one. A leaf once
//     replaced is never written again, so a reader that still holds it
//     reads it whole.
//
// A key after every key present appends to the last leaf, or starts a
// new one when that is full, so a bulk load, a checkpoint replay or a
// log replay in key order fills every leaf; any other insert into a full
// leaf splits it in half.
package index

import (
	"sort"
	"sync"
	"sync/atomic"
)

const (
	// leafCap is a leaf's capacity. EXPERIMENTS P11 has the measurements
	// it was chosen by.
	leafCap = 128
	// hashSlots is a leaf hash's size: at most half full.
	hashSlots = 2 * leafCap
)

// Map is an ordered table from string keys to values, safe for
// concurrent use. The zero Map is empty and ready to use.
type Map[V any] struct {
	mu  sync.Mutex // serialises inserts
	dir atomic.Pointer[directory[V]]
	n   atomic.Int64
}

// directory lists the leaves in key order. An entry's pre and first are
// its leaf's first key as a big-endian prefix and whole; leaf 0's are
// never compared: it takes every key below leaf 1's. A leaf's first key
// changes only in a copy of leaf 0, and a split or a new leaf makes a
// new directory, so entries 1 and up stay true while the directory is
// current.
type directory[V any] []entry[V]

type entry[V any] struct {
	pre   uint64
	first string
	leaf  atomic.Pointer[leaf[V]]
}

type leaf[V any] struct {
	n    atomic.Int32                 // the published length
	hash [hashSlots / 8]atomic.Uint64 // position + 1 of the key hashed to each byte; 0 empty
	keys [leafCap]string              // ascending; written before n or the hash says so
	vals [leafCap]V
}

// Len returns the number of keys.
func (m *Map[V]) Len() int { return int(m.n.Load()) }

// Get returns key's value, and whether the key is present.
func (m *Map[V]) Get(key string) (v V, ok bool) {
	d := m.dir.Load()
	if d == nil {
		return v, false
	}
	l := (*d)[d.search(key)].leaf.Load()
	if p := l.find(key); p >= 0 {
		return l.vals[p], true
	}
	return v, false
}

// LoadOrInsert returns key's value if the key is present; otherwise it
// inserts the value mk returns. inserted reports which.
func (m *Map[V]) LoadOrInsert(key string, mk func() V) (v V, inserted bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.dir.Load()
	if d == nil {
		d = &directory[V]{{}}
		(*d)[0].leaf.Store(new(leaf[V]))
	}
	i := d.search(key)
	l := (*d)[i].leaf.Load()
	if p := l.find(key); p >= 0 {
		return l.vals[p], false
	}
	v = mk()
	n := int(l.n.Load())
	j := n
	if n > 0 && key < l.keys[n-1] {
		j = sort.SearchStrings(l.keys[:n], key)
	}
	switch {
	case j == n && n < leafCap: // in place
		l.keys[n], l.vals[n] = key, v
		l.index(n)
		l.n.Store(int32(n + 1))
	case j == n && i == len(*d)-1: // a new last leaf
		nl := new(leaf[V])
		nl.put(0, key, v)
		nl.seal()
		d = d.with(i+1, i+1, nl)
	case n < leafCap:
		nl := l.copy(0, n)
		nl.put(j, key, v)
		nl.moved(l, j)
		(*d)[i].leaf.Store(nl)
	default: // split
		const half = leafCap / 2
		left, right := l.copy(0, half), l.copy(half, leafCap)
		if j <= half {
			left.put(j, key, v)
		} else {
			right.put(j-half, key, v)
		}
		left.seal()
		right.seal()
		d = d.with(i, i+1, left, right)
	}
	m.dir.Store(d)
	m.n.Add(1)
	return v, true
}

// with returns d with leaves in place of its entries i to end: a new
// directory, or, for a leaf appended where d's array has room, the
// array one entry longer (a reader of d never looks past its length).
func (d directory[V]) with(i, end int, leaves ...*leaf[V]) *directory[V] {
	var nd directory[V]
	if i == len(d) && i < cap(d) {
		nd = d[:i+1]
	} else {
		nd = make(directory[V], len(d)-(end-i)+len(leaves), 2*len(d)+1)
		nd[:i].copy(d[:i])
		nd[i+len(leaves):].copy(d[end:])
	}
	for k, l := range leaves {
		nd[i+k].set(l)
	}
	return &nd
}

// copy copies src's entries into d.
func (d directory[V]) copy(src directory[V]) {
	for k := range src {
		d[k].pre, d[k].first = src[k].pre, src[k].first
		d[k].leaf.Store(src[k].leaf.Load())
	}
}

func (e *entry[V]) set(l *leaf[V]) {
	e.pre, e.first = prefix(l.keys[0]), l.keys[0]
	e.leaf.Store(l)
}

// search returns the leaf that holds key if anything does: the last one
// whose first key is <= key, or leaf 0.
func (d directory[V]) search(key string) int {
	p := prefix(key)
	lo, hi := 1, len(d)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if e := &d[h]; e.pre < p || e.pre == p && e.first <= key {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo - 1
}

// find returns key's position in l, or -1.
func (l *leaf[V]) find(key string) int {
	for s := slot(key); ; s = (s + 1) % hashSlots {
		b := uint8(l.hash[s/8].Load() >> (s % 8 * 8))
		if b == 0 {
			return -1
		}
		if l.keys[b-1] == key {
			return int(b) - 1
		}
	}
}

// index enters position p into l's hash.
func (l *leaf[V]) index(p int) {
	for s := slot(l.keys[p]); ; s = (s + 1) % hashSlots {
		w := &l.hash[s/8]
		if x := w.Load(); uint8(x>>(s%8*8)) == 0 {
			w.Store(x | uint64(p+1)<<(s%8*8))
			return
		}
	}
}

// copy returns a new leaf holding l's keys and values lo to hi, with no
// hash until seal builds it.
func (l *leaf[V]) copy(lo, hi int) *leaf[V] {
	nl := new(leaf[V])
	copy(nl.keys[:], l.keys[lo:hi])
	copy(nl.vals[:], l.vals[lo:hi])
	nl.n.Store(int32(hi - lo))
	return nl
}

// put inserts key and v at position j of a leaf no reader holds yet.
func (l *leaf[V]) put(j int, key string, v V) {
	n := int(l.n.Load())
	copy(l.keys[j+1:n+1], l.keys[j:n])
	copy(l.vals[j+1:n+1], l.vals[j:n])
	l.keys[j], l.vals[j] = key, v
	l.n.Store(int32(n + 1))
}

// seal builds the hash of a leaf no reader holds yet.
func (l *leaf[V]) seal() {
	for p := range int(l.n.Load()) {
		l.index(p)
	}
}

// moved builds the hash of l, a copy of from with a key put at j: from's
// hash with each position from j on one higher, then j. A byte b <= 127
// sets bit 7 once 127-j is added only if b > j, and no byte carries.
func (l *leaf[V]) moved(from *leaf[V], j int) {
	const ones = 0x0101010101010101
	for s := range from.hash {
		x := from.hash[s].Load()
		l.hash[s].Store(x + (x+(127-uint64(j))*ones)&(0x80*ones)>>7)
	}
	l.index(j)
}

// prefix returns key's first 8 bytes, big-endian, zero-padded: an order
// that agrees with the keys' wherever two prefixes differ.
func prefix(key string) uint64 {
	if len(key) >= 8 {
		return uint64(key[0])<<56 | uint64(key[1])<<48 | uint64(key[2])<<40 | uint64(key[3])<<32 |
			uint64(key[4])<<24 | uint64(key[5])<<16 | uint64(key[6])<<8 | uint64(key[7])
	}
	var p uint64
	for i := range len(key) {
		p |= uint64(key[i]) << (56 - 8*i)
	}
	return p
}

// slot returns key's first slot in a leaf hash: the top byte of a
// multiplicative hash of its 8-byte words.
func slot(key string) uint {
	h := uint64(len(key))
	for {
		h = (h ^ prefix(key)) * 0x9e3779b97f4a7c15
		if len(key) <= 8 {
			return uint(h >> 56)
		}
		key = key[8:]
	}
}

// Range calls fn for every key in [from, to) and its value, in ascending
// order, stopping early if fn returns false. An empty `to` means "no
// upper bound". fn runs with no lock held and may insert: a key inserted
// ahead of the scan's cursor is visited, one behind it is not.
func (m *Map[V]) Range(from, to string, fn func(key string, v V) bool) {
	d, i, l, j := m.seek(from, false)
	for d != nil {
		if j == int(l.n.Load()) {
			if i++; i == len(*d) {
				return
			}
			l, j = (*d)[i].leaf.Load(), 0
			continue
		}
		k := l.keys[j]
		if to != "" && k >= to || !fn(k, l.vals[j]) {
			return
		}
		j++
		if m.dir.Load() != d || (*d)[i].leaf.Load() != l { // an insert replaced the leaf
			d, i, l, j = m.seek(k, true)
		}
	}
}

// seek returns the current directory, and the leaf and position of the
// first key at or after from (after it, if after is set).
func (m *Map[V]) seek(from string, after bool) (d *directory[V], i int, l *leaf[V], j int) {
	if d = m.dir.Load(); d == nil {
		return nil, 0, nil, 0
	}
	i = d.search(from)
	l = (*d)[i].leaf.Load()
	keys := l.keys[:l.n.Load()]
	j = sort.SearchStrings(keys, from)
	if after && j < len(keys) && keys[j] == from {
		j++
	}
	return d, i, l, j
}

// RangePrefix calls fn for every key with the given prefix, ascending.
func (m *Map[V]) RangePrefix(prefix string, fn func(key string, v V) bool) {
	if prefix == "" {
		m.Range("", "", fn)
		return
	}
	m.Range(prefix, prefixUpperBound(prefix), fn)
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

// Leaves returns the number of leaves (tests and tools).
func (m *Map[V]) Leaves() int {
	if d := m.dir.Load(); d != nil {
		return len(*d)
	}
	return 0
}

// Index is an ordered set of string keys, safe for concurrent use: a Map
// with no values.
type Index struct{ m Map[struct{}] }

// New creates an empty index. seed is unused: the layout has no random
// choices.
func New(seed int64) *Index { return &Index{} }

// Len returns the number of keys.
func (x *Index) Len() int { return x.m.Len() }

// Insert adds key; it reports whether the key was newly inserted.
func (x *Index) Insert(key string) bool {
	_, inserted := x.m.LoadOrInsert(key, func() struct{} { return struct{}{} })
	return inserted
}

// Contains reports whether key is present.
func (x *Index) Contains(key string) bool {
	_, ok := x.m.Get(key)
	return ok
}

// Range calls fn for every key in [from, to) in ascending order, as
// Map.Range does.
func (x *Index) Range(from, to string, fn func(key string) bool) {
	x.m.Range(from, to, func(k string, _ struct{}) bool { return fn(k) })
}

// RangePrefix calls fn for every key with the given prefix, ascending.
func (x *Index) RangePrefix(prefix string, fn func(key string) bool) {
	x.m.RangePrefix(prefix, func(k string, _ struct{}) bool { return fn(k) })
}
