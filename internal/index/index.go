// Package index provides the ordered key table the multiversion store is
// built on: a map from string keys to values, kept as a sorted run of
// leaves, that point lookups and scans read without a lock.
//
// A leaf holds up to leafCap keys. Each is written once, at the leaf's
// next free slot, and never moves while the leaf lives: its bytes
// appended to the leaf's byte arena, its end offset, its value, and its
// entry in a hash of the slots for point lookups (leafCap*2 one-byte
// entries, packed eight to an atomic word, each 0 or a slot + 1, probed
// linearly). Key order is a permutation of the slots, packed the same
// way. A two-level directory of the leaves' first keys, searched by their
// 8-byte big-endian prefixes, finds the leaf: a root of inner nodes, each
// listing up to fanout leaves.
//
// Keys are only ever inserted (a deleted key still exists as a tombstone
// version chain). Inserts are serialised by one mutex; readers take none
// (DESIGN.md §16):
//
//   - a key into a leaf with room is written into its slot, then into
//     the hash, then into the order: in place when it sorts last, where
//     no reader of the order looks yet, else in a copy of the order
//     published through the leaf's atomic pointer;
//   - a key after every key present, with the last leaf full, starts a
//     new last leaf;
//   - any other key into a full leaf splits it into two new leaves,
//     published in a copy of its inner node (or two, and a copy of the
//     root, when the node is full); then the old leaf is retired, its
//     order pointer set to nil, and never written again.
//
// A new leaf goes into its inner node past the node's length where the
// node's array has room, which no reader of the node looks at, and else
// into a copy with room to double; a new inner node goes into the root
// the same way. So a bulk load, a checkpoint replay or a log replay in
// key order fills every leaf and every node, and copies no leaf.
package index

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

const (
	// leafCap is a leaf's capacity. EXPERIMENTS P11 has the measurements
	// it was chosen by.
	leafCap = 128
	// hashSlots is a leaf hash's size: at most half full.
	hashSlots = 2 * leafCap
	// fanout is an inner node's capacity: a split copies one node of at
	// most this many 32-byte entries (EXPERIMENTS P15).
	fanout = 64
)

// MaxKey is the longest key a Map holds, so that a full leaf's keys fit
// the 32-bit offsets into its arena. LoadOrInsert panics on a longer key.
const MaxKey = math.MaxUint32 / leafCap

var _ uint32 = leafCap * MaxKey // a compile error if they do not fit

// Map is an ordered table from string keys to values, safe for
// concurrent use. The zero Map is empty and ready to use.
type Map[V any] struct {
	mu   sync.Mutex // serialises inserts
	root atomic.Pointer[[]entry[cell[V]]]
	n    atomic.Int64
}

// inner is a directory node: entries for its leaves, in key order. A
// node is never written once published, except past its length.
type inner[V any] []entry[leaf[V]]

// cell publishes the current copy of one inner node.
type cell[V any] = atomic.Pointer[inner[V]]

// entry is a directory entry: its node's first key as a big-endian
// prefix and whole, and the node. A node's first entry is never compared
// (search): it takes every key below the second's. Every other entry's
// key stays its node's first: a key below a leaf's first key goes to the
// leaf before it, and a split keeps the first key in its lower half.
type entry[P any] struct {
	pre   uint64
	first string
	ptr   *P
}

func ent[P any](first string, p *P) entry[P] { return entry[P]{prefix(first), first, p} }

// node returns a root entry for n, in a cell of its own.
func node[V any](n inner[V]) entry[cell[V]] {
	c := new(cell[V])
	c.Store(&n)
	return ent(n[0].first, c)
}

type leaf[V any] struct {
	n     int                          // slots written; read and written under Map.mu
	hash  [hashSlots / 8]atomic.Uint64 // slot + 1 of the key hashed to each byte; 0 empty
	ends  [leafCap + 1]uint32          // slot s's key is arena[ends[s]:ends[s+1]]; ends[0] is 0
	vals  [leafCap]V
	arena atomic.Pointer[[]byte] // the keys' bytes in slot order; len == cap
	order atomic.Pointer[perm]   // the slots in key order; nil once the leaf is retired
	own   perm                   // order's first array, until an insert out of order copies it
}

// perm lists a leaf's slots + 1 in key order, eight to a word, low byte
// first, and 0 past the last.
type perm [leafCap / 8]atomic.Uint64

var noBytes []byte // a new leaf's arena: never written

func newLeaf[V any]() *leaf[V] {
	l := new(leaf[V])
	l.arena.Store(&noBytes)
	l.order.Store(&l.own)
	return l
}

// Len returns the number of keys.
func (m *Map[V]) Len() int { return int(m.n.Load()) }

// Get returns key's value, and whether the key is present.
func (m *Map[V]) Get(key string) (v V, ok bool) {
	r := m.root.Load()
	if r == nil {
		return v, false
	}
	p := prefix(key)
	_, in, k := path(*r, p, key)
	l := in[k].ptr
	if s := l.find(key, p); s >= 0 {
		return l.vals[s], true
	}
	return v, false
}

// LoadOrInsert returns key's value if the key is present; otherwise it
// inserts the value mk returns. inserted reports which.
func (m *Map[V]) LoadOrInsert(key string, mk func() V) (v V, inserted bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.root.Load()
	if r == nil {
		r = &[]entry[cell[V]]{node(inner[V]{{ptr: newLeaf[V]()}})}
		m.root.Store(r)
	}
	p := prefix(key)
	i, in, k := path(*r, p, key)
	l := in[k].ptr
	if s := l.find(key, p); s >= 0 {
		return l.vals[s], false
	}
	if len(key) > MaxKey {
		panic("index: key longer than MaxKey")
	}
	v = mk()
	o, n := l.order.Load(), l.n
	j := n
	if n > 0 && key < l.key(o.at(n-1)) {
		j = l.rank(o, n, key)
	}
	switch {
	case n < leafCap:
		l.put(key, v, j)
	case j == n && i == len(*r)-1 && k == len(in)-1: // a new last leaf
		nl := newLeaf[V]()
		nl.put(key, v, 0)
		m.place(*r, i, in, k+1, k+1, ent(nl.low(), nl))
	default: // split
		lo, hi := l.split(key, v)
		m.place(*r, i, in, k, k+1, ent(lo.low(), lo), ent(hi.low(), hi))
		l.order.Store(nil)
	}
	m.n.Add(1)
	return v, true
}

// place publishes add in place of entries k to end of r's inner node i,
// in: in a copy of the node (in its own array, past its length, for a
// new last leaf with room); in two halves and a copy of the root when
// the node would outgrow fanout; or, for a new last leaf past a full
// last node, in a new last node.
func (m *Map[V]) place(r []entry[cell[V]], i int, in inner[V], k, end int, add ...entry[leaf[V]]) {
	if len(in)+len(add)-(end-k) <= fanout {
		ni := inner[V](with(in, k, end, add...))
		r[i].ptr.Store(&ni)
		return
	}
	var nodes []entry[cell[V]]
	if k == len(in) {
		nodes, i, end = []entry[cell[V]]{node(inner[V](add))}, i+1, i+1
	} else {
		ni := with(in, k, end, add...)
		h := len(ni) / 2
		nodes, end = []entry[cell[V]]{node(inner[V](slices.Clone(ni[:h]))), node(inner[V](slices.Clone(ni[h:])))}, i+1
	}
	nr := with(r, i, end, nodes...)
	m.root.Store(&nr)
}

// with returns es with entries i to end replaced by add. Entries past
// es's length go into its own array if it has room — no reader of es
// looks there — and else into a copy with room to grow; any other
// change is a copy.
func with[P any](es []entry[P], i, end int, add ...entry[P]) []entry[P] {
	if i == len(es) {
		return append(es, add...)
	}
	return slices.Concat(es[:i], add, es[end:])
}

// path returns the directory path, r's inner node i and its entry k, to
// the leaf that holds key, whose prefix is p, if any leaf does.
func path[V any](r []entry[cell[V]], p uint64, key string) (i int, in inner[V], k int) {
	i = search(r, p, key)
	in = *r[i].ptr.Load()
	return i, in, search(in, p, key)
}

// search returns the entry whose node holds key, whose prefix is p, if
// any node does: the last one whose first key is <= key, or the first.
func search[P any](es []entry[P], p uint64, key string) int {
	lo, hi := 1, len(es)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if e := &es[h]; e.pre < p || e.pre == p && e.first <= key {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo - 1
}

// key returns slot s's key: a view of the arena. A reader calls it only
// for a slot a hash entry or an order it loaded names, so the arena it
// loads holds the key.
func (l *leaf[V]) key(s int) string { return view(*l.arena.Load(), l.ends[s], l.ends[s+1]) }

// view returns b[lo:hi] as a string that shares b's bytes. It is the
// package's only unsafe code, and safe because:
//
//   - an arena's bytes are written before the hash entry or order that
//     publishes their slot, and never again: an insert writes only past
//     the last slot's end, and a grown arena is a copy, written before it
//     is published and then, like the old one, only past the last end;
//   - the string's pointer is a real *byte into the arena, so the
//     collector keeps the whole arena alive while the string lives, even
//     after the leaf has grown a new arena or been retired.
//
// So a key handed out never changes, whatever is inserted after.
func view(b []byte, lo, hi uint32) string {
	return unsafe.String(unsafe.SliceData(b[lo:hi]), hi-lo)
}

// low returns the first key of a leaf no reader holds yet.
func (l *leaf[V]) low() string { return l.key(l.order.Load().at(0)) }

// put writes key and v into l's next free slot, enters the slot into the
// hash, and then into the order at position j: in place when j is past
// every key, else in a copy. A full arena is copied into one sized for a
// full leaf of keys like these, but at most twice what it holds or 4 KiB,
// so that a long key is not multiplied; and at least 1.25 times as large.
func (l *leaf[V]) put(key string, v V, j int) {
	s, lo := l.n, l.ends[l.n]
	hi := lo + uint32(len(key))
	if a := *l.arena.Load(); int(hi) <= len(a) {
		copy(a[lo:], key)
	} else {
		na := make([]byte, max(min(int(hi)*leafCap/(s+1), max(2*int(hi), 4096)), len(a)*5/4))
		copy(na, a[:lo])
		copy(na[lo:], key)
		l.arena.Store(&na)
	}
	l.ends[s+1], l.vals[s], l.n = hi, v, s+1
	l.index(s, key)
	if p := l.order.Load(); j == s {
		p[j/8].Add(uint64(s+1) << (j % 8 * 8)) // into a 0 byte: no carry
	} else {
		l.order.Store(p.with(s, j, s))
	}
}

// split returns two new leaves holding l's keys, the lower half and the
// upper, and key in the half it sorts into.
func (l *leaf[V]) split(key string, v V) (lo, hi *leaf[V]) {
	lo, hi = newLeaf[V](), newLeaf[V]()
	p := l.order.Load()
	for j := range l.n {
		t, s := lo, p.at(j)
		if j >= l.n/2 {
			t = hi
		}
		t.put(l.key(s), l.vals[s], t.n)
	}
	t := hi
	if key < hi.low() {
		t = lo
	}
	t.put(key, v, t.rank(t.order.Load(), t.n, key))
	return lo, hi
}

// find returns the slot in l of key, whose prefix is p, or -1.
func (l *leaf[V]) find(key string, p uint64) int {
	for h := slot(key, p); ; h = (h + 1) % hashSlots {
		b := uint8(l.hash[h/8].Load() >> (h % 8 * 8))
		if b == 0 {
			return -1
		}
		if l.key(int(b)-1) == key {
			return int(b) - 1
		}
	}
}

// index enters slot s, which holds key, into l's hash.
func (l *leaf[V]) index(s int, key string) {
	for h := slot(key, prefix(key)); ; h = (h + 1) % hashSlots {
		if w := &l.hash[h/8]; uint8(w.Load()>>(h%8*8)) == 0 {
			w.Add(uint64(s+1) << (h % 8 * 8)) // into a 0 byte: no carry
			return
		}
	}
}

// rank returns the position in order p, of c keys, of the first key at
// or after key.
func (l *leaf[V]) rank(p *perm, c int, key string) int {
	return sort.Search(c, func(k int) bool { return l.key(p.at(k)) >= key })
}

// at returns the slot at position j < leafCap of the order, or -1 past
// its end.
func (p *perm) at(j int) int { return int(uint8(p[j/8].Load()>>(j%8*8))) - 1 }

// bytes reads the order's entries into b, which holds at least leafCap.
func (p *perm) bytes(b []byte) {
	for w := range p {
		binary.LittleEndian.PutUint64(b[w*8:], p[w].Load())
	}
}

// with returns a copy of the order's n entries with slot s entered at
// position j.
func (p *perm) with(n, j, s int) *perm {
	var b [leafCap + 1]byte
	p.bytes(b[:])
	copy(b[j+1:n+1], b[j:n])
	b[j] = byte(s + 1)
	np := new(perm)
	for w := range np {
		np[w].Store(binary.LittleEndian.Uint64(b[w*8:]))
	}
	return np
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
// multiplicative hash of its 8-byte words, the first of which is p.
func slot(key string, p uint64) uint {
	h := (uint64(len(key)) ^ p) * 0x9e3779b97f4a7c15
	for len(key) > 8 {
		key = key[8:]
		h = (h ^ prefix(key)) * 0x9e3779b97f4a7c15
	}
	return uint(h >> 56)
}

// Range calls fn for every key in [from, to) and its value, in ascending
// order, stopping early if fn returns false. An empty `to` means "no
// upper bound". fn runs with no lock held and may insert: a key inserted
// ahead of the scan's cursor is visited, one behind it is not. A key
// passed to fn is a view of the table's bytes, which never change: it
// stays valid, and the same, for as long as fn's caller keeps it.
func (m *Map[V]) Range(from, to string, fn func(key string, v V) bool) {
	var c cursor[V]
	for m.seek(&c, from, false); c.l != nil; {
		s := int(c.o[c.j]) - 1
		if s < 0 { // the end of the order as read: read it again if it grew, or move on
			if c.j < leafCap && c.p.at(c.j) >= 0 {
				c.read()
			} else if !c.next() { // past c's node, or at a retired leaf
				m.seek(&c, from, true)
			}
			continue
		}
		k := view(c.a, c.l.ends[s], c.l.ends[s+1])
		if to != "" && k >= to || !fn(k, c.l.vals[s]) {
			return
		}
		if from = k; c.l.order.Load() != c.p { // an insert copied the order, or split the leaf
			m.seek(&c, k, true)
		} else {
			c.j++
		}
	}
}

// A cursor is a scan's place: a leaf, its order as last read, and a
// position in it; and the inner node it found the leaf in, which may be
// out of date. A leaf's successor in that node is its successor in the
// table for as long as the leaf is live: only its own split puts a leaf
// between.
type cursor[V any] struct {
	in inner[V]
	k  int // l is in[k].ptr
	l  *leaf[V]
	p  *perm
	o  [leafCap + 1]byte // p's entries as read, and a 0 past them
	a  []byte            // l's arena, loaded after o: it holds every key o names
	j  int
}

// read reads c's order, and then its leaf's arena.
func (c *cursor[V]) read() {
	c.p.bytes(c.o[:])
	c.a = *c.l.arena.Load()
}

// key returns the key at position j of the order as read.
func (c *cursor[V]) key(j int) string {
	s := int(c.o[j]) - 1
	return view(c.a, c.l.ends[s], c.l.ends[s+1])
}

// seek puts c at the first key at or after from (after it, if after is
// set), or leaves c.l nil past every key.
func (m *Map[V]) seek(c *cursor[V], from string, after bool) {
	for c.l = nil; ; {
		r := m.root.Load()
		if r == nil {
			return
		}
		var i int
		i, c.in, c.k = path(*r, prefix(from), from)
		c.l = c.in[c.k].ptr
		if c.p = c.l.order.Load(); c.p == nil { // a split retired l, and has published its halves
			continue
		}
		c.read()
		n := bytes.IndexByte(c.o[:], 0)
		if c.j = sort.Search(n, func(j int) bool { return c.key(j) >= from }); after && c.j < n && c.key(c.j) == from {
			c.j++
		}
		if c.j < n || c.next() {
			return
		}
		if c.l == nil { // past the node's last leaf: on from the next node's first key
			if i+1 == len(*r) {
				return
			}
			from, after = (*r)[i+1].first, false
		}
	}
}

// next moves c to the first key of the next leaf in its node, and reports
// whether that leaf is live. Past the node's last leaf it clears c.l.
func (c *cursor[V]) next() bool {
	if c.k+1 == len(c.in) {
		c.l = nil
		return false
	}
	c.k++
	c.l, c.j = c.in[c.k].ptr, 0
	if c.p = c.l.order.Load(); c.p == nil {
		return false
	}
	c.read()
	return true
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
	n := 0
	if r := m.root.Load(); r != nil {
		for i := range *r {
			n += len(*(*r)[i].ptr.Load())
		}
	}
	return n
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
