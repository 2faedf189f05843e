package index

import (
	"fmt"
	"sort"
)

// CheckInvariants validates that every inner node holds 1 to fanout
// leaves and the root its first key; that every leaf reachable is live
// and non-empty, and the directory holds its first key; that each
// leaf's order lists every written slot once, and its hash finds each
// slot's key there and holds no other entry; that the keys ascend
// strictly within and across leaves; and that they number Len.
func (m *Map[V]) CheckInvariants() error {
	r := m.root.Load()
	if r == nil {
		return nil
	}
	n, last := 0, ""
	for i := range *r {
		in := *(*r)[i].ptr.Load()
		if len(in) == 0 || len(in) > fanout {
			return fmt.Errorf("index: inner node %d holds %d leaves", i, len(in))
		}
		if re := &(*r)[i]; i > 0 && (re.first != in[0].first || re.pre != in[0].pre) {
			return fmt.Errorf("index: root entry %d holds %q, its node starts at %q", i, re.first, in[0].first)
		}
		for k := range in {
			e := &in[k]
			l := e.ptr
			p := l.order.Load()
			if p == nil {
				return fmt.Errorf("index: leaf %d/%d is retired", i, k)
			}
			if l.n == 0 && m.Len() > 0 {
				return fmt.Errorf("index: leaf %d/%d is empty", i, k)
			}
			if c := sort.Search(leafCap, func(j int) bool { return p.at(j) < 0 }); c != l.n {
				return fmt.Errorf("index: leaf %d/%d orders %d of %d slots", i, k, c, l.n)
			}
			if (i > 0 || k > 0) && (e.first != l.low() || e.pre != prefix(e.first)) {
				return fmt.Errorf("index: directory entry %d/%d holds %q, its leaf starts at %q", i, k, e.first, l.low())
			}
			entries := 0
			for h := range hashSlots {
				if uint8(l.hash[h/8].Load()>>(h%8*8)) != 0 {
					entries++
				}
			}
			if entries != l.n {
				return fmt.Errorf("index: leaf %d/%d hashes %d slots for %d keys", i, k, entries, l.n)
			}
			var listed [leafCap]bool
			for j := range l.n {
				s := p.at(j)
				if s < 0 || s >= l.n || listed[s] {
					return fmt.Errorf("index: leaf %d/%d orders slot %d at %d twice or out of range", i, k, s, j)
				}
				listed[s] = true
				key := l.key(s)
				if n > 0 && key <= last {
					return fmt.Errorf("index: leaf %d/%d out of order: %q !< %q", i, k, last, key)
				}
				if l.find(key, prefix(key)) != s {
					return fmt.Errorf("index: leaf %d/%d hashes %q away from slot %d", i, k, key, s)
				}
				n, last = n+1, key
			}
		}
	}
	if n != m.Len() {
		return fmt.Errorf("index: %d keys in the leaves != length %d", n, m.Len())
	}
	return nil
}

// Keys returns all keys in order.
func (x *Index) Keys() []string {
	out := make([]string, 0, x.Len())
	x.Range("", "", func(k string) bool {
		out = append(out, k)
		return true
	})
	return out
}

// CheckInvariants validates the table's invariants.
func (x *Index) CheckInvariants() error { return x.m.CheckInvariants() }
