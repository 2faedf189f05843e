package index

import "fmt"

// CheckInvariants validates that every leaf is non-empty, that the keys
// ascend strictly within and across leaves, that the directory holds
// each leaf's first key, that each key's hash entry finds it and no
// other entry is there, and that the keys number Len.
func (m *Map[V]) CheckInvariants() error {
	d := m.dir.Load()
	if d == nil {
		return nil
	}
	n, last := 0, ""
	for i := range *d {
		e := &(*d)[i]
		l := e.leaf.Load()
		ln := int(l.n.Load())
		if ln == 0 && m.Len() > 0 {
			return fmt.Errorf("index: leaf %d is empty", i)
		}
		if i > 0 && (e.first != l.keys[0] || e.pre != prefix(l.keys[0])) {
			return fmt.Errorf("index: directory entry %d holds %q, its leaf starts at %q", i, e.first, l.keys[0])
		}
		entries := 0
		for s := range hashSlots {
			if uint8(l.hash[s/8].Load()>>(s%8*8)) != 0 {
				entries++
			}
		}
		if entries != ln {
			return fmt.Errorf("index: leaf %d hashes %d positions for %d keys", i, entries, ln)
		}
		for p, k := range l.keys[:ln] {
			if n > 0 && k <= last {
				return fmt.Errorf("index: leaf %d out of order: %q !< %q", i, last, k)
			}
			if l.find(k) != p {
				return fmt.Errorf("index: leaf %d hashes %q away from position %d", i, k, p)
			}
			n, last = n+1, k
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
