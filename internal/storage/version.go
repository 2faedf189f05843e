package storage

import "unsafe"

// version is the stored form of a committed version: 24 bytes where the
// API's Version takes 40. Every committed write stays in a chain until
// garbage collection, so this record, not Version, is what the store's
// memory is made of.
type version struct {
	tn   uint64
	data *byte // unsafe.SliceData of the value
	n    int   // len of the value; -1 marks a tombstone
}

// pack and unpack hold the repository's only unsafe code. They are safe
// because:
//
//   - data is a real *byte into the value's backing array, so the
//     collector keeps that array alive for as long as the version exists
//     (an interior pointer keeps its whole object alive);
//   - a value is immutable once installed (Version.Data's contract), so
//     the bytes unpack rebuilds are the bytes that were installed, and
//     unsafe.Slice reaches exactly n of them, never past the value;
//   - nil and empty values stay distinct: unsafe.SliceData is nil only
//     for a nil slice, and unsafe.Slice(nil, 0) is nil again.
//
// The rebuilt value has cap == len, so a reader's append copies instead
// of writing into spare capacity of the writer's slice. A tombstone keeps
// no data, and unsafe.Slice(nil, 0) rebuilds it as nil.
func pack(v Version) version {
	if v.Tombstone {
		return version{tn: v.TN, n: -1}
	}
	return version{tn: v.TN, data: unsafe.SliceData(v.Data), n: len(v.Data)}
}

// unpack writes into *out instead of returning a Version: a 40-byte
// struct is not kept in registers, and a returned one was copied to the
// caller's result with 16-byte loads of 8-byte stores, which the CPU
// cannot forward — about 10 ns a read (storage.read_visible_ns 38 → 53).
func (v version) unpack(out *Version) {
	out.TN = v.tn
	out.Data = unsafe.Slice(v.data, max(v.n, 0))
	out.Tombstone = v.n < 0
}
