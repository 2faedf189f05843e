package storage

// TOStateAllocated reports whether o has allocated its timestamp-ordering
// state.
func TOStateAllocated(o *Object) bool {
	return o.to(false) != nil
}
