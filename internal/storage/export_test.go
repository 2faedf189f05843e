package storage

// TOStateAllocated reports whether o has allocated its timestamp-ordering
// state.
func TOStateAllocated(o *Object) bool {
	w := o.lock()
	defer o.unlock(w)
	return o.to(false) != nil
}
