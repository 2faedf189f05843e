package storage

// TOStateAllocated reports whether o has allocated its timestamp-ordering
// state.
func TOStateAllocated(o *Object) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.to != nil
}
