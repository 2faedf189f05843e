package wal

// bufferCap is the capacity of the buffer the writer holds between
// batches.
func (w *Writer) bufferCap() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return cap(w.buf)
}
