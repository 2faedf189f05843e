// Package wal implements a write-ahead commit log and redo recovery.
//
// The paper's opening sentence — "multiple versions of data are used in
// database systems to support transaction and system recovery" — is the
// reason this substrate exists: the engines in this repository can make a
// committed transaction durable by appending one commit record (its
// transaction number and write set) before the versions become visible,
// and rebuild the version store from the log after a crash.
//
// Log format (little endian), one record per committed transaction:
//
//	[4] payload length
//	[4] CRC-32 (IEEE) of payload
//	[n] payload:
//	      [8] transaction number
//	      [4] write count
//	      per write: [4] key length, key bytes,
//	                 [1] flags (bit 0: tombstone),
//	                 [4] value length, value bytes
//
// Recovery replays records in order and stops at the first torn or
// corrupt record (a partially flushed tail after a crash), truncating the
// suffix — standard redo-log discipline.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mvdb/internal/faultfs"
)

// Write is one key's update inside a commit record.
type Write struct {
	Key       string
	Value     []byte
	Tombstone bool
}

// Record is a committed transaction's log entry.
type Record struct {
	TN     uint64
	Writes []Write
}

// SyncPolicy selects whether anything fsyncs. Under SyncBatch a record is
// durable when Wait returns nil; one fsync covers every record enqueued
// before it started.
type SyncPolicy int

const (
	// SyncBatch, the zero value, is group commit: Wait blocks until the
	// background flusher's fsync covers the ticket — the flusher is the
	// only goroutine that fsyncs a commit. Before each fsync the flusher
	// waits for the committers it expects: as many records as were in
	// flight when its last fsync ended (the ones that fsync released plus
	// the ones enqueued while it ran), so a committer that was just
	// acknowledged and is on its way back joins the batch instead of
	// riding the next fsync alone. A committer that does not come back
	// costs at most an eighth of the last fsync's own duration, once.
	SyncBatch SyncPolicy = iota
	// SyncNever leaves flushing to the OS and to Close: Wait returns at
	// once and a crash may lose acknowledged commits (benchmarks, tests).
	SyncNever
)

// Options configures a Writer beyond the bare sync policy.
type Options struct {
	// Policy selects when appended records reach stable storage.
	Policy SyncPolicy
	// FS is the filesystem the writer operates through. Nil selects the
	// production passthrough (faultfs.OS); the crash-torture harness
	// injects a faultfs.FaultFS here.
	FS faultfs.FS
}

// gatherLimit caps how many records the SyncBatch flusher's gather waits
// for. The fsync always covers everything enqueued by the time it
// starts; the cap only stops the flusher waiting for more.
const gatherLimit = 128

// Writer appends commit records to a log file. It is safe for concurrent
// use; records are appended atomically with respect to one another.
// Appending is two steps — Enqueue puts the record in the log buffer and
// hands back a Ticket, Wait blocks until an fsync covers the ticket — so
// a committer can give back what it holds in between (the engine's
// pipelined commit). Under SyncBatch a background flusher amortizes
// fsync across concurrent committers.
type Writer struct {
	mu     sync.Mutex
	f      faultfs.File
	bw     *bufio.Writer
	opts   Options
	closed bool

	// Ticket state, guarded by mu. enqSeq counts records written into
	// bw — a record's ticket is its count; syncSeq counts records
	// covered by a completed fsync; syncErr is sticky — once a write,
	// flush or fsync fails the writer is broken for good, and every
	// waiter and every later Enqueue reports it: records are durable in
	// log order or not at all, which is what lets a commit depend on an
	// earlier ticket without checking it.
	enqSeq      uint64
	syncSeq     uint64
	syncErr     error
	synced      *sync.Cond // broadcast when syncSeq advances, syncErr sets, or the writer closes
	wake        *sync.Cond // SyncBatch: wakes the flusher when work arrives, the writer breaks or closes
	flusherDone chan struct{}
	// gatherTimer is the SyncBatch gather's backstop, made once and armed
	// per gather. It only wakes the flusher, which reads the clock itself,
	// so a callback that outlives its gather is a spurious wake-up and
	// nothing more.
	gatherTimer *time.Timer

	appends        atomic.Uint64
	fsyncs         atomic.Uint64
	bytes          atomic.Uint64
	batches        atomic.Uint64
	gatherTimeouts atomic.Uint64

	// base is the file length at open time (0 on Create, the recovered
	// validLen on OpenAppend); base + bytes is the current log size.
	base int64

	// onBatch observes each group-commit batch's record count; see
	// SetBatchObserver.
	onBatch func(records int)
}

// Counters reports lifetime log volume: records appended, fsyncs
// issued, and bytes written (record headers included). Safe to call
// concurrently with Append.
func (w *Writer) Counters() (appends, fsyncs, bytes uint64) {
	return w.appends.Load(), w.fsyncs.Load(), w.bytes.Load()
}

// Batches reports how many fsync batches have completed (zero under
// SyncNever). appends/batches is the amortization ratio.
func (w *Writer) Batches() uint64 { return w.batches.Load() }

// GatherTimeouts reports how many SyncBatch gathers ended on the time
// backstop rather than on the expected record count: each one is a batch
// the flusher delayed, by an eighth of its last fsync, for a committer
// that did not come back in time. Against Batches it is near zero while
// committers turn around much faster than that; a large share means the
// anticipation is costing latency without buying a batch.
func (w *Writer) GatherTimeouts() uint64 { return w.gatherTimeouts.Load() }

// Size reports the log file's current length in bytes: the length at
// open time plus everything appended since. This is the volume recovery
// would replay, and — together with checkpoint age — the signal that
// log compaction is overdue. Safe to call concurrently with Append.
func (w *Writer) Size() int64 { return w.base + int64(w.bytes.Load()) }

// SetBatchObserver installs fn, called after each completed batch with
// the number of records the fsync covered. It runs on the goroutine that
// fsynced, outside the writer's mutex. Install it before the writer sees
// concurrent use.
func (w *Writer) SetBatchObserver(fn func(records int)) {
	w.onBatch = fn
}

func newWriter(f faultfs.File, opts Options) *Writer {
	w := &Writer{f: f, bw: bufio.NewWriterSize(f, 1<<16), opts: opts}
	w.synced = sync.NewCond(&w.mu)
	if opts.Policy == SyncBatch {
		w.wake = sync.NewCond(&w.mu)
		w.flusherDone = make(chan struct{})
		w.gatherTimer = time.AfterFunc(time.Hour, func() {
			w.mu.Lock()
			w.wake.Signal()
			w.mu.Unlock()
		})
		w.gatherTimer.Stop()
		go w.flusher()
	}
	return w
}

// Create opens (or truncates) a log file for writing.
func Create(path string, policy SyncPolicy) (*Writer, error) {
	return CreateWith(path, Options{Policy: policy})
}

// CreateWith opens (or truncates) a log file for writing with full
// options. The parent directory is fsynced after the create so the
// file's directory entry is durable before the first commit is
// acknowledged — a data fsync alone does not guarantee a freshly
// created file survives a power cut.
func CreateWith(path string, opts Options) (*Writer, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = faultfs.OS
	}
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: create: %w", err)
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: create: sync dir: %w", err)
	}
	return newWriter(f, opts), nil
}

// OpenAppend opens an existing log for appending after recovery. validLen
// must be the byte offset returned by Replay: any torn tail beyond it is
// truncated first.
func OpenAppend(path string, validLen int64, policy SyncPolicy) (*Writer, error) {
	return OpenAppendWith(path, validLen, Options{Policy: policy})
}

// OpenAppendWith is OpenAppend with full options. The torn-tail
// truncation is fsynced (file and parent directory) before the writer
// accepts new appends, so a second crash cannot resurrect the tail
// under records appended after it.
func OpenAppendWith(path string, validLen int64, opts Options) (*Writer, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = faultfs.OS
	}
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: sync truncated tail: %w", err)
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: open: sync dir: %w", err)
	}
	if _, err := f.Seek(validLen, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	w := newWriter(f, opts)
	w.base = validLen
	return w, nil
}

// Ticket is an enqueued record's place in the log: Wait(t) returns once
// an fsync covers every record up to and including it.
type Ticket uint64

// Append is Enqueue then Wait: the record is durable when it returns nil
// (under SyncNever, handed to the OS).
func (w *Writer) Append(r Record) error {
	t, err := w.Enqueue(r)
	if err == nil {
		err = w.Wait(t)
	}
	return err
}

// Enqueue encodes r into the log buffer and returns its ticket. Nothing
// waits: the record is not durable until Wait(ticket) returns nil.
// Tickets are handed out in log order, and a broken writer hands out no
// more of them.
func (w *Writer) Enqueue(r Record) (Ticket, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, errors.New("wal: writer closed")
	}
	if w.syncErr != nil {
		return 0, w.syncErr
	}
	n, err := WriteRecord(w.bw, r)
	if err != nil {
		return 0, w.fail("append", err)
	}
	w.appends.Add(1)
	w.bytes.Add(uint64(n))
	w.enqSeq++
	if w.wake != nil {
		w.wake.Signal()
	}
	return Ticket(w.enqSeq), nil
}

// Wait blocks until an fsync covers t. Under SyncNever it returns at
// once. A writer that broke before covering t returns the sticky error —
// also when the break happened on a later record: the log is durable as
// a prefix or not at all.
func (w *Writer) Wait(t Ticket) error {
	seq := uint64(t)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.opts.Policy == SyncNever {
		return w.syncErr
	}
	for w.syncSeq < seq && w.syncErr == nil && !w.closed {
		w.synced.Wait()
	}
	switch {
	case w.syncSeq >= seq:
		return nil
	case w.syncErr != nil:
		return w.syncErr
	}
	return errors.New("wal: writer closed before fsync")
}

// fail breaks the writer for good (mu held) and returns the sticky
// error. A failed write may have left half a record in the buffer and a
// failed fsync leaves the kernel's dirty-page state unknowable, so
// nothing enqueued after either may ever be reported durable.
func (w *Writer) fail(op string, err error) error {
	if w.syncErr == nil {
		w.syncErr = fmt.Errorf("wal: %s: %w", op, err)
		w.synced.Broadcast()
		if w.wake != nil {
			w.wake.Signal()
		}
	}
	return w.syncErr
}

// syncPending makes everything enqueued so far durable (mu held on entry
// and return): it flushes the buffer under the mutex, fsyncs outside it —
// so committers keep enqueueing into the next batch while the disk works
// — then releases every ticket the fsync covered and returns how many
// that was (0 when an inline Flush got there first). A failure breaks
// the writer.
func (w *Writer) syncPending() int {
	// The batch is sealed at target: whatever is enqueued while the fsync
	// runs below goes into the next one.
	target := w.enqSeq
	op, err := "flush", w.bw.Flush()
	w.mu.Unlock()
	if err == nil {
		op, err = "sync", w.f.Sync()
	}
	w.mu.Lock()
	if err != nil {
		w.fail(op, err)
		return 0
	}
	w.fsyncs.Add(1)
	var batch int
	if target > w.syncSeq { // else an inline Flush got there first
		batch = int(target - w.syncSeq)
		w.syncSeq = target
		w.batches.Add(1)
	}
	w.synced.Broadcast()
	return batch
}

// flusher is the SyncBatch background goroutine: it waits for work,
// gathers, and syncs what is pending, until the writer breaks or closes.
func (w *Writer) flusher() {
	defer close(w.flusherDone)
	defer w.gatherTimer.Stop()
	w.mu.Lock()
	defer w.mu.Unlock()
	var (
		expect uint64        // committers in flight when the last sync ended
		bound  time.Duration // an eighth of what the last sync took
	)
	for {
		for w.enqSeq == w.syncSeq && w.syncErr == nil && !w.closed {
			w.wake.Wait()
		}
		if w.syncErr != nil || w.enqSeq == w.syncSeq {
			return
		}
		// Gathering. The committers the last sync released, and the ones
		// that enqueued behind it, are closed loops: each is running its
		// next transaction — on another P, so no scheduling round would
		// show it — and enqueues again within microseconds. Syncing
		// before they arrive leaves each of them a sync to itself, and
		// that alternation sustains itself. So park (every Enqueue
		// signals wake) until as many records are pending as were in
		// flight; the wait is the gap between the first and the last of
		// them. Time is only the backstop for a committer that does not
		// return: it costs an eighth of the last sync once, because the
		// next expectation is whatever actually arrived.
		if w.enqSeq-w.syncSeq < expect && bound > 0 {
			deadline := time.Now().Add(bound)
			w.gatherTimer.Reset(bound)
			for w.enqSeq-w.syncSeq < expect && w.syncErr == nil && !w.closed {
				if !time.Now().Before(deadline) {
					w.gatherTimeouts.Add(1)
					break
				}
				w.wake.Wait()
			}
			w.gatherTimer.Stop()
			if w.syncErr != nil {
				return
			}
		}
		covered, start := w.syncSeq, time.Now()
		batch := w.syncPending()
		bound = time.Since(start) / 8
		expect = min(w.enqSeq-covered, gatherLimit)
		// The observer runs once the expectation is taken, so a committer
		// that enqueues while it runs is the next batch's, as it is with
		// no observer.
		if batch > 0 && w.onBatch != nil {
			w.mu.Unlock()
			w.onBatch(batch)
			w.mu.Lock()
		}
	}
}

// Flush forces buffered records to the OS and disk, releasing every
// outstanding ticket. It fails on a broken writer, and a failure breaks
// the writer.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushLocked()
}

func (w *Writer) flushLocked() error {
	if w.syncErr != nil {
		return w.syncErr
	}
	if err := w.bw.Flush(); err != nil {
		return w.fail("flush", err)
	}
	if err := w.f.Sync(); err != nil {
		return w.fail("sync", err)
	}
	w.fsyncs.Add(1)
	if w.enqSeq > w.syncSeq {
		// The inline fsync covered everything buffered so far; release
		// any tickets no batch had reached yet. It is not counted as a
		// batch.
		w.syncSeq = w.enqSeq
		w.synced.Broadcast()
	}
	return nil
}

// Close flushes and closes the log. Under SyncBatch it first drains the
// flusher, so every Append that returned nil is durable before the file
// closes.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	if w.opts.Policy == SyncBatch {
		w.wake.Signal()
		w.synced.Broadcast()
		w.mu.Unlock()
		<-w.flusherDone
		w.mu.Lock()
	}
	defer w.mu.Unlock()
	if err := w.flushLocked(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// WriteRecord frames r — header and payload, the form Replay reads back —
// into bw and returns the bytes written. The record is encoded straight
// into bw's free space, so the write copies nothing; only a record that
// does not fit what is left of it gets a buffer of its own. The log
// writer appends through it, and so does whatever streams a file of
// records (a checkpoint, a compacted log).
func WriteRecord(bw *bufio.Writer, r Record) (int, error) {
	buf := bw.AvailableBuffer()
	if n := 8 + payloadLen(r); n > cap(buf) {
		buf = make([]byte, 0, n)
	}
	buf = encodePayload(buf[:8], r)
	payload := buf[8:]
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	return bw.Write(buf)
}

// payloadLen is len(encodePayload(nil, r)), computed without encoding.
func payloadLen(r Record) int {
	n := 12
	for _, wr := range r.Writes {
		n += 9 + len(wr.Key) + len(wr.Value)
	}
	return n
}

func encodePayload(dst []byte, r Record) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, r.TN)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Writes)))
	for _, wr := range r.Writes {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(wr.Key)))
		dst = append(dst, wr.Key...)
		var flags byte
		if wr.Tombstone {
			flags |= 1
		}
		dst = append(dst, flags)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(wr.Value)))
		dst = append(dst, wr.Value...)
	}
	return dst
}

func decodePayload(p []byte) (Record, error) {
	var r Record
	if len(p) < 12 {
		return r, errors.New("wal: short payload")
	}
	r.TN = binary.LittleEndian.Uint64(p[0:8])
	n := binary.LittleEndian.Uint32(p[8:12])
	p = p[12:]
	// Every write occupies at least 9 bytes (two length fields + flags),
	// so a count beyond len(p)/9 cannot be honest — reject it before
	// allocating (a corrupt count of 2^32-1 would otherwise attempt a
	// multi-gigabyte allocation; found by FuzzDecodePayload).
	if uint64(n) > uint64(len(p))/9+1 {
		return r, errors.New("wal: implausible write count")
	}
	r.Writes = make([]Write, 0, n)
	for i := uint32(0); i < n; i++ {
		if len(p) < 4 {
			return r, errors.New("wal: truncated write header")
		}
		kl := binary.LittleEndian.Uint32(p[0:4])
		p = p[4:]
		// 64-bit arithmetic: kl+5 would wrap in uint32 for hostile
		// lengths near 2^32 (found by FuzzDecodePayload).
		if uint64(len(p)) < uint64(kl)+5 {
			return r, errors.New("wal: truncated key")
		}
		key := string(p[:kl])
		p = p[kl:]
		flags := p[0]
		vl := binary.LittleEndian.Uint32(p[1:5])
		p = p[5:]
		if uint32(len(p)) < vl {
			return r, errors.New("wal: truncated value")
		}
		var val []byte
		if vl > 0 {
			val = append([]byte(nil), p[:vl]...)
		}
		p = p[vl:]
		r.Writes = append(r.Writes, Write{Key: key, Value: val, Tombstone: flags&1 != 0})
	}
	if len(p) != 0 {
		return r, errors.New("wal: trailing bytes in payload")
	}
	return r, nil
}

// Replay reads the log at path, invoking fn for each intact record in
// order. It returns the byte offset of the end of the last intact record
// — the validLen to pass to OpenAppend — and stops silently at a torn or
// corrupt tail. A missing file replays zero records.
func Replay(path string, fn func(Record) error) (validLen int64, err error) {
	return ReplayFS(faultfs.OS, path, fn)
}

// ReplayFS is Replay through an explicit filesystem (crash-torture
// recovery reads through the same shim the writer wrote through).
func ReplayFS(fsys faultfs.FS, path string, fn func(Record) error) (validLen int64, err error) {
	f, err := fsys.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil
		}
		return 0, fmt.Errorf("wal: replay open: %w", err)
	}
	defer f.Close()

	fi, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("wal: replay stat: %w", err)
	}
	size := fi.Size()

	br := bufio.NewReaderSize(f, 1<<16)
	var off int64
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return off, nil // clean EOF or torn header
		}
		plen := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		// A record cannot extend past the file: a hostile or torn length
		// must not drive the allocation below (found by FuzzReplay).
		if int64(plen) > size-off-8 {
			return off, nil
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(br, payload); err != nil {
			return off, nil // torn payload
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return off, nil // corrupt record: stop here
		}
		rec, derr := decodePayload(payload)
		if derr != nil {
			return off, nil // structurally invalid despite CRC: treat as tail
		}
		if err := fn(rec); err != nil {
			return off, err
		}
		off += int64(8 + int(plen))
	}
}
