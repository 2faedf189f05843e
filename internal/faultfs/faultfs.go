// Package faultfs is a virtual filesystem shim with deterministic
// crash-fault injection, the substrate of the crash-torture harness
// (internal/crashtest).
//
// The durability layers of this repository (internal/wal, the checkpoint
// writer) perform all file operations through the FS interface. The
// production implementation, OS, passes straight through to package os.
// FaultFS wraps a real directory and injects failures at scripted
// points: short/torn writes, sticky and transient fsync errors, a
// simulated power cut at an arbitrary operation, and crash-before/after
// rename on snapshot files.
//
// # Crash model
//
// FaultFS tracks, per file, which byte prefix is covered by a completed
// Sync ("durable") and which bytes have merely been written. A simulated
// power cut (Fault.Crash) freezes the filesystem — every subsequent
// operation fails with ErrCrashed — and ApplyCrash then rewrites the
// real directory to the surviving state:
//
//   - each file is truncated to its durable prefix, plus a scripted
//     number of torn bytes (Fault.Torn) of the unsynced tail of the file
//     the crashing operation targeted, optionally garbled
//     (Fault.Corrupt) to model a torn sector;
//   - creates and renames that were not yet made durable by a SyncDir
//     of the parent directory are undone from one journal, newest
//     first: a created file loses its directory entry and vanishes; a
//     rename rolls back (the destination's old content returns, the
//     source file reappears), unless the fault says the rename's dirent
//     happened to be journaled (Fault.KeepRename). So a file renamed
//     away and then recreated under its old name comes back whole, and
//     an atomic replace leaves the old final file and no temp.
//
// The model deliberately makes directory-entry durability require an
// explicit SyncDir, the POSIX-pessimistic reading that production
// systems (SQLite, LevelDB) code against; data fsync alone never
// durabilizes a create or rename here. Truncates are modeled as
// immediately durable (metadata journaling), which is why the write
// paths never O_TRUNC a precious file in place — they write a temp file
// and rename.
//
// The zero-fault FaultFS is also the harness's tracer: every mutating
// operation is recorded with a global index, and a scripted Rule can
// target exactly one of those indexes (AtOp), letting a test enumerate
// every crash point of a deterministic workload.
package faultfs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// ErrCrashed is returned by every operation after a simulated power cut.
var ErrCrashed = errors.New("faultfs: simulated power cut")

// ErrInjected is returned by an operation that a Rule failed without
// crashing the filesystem (e.g. a transient fsync error).
var ErrInjected = errors.New("faultfs: injected I/O error")

// File is the file handle surface the durability layers need.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	Truncate(size int64) error
	Sync() error
	Close() error
	Stat() (os.FileInfo, error)
}

// FS is the filesystem surface the durability layers need. OS is the
// production passthrough; FaultFS injects faults.
type FS interface {
	// OpenFile opens a file for writing (os.OpenFile semantics).
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Open opens a file read-only.
	Open(name string) (File, error)
	// Rename atomically replaces newpath with oldpath's file.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// Stat reports file metadata.
	Stat(name string) (os.FileInfo, error)
	// SyncDir fsyncs a directory, durabilizing creates, removes and
	// renames inside it. Best effort on platforms without directory
	// fsync.
	SyncDir(name string) error
}

// OS is the production FS: package os, no faults.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) Open(name string) (File, error)        { return os.Open(name) }
func (osFS) Rename(oldpath, newpath string) error  { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error              { return os.Remove(name) }
func (osFS) Stat(name string) (os.FileInfo, error) { return os.Stat(name) }

// SyncDir fsyncs the directory. Errors from the sync itself are ignored:
// some filesystems and platforms reject fsync on directories, and the
// caller can do no better than proceed.
func (osFS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	_ = d.Sync()
	return d.Close()
}

// Op classifies a mutating filesystem operation for rule matching and
// tracing.
type Op int

const (
	// OpCreate is an OpenFile call that creates or truncates a file.
	OpCreate Op = iota
	// OpOpen is an OpenFile call on an existing file (no truncation).
	OpOpen
	// OpWrite is one File.Write call.
	OpWrite
	// OpSync is one File.Sync call.
	OpSync
	// OpTruncate is one File.Truncate call.
	OpTruncate
	// OpRename is one FS.Rename call.
	OpRename
	// OpRemove is one FS.Remove call.
	OpRemove
	// OpSyncDir is one FS.SyncDir call.
	OpSyncDir
)

func (o Op) String() string {
	switch o {
	case OpCreate:
		return "create"
	case OpOpen:
		return "open"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpTruncate:
		return "truncate"
	case OpRename:
		return "rename"
	case OpRemove:
		return "remove"
	case OpSyncDir:
		return "syncdir"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Fault is what happens when a Rule fires.
type Fault struct {
	// Crash simulates a power cut at this operation: the operation (and
	// every later one) fails with ErrCrashed, and ApplyCrash computes
	// the surviving bytes.
	Crash bool
	// Torn is the number of unsynced tail bytes of the targeted file
	// that survive the crash (for OpWrite, bytes of the interrupted
	// write reach the file first). Zero is the adversarial default:
	// only fsynced bytes survive.
	Torn int
	// Corrupt garbles the surviving torn bytes (bit-flips), modeling a
	// torn sector rather than a clean prefix.
	Corrupt bool
	// KeepRename applies to a Crash at OpRename: the rename takes
	// effect and survives (its dirent happened to be journaled). The
	// default is the adversarial one — the crash hits before the rename
	// is effective.
	KeepRename bool
	// Err fails the operation with ErrInjected without crashing; the
	// filesystem keeps working. With Sticky, every later operation
	// matching the same rule also fails.
	Err bool
	// Delay stalls the operation for this long before it executes (a
	// slow-device model: the fsync that takes tens of milliseconds, the
	// write absorbed by a saturated disk). The filesystem stays unlocked
	// during the stall, so only the delayed operation is slow. Ignored
	// when the same fault also crashes or errors the operation.
	Delay time.Duration
	// Sticky keeps an Err or Delay rule firing on every subsequent
	// match (one-shot otherwise).
	Sticky bool
}

// Rule triggers a Fault at a scripted point: either the Nth operation
// matching (Op, Path substring), or the operation with global index
// AtOp. The zero Path matches every path.
type Rule struct {
	// Op is the operation kind to match (ignored when AtOp is set).
	Op Op
	// Path, when non-empty, restricts the match to operations whose
	// path contains it as a substring.
	Path string
	// Nth is the 1-based occurrence among matching operations (0 means
	// first).
	Nth int
	// AtOp, when positive, matches the operation with this global
	// 1-based index (as reported by Trace) instead of (Op, Path, Nth).
	AtOp int
	// Fault is applied when the rule fires.
	Fault Fault
}

// Plan is a scripted set of fault rules.
type Plan struct {
	Rules []Rule
}

// OpRecord is one traced operation.
type OpRecord struct {
	// Index is the global 1-based operation index (usable as Rule.AtOp).
	Index int
	Op    Op
	Path  string
	// N is the byte count for writes, the size for truncates.
	N int
}

// Mutates reports whether the recorded operation can change on-disk
// state — the operations worth crashing at.
func (r OpRecord) Mutates() bool {
	switch r.Op {
	case OpCreate, OpWrite, OpSync, OpTruncate, OpRename, OpRemove, OpSyncDir:
		return true
	}
	return false
}

type fileState struct {
	size    int64 // bytes written (real file size)
	durable int64 // prefix covered by a completed Sync
	torn    int64 // extra unsynced bytes surviving the crash (crash target only)
	corrupt bool  // garble the torn bytes on ApplyCrash
}

// direntOp is a create (from empty) or a rename of from to path that no
// SyncDir of path's directory has made durable yet.
type direntOp struct {
	path, from  string
	destExisted bool
	destContent []byte
}

type ruleState struct {
	rule    Rule
	matched int
	fired   bool
}

// FaultFS is an FS over real files with scripted fault injection. All
// methods are safe for concurrent use.
type FaultFS struct {
	mu      sync.Mutex
	rules   []*ruleState
	opCount int
	trace   []OpRecord
	tracing bool
	crashed bool
	files   map[string]*fileState
	pending []direntOp // oldest first
}

// New returns a FaultFS executing the given plan. A zero plan injects
// nothing and behaves like OS plus state tracking.
func New(plan Plan) *FaultFS {
	f := &FaultFS{files: make(map[string]*fileState)}
	for _, r := range plan.Rules {
		r := r
		f.rules = append(f.rules, &ruleState{rule: r})
	}
	return f
}

// EnableTrace starts recording every operation (see Trace).
func (f *FaultFS) EnableTrace() {
	f.mu.Lock()
	f.tracing = true
	f.mu.Unlock()
}

// Trace returns the operations recorded since EnableTrace.
func (f *FaultFS) Trace() []OpRecord {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]OpRecord, len(f.trace))
	copy(out, f.trace)
	return out
}

// Crashed reports whether the simulated power cut has happened.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Ops returns the number of operations performed so far.
func (f *FaultFS) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.opCount
}

// begin accounts one operation and evaluates the plan. It returns the
// firing fault (if any) and an error the operation must return
// immediately (ErrCrashed / ErrInjected). Callers apply fault side
// effects (torn bytes, kept renames) themselves.
func (f *FaultFS) begin(op Op, path string, n int) (Fault, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.beginLocked(op, path, n)
}

func (f *FaultFS) beginLocked(op Op, path string, n int) (Fault, error) {
	if f.crashed {
		return Fault{}, ErrCrashed
	}
	f.opCount++
	if f.tracing {
		f.trace = append(f.trace, OpRecord{Index: f.opCount, Op: op, Path: path, N: n})
	}
	var delayed Fault
	for _, rs := range f.rules {
		if rs.fired && !rs.rule.Fault.Sticky {
			continue
		}
		match := false
		if rs.rule.AtOp > 0 {
			match = rs.rule.AtOp == f.opCount
		} else if rs.rule.Op == op && strings.Contains(path, rs.rule.Path) {
			if !rs.fired {
				rs.matched++
			}
			nth := rs.rule.Nth
			if nth <= 0 {
				nth = 1
			}
			match = rs.fired || rs.matched == nth
		}
		if !match {
			continue
		}
		rs.fired = true
		ft := rs.rule.Fault
		if ft.Crash {
			f.crashed = true
			return ft, ErrCrashed
		}
		if ft.Err {
			return ft, ErrInjected
		}
		if ft.Delay > delayed.Delay {
			delayed = ft
		}
	}
	return delayed, nil
}

// stall sleeps out a Delay fault with the filesystem unlocked, so a
// scripted stall on one operation does not freeze unrelated ones. The
// caller must hold f.mu; it is held again on return.
func (f *FaultFS) stall(d time.Duration) {
	if d <= 0 {
		return
	}
	f.mu.Unlock()
	time.Sleep(d)
	f.mu.Lock()
}

func (f *FaultFS) state(path string) *fileState {
	st := f.files[path]
	if st == nil {
		st = &fileState{}
		f.files[path] = st
	}
	return st
}

// OpenFile implements FS.
func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fi, statErr := os.Stat(name)
	existed := statErr == nil
	op := OpOpen
	if !existed && flag&os.O_CREATE != 0 || existed && flag&os.O_TRUNC != 0 {
		op = OpCreate
	}
	ft, err := f.beginLocked(op, name, 0)
	if err != nil {
		return nil, err
	}
	f.stall(ft.Delay)
	real, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	switch {
	case !existed:
		f.files[name] = &fileState{}
		f.pending = append(f.pending, direntOp{path: name})
	case flag&os.O_TRUNC != 0:
		// Truncation-on-open is modeled as immediately durable; the old
		// content is gone (which is why precious files are replaced via
		// temp file + rename, never O_TRUNC'd in place).
		f.files[name] = &fileState{}
	default:
		if f.files[name] == nil {
			// Pre-existing file first seen now: its current content
			// survived whatever came before; treat it as durable.
			f.files[name] = &fileState{size: fi.Size(), durable: fi.Size()}
		}
	}
	return &faultFile{fs: f, path: name, real: real}, nil
}

// Open implements FS (read-only; not traced, injects nothing but
// respects the crashed state).
func (f *FaultFS) Open(name string) (File, error) {
	f.mu.Lock()
	crashed := f.crashed
	f.mu.Unlock()
	if crashed {
		return nil, ErrCrashed
	}
	real, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, path: name, real: real, readOnly: true}, nil
}

// Rename implements FS. The rename is performed immediately but remains
// pending — rolled back by a crash — until a SyncDir of the parent
// directory durabilizes it.
func (f *FaultFS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	ft, err := f.beginLocked(OpRename, newpath, 0)
	if err != nil {
		if errors.Is(err, ErrCrashed) && ft.KeepRename {
			// The lucky window: the dirent was journaled before the cut.
			// The rename takes effect and is durable.
			if rerr := os.Rename(oldpath, newpath); rerr != nil {
				return rerr
			}
			if st := f.files[oldpath]; st != nil {
				f.files[newpath] = st
			}
			delete(f.files, oldpath)
			f.forgetCreate(oldpath)
		}
		return err
	}
	f.stall(ft.Delay)
	undo := direntOp{path: newpath, from: oldpath}
	if content, rerr := os.ReadFile(newpath); rerr == nil {
		undo.destExisted = true
		undo.destContent = content
	}
	if err := os.Rename(oldpath, newpath); err != nil {
		return err
	}
	f.pending = append(f.pending, undo)
	if st := f.files[oldpath]; st != nil {
		f.files[newpath] = st
	}
	delete(f.files, oldpath)
	return nil
}

// Remove implements FS. Removal durability is not modeled (removed
// files never reappear after a crash); the durable paths remove only
// disposable temp files and a retired log that a durable snapshot
// covers, which are safe to find either way.
func (f *FaultFS) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	ft, berr := f.beginLocked(OpRemove, name, 0)
	if berr != nil {
		return berr
	}
	f.stall(ft.Delay)
	err := os.Remove(name)
	if err == nil || errors.Is(err, os.ErrNotExist) {
		delete(f.files, name)
		f.forgetCreate(name)
	}
	return err
}

// forgetCreate drops the pending create of path (f.mu held): the file
// is gone from that name, so a crash has nothing there to undo.
func (f *FaultFS) forgetCreate(path string) {
	kept := f.pending[:0]
	for _, u := range f.pending {
		if u.from != "" || u.path != path {
			kept = append(kept, u)
		}
	}
	f.pending = kept
}

// Stat implements FS.
func (f *FaultFS) Stat(name string) (os.FileInfo, error) {
	f.mu.Lock()
	crashed := f.crashed
	f.mu.Unlock()
	if crashed {
		return nil, ErrCrashed
	}
	return os.Stat(name)
}

// SyncDir implements FS: it durabilizes every pending create and rename
// under dir.
func (f *FaultFS) SyncDir(dir string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	ft, err := f.beginLocked(OpSyncDir, dir, 0)
	if err != nil {
		return err
	}
	f.stall(ft.Delay)
	kept := f.pending[:0]
	for _, u := range f.pending {
		if filepath.Dir(u.path) != dir {
			kept = append(kept, u)
		}
	}
	f.pending = kept
	return nil
}

// ApplyCrash materializes the post-crash directory state: files are
// truncated to their surviving prefix, then non-durable creates vanish
// and non-durable renames roll back, newest first. It must be called
// after the crash fired; the FaultFS stays crashed — recover with a
// fresh FS over the same directory.
func (f *FaultFS) ApplyCrash() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.crashed {
		return errors.New("faultfs: ApplyCrash before crash")
	}
	// 1. Truncate every tracked file to its surviving prefix.
	for path, st := range f.files {
		fi, err := os.Stat(path)
		if err != nil {
			continue // vanished or never materialized
		}
		survive := st.durable + st.torn
		if survive > fi.Size() {
			survive = fi.Size()
		}
		if fi.Size() > survive {
			if err := os.Truncate(path, survive); err != nil {
				return fmt.Errorf("faultfs: apply crash: %w", err)
			}
		}
		if st.corrupt && st.torn > 0 && survive > st.durable {
			if err := garble(path, st.durable, survive); err != nil {
				return fmt.Errorf("faultfs: apply crash: %w", err)
			}
		}
	}
	// 2. Undo pending creates and renames, newest first.
	for i := len(f.pending) - 1; i >= 0; i-- {
		u := f.pending[i]
		if u.from == "" {
			_ = os.Remove(u.path)
			delete(f.files, u.path)
			continue
		}
		if src, err := os.ReadFile(u.path); err == nil {
			if err := os.WriteFile(u.from, src, 0o644); err != nil {
				return fmt.Errorf("faultfs: apply crash: %w", err)
			}
		}
		if u.destExisted {
			if err := os.WriteFile(u.path, u.destContent, 0o644); err != nil {
				return fmt.Errorf("faultfs: apply crash: %w", err)
			}
		} else {
			_ = os.Remove(u.path)
		}
		if st, ok := f.files[u.path]; ok {
			f.files[u.from] = st
			delete(f.files, u.path)
		}
	}
	f.pending = nil
	return nil
}

// garble bit-flips bytes in [from, to) of path, modeling a torn sector.
func garble(path string, from, to int64) error {
	g, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	defer g.Close()
	buf := make([]byte, to-from)
	if _, err := g.ReadAt(buf, from); err != nil {
		return err
	}
	for i := range buf {
		buf[i] ^= 0x5a
	}
	_, err = g.WriteAt(buf, from)
	return err
}

// faultFile is a File over a real file with fault-aware write/sync.
type faultFile struct {
	fs       *FaultFS
	path     string
	real     *os.File
	readOnly bool
	pos      int64
}

func (h *faultFile) Read(p []byte) (int, error) {
	if h.fs.Crashed() {
		return 0, ErrCrashed
	}
	n, err := h.real.Read(p)
	h.fs.mu.Lock()
	h.pos += int64(n)
	h.fs.mu.Unlock()
	return n, err
}

func (h *faultFile) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	ft, err := h.fs.beginLocked(OpWrite, h.path, len(p))
	if err != nil {
		if errors.Is(err, ErrCrashed) && ft.Crash {
			// Torn write: a prefix of this write reaches the file before
			// the cut. Everything previously written-but-unsynced also
			// survives up to the scripted bound (the survivors form one
			// contiguous prefix of the unsynced region).
			st := h.fs.state(h.path)
			k := ft.Torn
			if k > len(p) {
				k = len(p)
			}
			if k > 0 {
				if n, werr := h.real.Write(p[:k]); werr == nil {
					if h.pos+int64(n) > st.size {
						st.size = h.pos + int64(n)
					}
				}
			}
			st.torn = st.size - st.durable
			st.corrupt = ft.Corrupt
		}
		return 0, err
	}
	h.fs.stall(ft.Delay)
	n, werr := h.real.Write(p)
	st := h.fs.state(h.path)
	h.pos += int64(n)
	if h.pos > st.size {
		st.size = h.pos
	}
	if werr != nil {
		return n, werr
	}
	return n, nil
}

func (h *faultFile) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	ft, err := h.fs.beginLocked(OpSync, h.path, 0)
	if err != nil {
		if errors.Is(err, ErrCrashed) && ft.Crash {
			// Power cut at fsync: the scripted number of unsynced tail
			// bytes survive (they were in flight to the platter).
			st := h.fs.state(h.path)
			k := int64(ft.Torn)
			if k > st.size-st.durable {
				k = st.size - st.durable
			}
			st.torn = k
			st.corrupt = ft.Corrupt
		}
		return err
	}
	h.fs.stall(ft.Delay)
	if err := h.real.Sync(); err != nil {
		return err
	}
	st := h.fs.state(h.path)
	st.durable = st.size
	return nil
}

func (h *faultFile) Seek(offset int64, whence int) (int64, error) {
	if h.fs.Crashed() {
		return 0, ErrCrashed
	}
	pos, err := h.real.Seek(offset, whence)
	if err == nil {
		h.fs.mu.Lock()
		h.pos = pos
		h.fs.mu.Unlock()
	}
	return pos, err
}

func (h *faultFile) Truncate(size int64) error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	ft, err := h.fs.beginLocked(OpTruncate, h.path, int(size))
	if err != nil {
		return err
	}
	h.fs.stall(ft.Delay)
	if err := h.real.Truncate(size); err != nil {
		return err
	}
	st := h.fs.state(h.path)
	st.size = size
	if st.durable > size {
		st.durable = size
	}
	return nil
}

func (h *faultFile) Close() error {
	// Close is not a fault point: a crashed filesystem still lets the
	// process release its descriptors.
	return h.real.Close()
}

func (h *faultFile) Stat() (os.FileInfo, error) {
	if h.fs.Crashed() {
		return nil, ErrCrashed
	}
	return h.real.Stat()
}
