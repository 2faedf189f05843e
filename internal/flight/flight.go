// Package flight is the engine's black-box flight recorder: on a
// trigger it reads the engine's observability state and writes a
// self-contained JSON postmortem bundle describing what the engine was
// doing when something went wrong. Between triggers it does nothing: no
// goroutine, no sampling, no history kept.
//
// The motivation mirrors an aircraft's black box: the audit pipeline and
// the crash oracle tell us *that* serializability or durability was
// violated; the bundle captures *why* — which phase the latency lived in
// (the attribution matrix of internal/obs), which transactions were
// blocked on whom (the lock manager's waits-for graph), and what the
// last alarms said.
//
// Triggers: an audit alarm (audit.Options.OnAlarm → TriggerAsync), a
// crashtest oracle violation (Capture), an explicit HTTP dump
// (/debug/mvdb/dump → Trigger), or a `mvdb torture` failure. Bundles are
// written through internal/core's crash-atomic replace path, so a
// half-written postmortem can never shadow an intact one.
package flight

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mvdb/internal/audit"
	"mvdb/internal/core"
	"mvdb/internal/lock"
	"mvdb/internal/obs"
)

// SchemaVersion identifies the bundle format. Bump on any
// change to Bundle's shape. v4 dropped v2's health timeline and v3's
// hotspot report; v5 dropped the event-ring "trace" tail; v6 dropped the
// promoted causal "traces"; v7 dropped the sampled "stats_ring". Load
// still reads the older versions, ignoring those keys.
const SchemaVersion = "mvdb-flight/v7"

// asyncGap rate-limits TriggerAsync: asynchronous triggers (audit alarms
// can fire per-commit on a broken engine) produce at most one bundle per
// asyncGap. Explicit Trigger calls are never limited.
const asyncGap = time.Second

// Sources are the read-only taps a bundle is assembled from. Stats is
// required; every other tap is optional (nil omits its section from
// bundles). All functions must be safe for concurrent use — they are
// called from whichever goroutine triggers a bundle.
type Sources struct {
	// Stats returns the engine's observability snapshot.
	Stats func() obs.Snapshot
	// Audit returns the audit pipeline's state (alarms, graph).
	Audit func() audit.Snapshot
	// WaitGraph exports the lock manager's waits-for graph.
	WaitGraph func() lock.WaitGraph
}

// Bundle is a self-contained postmortem document.
type Bundle struct {
	Schema    string `json:"schema"`
	Seq       uint64 `json:"seq"`
	WrittenAt int64  `json:"written_at_ns"`
	Reason    string `json:"reason"`
	Detail    string `json:"detail,omitempty"`

	// Stats is the snapshot at trigger time.
	Stats obs.Snapshot `json:"stats"`

	Audit     *audit.Snapshot `json:"audit,omitempty"`
	WaitGraph *lock.WaitGraph `json:"wait_graph,omitempty"`
}

// Recorder writes bundles into one directory. Create with New, stop with
// Close. All methods are safe for concurrent use.
type Recorder struct {
	src Sources
	dir string

	mu     sync.Mutex     // guards closed and writes.Add
	closed bool           // no write starts once set
	writes sync.WaitGroup // bundle writes in progress; Close waits for them

	seq       atomic.Uint64 // bundles assembled
	lastAsync atomic.Int64  // unix ns of the last async-triggered bundle
	lastPath  atomic.Value  // string: most recent bundle path
}

// New returns a recorder writing into dir (created if missing). It
// starts nothing: bundles are assembled only when triggered.
func New(src Sources, dir string) (*Recorder, error) {
	if src.Stats == nil {
		return nil, errors.New("flight: Sources.Stats is required")
	}
	if dir == "" {
		return nil, errors.New("flight: a bundle directory is required")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("flight: %w", err)
	}
	return &Recorder{src: src, dir: dir}, nil
}

// begin registers a bundle write, or reports false once Close has begun.
func (r *Recorder) begin() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false
	}
	r.writes.Add(1)
	return true
}

// Trigger assembles and writes a bundle now, returning its path. It is
// synchronous and never rate-limited: an explicit dump always happens.
// Concurrent triggers each write their own bundle.
func (r *Recorder) Trigger(reason, detail string) (string, error) {
	if !r.begin() {
		return "", errors.New("flight: recorder closed")
	}
	defer r.writes.Done()
	return r.write(reason, detail)
}

// TriggerAsync requests a bundle without blocking the caller: the write
// happens on a goroutine of its own. At most one bundle per second is
// produced this way — the path for hooks that can fire per-commit, like
// the audit pipeline's OnAlarm. Safe to call after Close (no-op).
func (r *Recorder) TriggerAsync(reason, detail string) {
	now := time.Now().UnixNano()
	last := r.lastAsync.Load()
	if now-last < asyncGap.Nanoseconds() || !r.lastAsync.CompareAndSwap(last, now) {
		return
	}
	if !r.begin() {
		return
	}
	go func() {
		defer r.writes.Done()
		r.write(reason, detail) // nobody waits for the result
	}()
}

func (r *Recorder) write(reason, detail string) (string, error) {
	b := r.assemble(reason, detail)
	path := filepath.Join(r.dir, fmt.Sprintf("flight-%06d-%s.json", b.Seq, sanitize(reason)))
	err := core.AtomicReplace(nil, path, func(bw *bufio.Writer) error {
		enc := json.NewEncoder(bw)
		enc.SetIndent("", "  ")
		return enc.Encode(b)
	})
	if err != nil {
		return "", fmt.Errorf("flight: write bundle: %w", err)
	}
	r.lastPath.Store(path)
	return path, nil
}

func (r *Recorder) assemble(reason, detail string) Bundle {
	b := Bundle{
		Schema:    SchemaVersion,
		Seq:       r.seq.Add(1),
		WrittenAt: time.Now().UnixNano(),
		Reason:    reason,
		Detail:    detail,
		Stats:     r.src.Stats(),
	}
	if r.src.Audit != nil {
		a := r.src.Audit()
		b.Audit = &a
	}
	if r.src.WaitGraph != nil {
		g := r.src.WaitGraph()
		b.WaitGraph = &g
	}
	return b
}

// Bundles returns how many bundles have been assembled.
func (r *Recorder) Bundles() uint64 { return r.seq.Load() }

// LastBundle returns the most recently written bundle's path ("" if
// none yet).
func (r *Recorder) LastBundle() string {
	p, _ := r.lastPath.Load().(string)
	return p
}

// Close waits for bundle writes in progress; no bundle is written after
// it returns. Trigger fails afterwards and TriggerAsync does nothing.
func (r *Recorder) Close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.writes.Wait()
}

// HTTPHandler serves the explicit-dump trigger (/debug/mvdb/dump on the
// debug server): every request writes a bundle and answers with its
// path as JSON.
func (r *Recorder) HTTPHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		path, err := r.Trigger("dump", "explicit dump via "+req.RemoteAddr)
		w.Header().Set("Content-Type", "application/json")
		if err != nil {
			w.WriteHeader(http.StatusInternalServerError)
			json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
			return
		}
		json.NewEncoder(w).Encode(map[string]string{"bundle": path})
	})
}

// Capture writes a one-shot bundle from src into dir — the
// crash-torture harness's path: when an oracle fires there is no
// long-lived recorder, just an engine to photograph before teardown.
func Capture(src Sources, dir, reason, detail string) (string, error) {
	r, err := New(src, dir)
	if err != nil {
		return "", err
	}
	return r.Trigger(reason, detail)
}

// Load reads a bundle back (mvdb inspect -bundle, tests).
func Load(path string) (*Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("flight: decode %s: %w", path, err)
	}
	if !strings.HasPrefix(b.Schema, "mvdb-flight/") {
		return nil, fmt.Errorf("flight: %s: not a flight bundle (schema %q)", path, b.Schema)
	}
	return &b, nil
}

func sanitize(s string) string {
	var sb strings.Builder
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			sb.WriteRune(c)
		default:
			sb.WriteByte('_')
		}
	}
	if sb.Len() == 0 {
		return "bundle"
	}
	return sb.String()
}
