// Package flight is the engine's black-box flight recorder: an
// always-on, bounded background sampler that keeps the last few minutes
// of observability state in memory, and — on a trigger — writes a
// self-contained JSON postmortem bundle describing what the engine was
// doing when something went wrong.
//
// The motivation mirrors an aircraft's black box: the PR-2 audit
// pipeline and the PR-4 crash oracle tell us *that* serializability or
// durability was violated; the bundle captures *why* — which phase the
// latency lived in (the attribution matrix of internal/obs), which
// transactions were blocked on whom (the lock manager's waits-for
// graph), and what the last alarms said.
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
	"mvdb/internal/faultfs"
	"mvdb/internal/lock"
	"mvdb/internal/obs"
)

// SchemaVersion identifies the bundle format. Bump on any
// change to Bundle's shape. v4 dropped v2's health timeline and v3's
// hotspot report; v5 dropped the event-ring "trace" tail; v6 dropped the
// promoted causal "traces". Load still reads the older versions,
// ignoring those keys.
const SchemaVersion = "mvdb-flight/v6"

// Sources are the read-only taps the recorder samples. Stats is
// required; every other tap is optional (nil omits its section from
// bundles). All functions must be safe for concurrent use — they are
// called from the sampler goroutine and from any goroutine that
// triggers a bundle.
type Sources struct {
	// Stats returns the engine's observability snapshot.
	Stats func() obs.Snapshot
	// Audit returns the audit pipeline's state (alarms, graph).
	Audit func() audit.Snapshot
	// WaitGraph exports the lock manager's waits-for graph.
	WaitGraph func() lock.WaitGraph
}

// Options configures a Recorder.
type Options struct {
	// Dir is where bundles are written (created if missing). Required.
	Dir string
	// FS is the filesystem bundles are written through (nil =
	// faultfs.OS; the crash harness passes its shim).
	FS faultfs.FS
	// Interval is the background sampling cadence (<= 0: 1s).
	Interval time.Duration
	// Depth is the stats ring size — how many samples of history a
	// bundle carries (<= 0: 64; at the default cadence ≈ one minute).
	Depth int
	// MinGap rate-limits TriggerAsync: asynchronous triggers (audit
	// alarms can fire per-commit on a broken engine) produce at most
	// one bundle per MinGap (<= 0: 1s). Explicit Trigger calls are
	// never limited.
	MinGap time.Duration
}

// Sample is one background observation: a stats snapshot and when it
// was taken.
type Sample struct {
	At    int64        `json:"at_ns"`
	Stats obs.Snapshot `json:"stats"`
}

// Bundle is a self-contained postmortem document.
type Bundle struct {
	Schema    string `json:"schema"`
	Seq       uint64 `json:"seq"`
	WrittenAt int64  `json:"written_at_ns"`
	Reason    string `json:"reason"`
	Detail    string `json:"detail,omitempty"`

	// Stats is the snapshot at trigger time; Ring the sampled history
	// leading up to it (oldest first).
	Stats obs.Snapshot `json:"stats"`
	Ring  []Sample     `json:"stats_ring,omitempty"`

	Audit     *audit.Snapshot `json:"audit,omitempty"`
	WaitGraph *lock.WaitGraph `json:"wait_graph,omitempty"`
}

// Recorder is the running black box. Create with New, stop with Close.
// All methods are safe for concurrent use.
type Recorder struct {
	src  Sources
	opts Options
	fsys faultfs.FS

	mu      sync.Mutex // guards ring state and serializes bundle writes
	ring    []Sample   // circular, ringN valid entries ending at ringPos-1
	ringPos int
	ringN   int

	seq       atomic.Uint64 // bundles written
	lastAsync atomic.Int64  // unix ns of the last async-triggered bundle
	lastPath  atomic.Value  // string: most recent bundle path

	triggers chan trigReq
	quit     chan struct{}
	done     chan struct{}
	closed   atomic.Bool
}

type trigReq struct{ reason, detail string }

// New starts a recorder: the sampling goroutine begins immediately.
func New(src Sources, opts Options) (*Recorder, error) {
	if src.Stats == nil {
		return nil, errors.New("flight: Sources.Stats is required")
	}
	if opts.Dir == "" {
		return nil, errors.New("flight: Options.Dir is required")
	}
	if opts.Interval <= 0 {
		opts.Interval = time.Second
	}
	if opts.Depth <= 0 {
		opts.Depth = 64
	}
	if opts.MinGap <= 0 {
		opts.MinGap = time.Second
	}
	if opts.FS == nil {
		opts.FS = faultfs.OS
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("flight: %w", err)
	}
	r := &Recorder{
		src:      src,
		opts:     opts,
		fsys:     opts.FS,
		ring:     make([]Sample, opts.Depth),
		triggers: make(chan trigReq, 1),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	r.sample() // bundles carry at least one pre-trigger sample immediately
	go r.run()
	return r, nil
}

func (r *Recorder) run() {
	defer close(r.done)
	tick := time.NewTicker(r.opts.Interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			r.sample()
		case tr := <-r.triggers:
			r.Trigger(tr.reason, tr.detail) // errors already logged by Trigger's caller contract
		case <-r.quit:
			return
		}
	}
}

func (r *Recorder) sample() {
	s := Sample{At: time.Now().UnixNano(), Stats: r.src.Stats()}
	r.mu.Lock()
	r.ring[r.ringPos] = s
	r.ringPos = (r.ringPos + 1) % len(r.ring)
	if r.ringN < len(r.ring) {
		r.ringN++
	}
	r.mu.Unlock()
}

// Trigger assembles and writes a bundle now, returning its path. It is
// synchronous and never rate-limited: an explicit dump always happens.
// Concurrent triggers serialize; each writes its own bundle.
func (r *Recorder) Trigger(reason, detail string) (string, error) {
	if r.closed.Load() {
		return "", errors.New("flight: recorder closed")
	}
	b := r.assemble(reason, detail)
	path := filepath.Join(r.opts.Dir, fmt.Sprintf("flight-%06d-%s.json", b.Seq, sanitize(reason)))
	r.mu.Lock()
	err := core.AtomicReplace(r.fsys, path, func(bw *bufio.Writer) error {
		enc := json.NewEncoder(bw)
		enc.SetIndent("", "  ")
		return enc.Encode(b)
	})
	r.mu.Unlock()
	if err != nil {
		return "", fmt.Errorf("flight: write bundle: %w", err)
	}
	r.lastPath.Store(path)
	return path, nil
}

// TriggerAsync requests a bundle without blocking the caller: the write
// happens on the sampler goroutine. At most one bundle per MinGap is
// produced this way — the path for hooks that can fire per-commit, like
// the audit pipeline's OnAlarm. Safe to call after Close (no-op).
func (r *Recorder) TriggerAsync(reason, detail string) {
	if r.closed.Load() {
		return
	}
	now := time.Now().UnixNano()
	last := r.lastAsync.Load()
	if now-last < r.opts.MinGap.Nanoseconds() || !r.lastAsync.CompareAndSwap(last, now) {
		return
	}
	select {
	case r.triggers <- trigReq{reason, detail}:
	default: // a trigger is already queued; this one is redundant
	}
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
	r.mu.Lock()
	b.Ring = make([]Sample, 0, r.ringN)
	start := r.ringPos - r.ringN
	if start < 0 {
		start += len(r.ring)
	}
	for i := 0; i < r.ringN; i++ {
		b.Ring = append(b.Ring, r.ring[(start+i)%len(r.ring)])
	}
	r.mu.Unlock()
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

// Bundles returns how many bundles have been written.
func (r *Recorder) Bundles() uint64 { return r.seq.Load() }

// LastBundle returns the most recently written bundle's path ("" if
// none yet).
func (r *Recorder) LastBundle() string {
	p, _ := r.lastPath.Load().(string)
	return p
}

// Close stops the sampler. Pending async triggers are dropped; explicit
// Trigger calls fail afterwards.
func (r *Recorder) Close() {
	if !r.closed.CompareAndSwap(false, true) {
		return
	}
	close(r.quit)
	<-r.done
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

// Capture writes a one-shot bundle from src without a running recorder
// — the crash-torture harness's path: when an oracle fires there is no
// long-lived recorder, just an engine to photograph before teardown.
func Capture(src Sources, fsys faultfs.FS, dir, reason, detail string) (string, error) {
	r, err := New(src, Options{Dir: dir, FS: fsys, Interval: time.Hour})
	if err != nil {
		return "", err
	}
	defer r.Close()
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
