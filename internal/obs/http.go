package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
)

// DebugServer serves engine observability over HTTP. It is created by
// Serve and stopped with Close.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// ServeOption customizes the debug server (extra handlers, extra
// Prometheus families).
type ServeOption func(*serveConfig)

type serveConfig struct {
	handlers   map[string]http.Handler
	promExtras []func(io.Writer)
}

// WithHandler registers an additional handler on the debug mux, e.g.
// the audit pipeline's /debug/mvdb/audit endpoint.
func WithHandler(pattern string, h http.Handler) ServeOption {
	return func(c *serveConfig) {
		if c.handlers == nil {
			c.handlers = make(map[string]http.Handler)
		}
		c.handlers[pattern] = h
	}
}

// WithPromExtra registers a function that appends extra metric
// families to the /metrics response after the engine snapshot.
func WithPromExtra(fn func(io.Writer)) ServeOption {
	return func(c *serveConfig) { c.promExtras = append(c.promExtras, fn) }
}

// PromContentType is the Content-Type of the /metrics response
// (Prometheus text exposition format).
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// Serve starts an HTTP server on addr exposing:
//
//	/debug/mvdb  — the Snapshot as indented JSON
//	/metrics     — the snapshot in Prometheus text format, plus any
//	               extras registered with WithPromExtra
//	/debug/pprof — the standard runtime profiling endpoints (profile,
//	               heap, trace, ...), labeled by protocol/phase when
//	               phase timing is on
//
// addr may use port 0 to let the OS pick a free port; Addr reports the
// bound address. snap must be safe for concurrent use.
func Serve(addr string, snap func() Snapshot, opts ...ServeOption) (*DebugServer, error) {
	var cfg serveConfig
	for _, o := range opts {
		o(&cfg)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/mvdb", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(snap())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		// Render into a buffer first so a mid-render error cannot leave
		// a scraper with a truncated, half-valid exposition.
		var buf bytes.Buffer
		snap().WriteProm(&buf)
		for _, fn := range cfg.promExtras {
			fn(&buf)
		}
		w.Header().Set("Content-Type", PromContentType)
		w.Write(buf.Bytes())
	})
	// Standard pprof endpoints on the same mux (not the default one):
	// with phase timing enabled the engine tags commit goroutines with
	// mvdb_protocol/mvdb_phase labels, so CPU profiles taken here slice
	// along the same taxonomy as the phase histograms.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for pattern, h := range cfg.handlers {
		mux.Handle(pattern, h)
	}
	s := &DebugServer{ln: ln, srv: &http.Server{Handler: mux}}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the address the server is listening on.
func (s *DebugServer) Addr() string { return s.ln.Addr().String() }

// Close stops the server immediately.
func (s *DebugServer) Close() error { return s.srv.Close() }
