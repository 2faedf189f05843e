package obs

import (
	"encoding/json"
	"fmt"
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

// Serve starts an HTTP server on addr exposing:
//
//	/debug/mvdb  — the Snapshot as indented JSON
//	/debug/pprof — the standard runtime profiling endpoints (profile,
//	               heap, trace, ...), labeled by protocol/phase when
//	               phase timing is on
//
// plus each of routes (pattern → handler), e.g. the audit pipeline's
// /debug/mvdb/audit. addr may use port 0 to let the OS pick a free
// port; Addr reports the bound address. snap must be safe for
// concurrent use.
func Serve(addr string, snap func() Snapshot, routes map[string]http.Handler) (*DebugServer, error) {
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
	// Standard pprof endpoints on the same mux (not the default one):
	// with phase timing enabled the engine tags commit goroutines with
	// mvdb_protocol/mvdb_phase labels, so CPU profiles taken here slice
	// along the same taxonomy as the phase histograms.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for pattern, h := range routes {
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
