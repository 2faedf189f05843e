package mvdb

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"
)

// TestNoObservabilityWithoutOptIn is the zero-cost guard: a default
// Options{} database must start no HTTP listener and build none of the
// optional layers — observability counters are always on, but the debug
// endpoint, phase timing, span tracing, the auditor and the flight
// recorder are strictly opt-in.
func TestNoObservabilityWithoutOptIn(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.dbg != nil {
		t.Fatal("Options{} started a debug server")
	}
	if db.DebugAddr() != "" {
		t.Fatalf("DebugAddr = %q, want empty", db.DebugAddr())
	}
	if db.eng.Phases() != nil || db.Audit() != nil || db.Flight() != nil {
		t.Fatal("Options{} built an optional observability layer")
	}
}

// TestVisibilityGaugesInvariant checks the paper's Section 6 invariants
// through the new gauges, under a mixed workload on every protocol:
// VTNC < TNC in every snapshot, and once all read-write transactions
// complete, vtnc converges to tnc-1 (zero visibility lag).
func TestVisibilityGaugesInvariant(t *testing.T) {
	for _, p := range allProtocols() {
		t.Run(p.String(), func(t *testing.T) {
			db, err := Open(Options{Protocol: p})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()

			stop := make(chan struct{})
			violated := make(chan string, 1)
			go func() {
				for {
					select {
					case <-stop:
						return
					default:
					}
					st := db.Stats()
					if st.VTNC >= st.TNC {
						select {
						case violated <- fmt.Sprintf("vtnc %d >= tnc %d", st.VTNC, st.TNC):
						default:
						}
						return
					}
					if st.CommitsRW > st.BeginsRW || st.CommitsRO > st.BeginsRO {
						select {
						case violated <- fmt.Sprintf("commits exceed begins: %+v", st):
						default:
						}
						return
					}
				}
			}()

			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 150; i++ {
						key := fmt.Sprintf("k%d", (w*31+i)%16)
						db.Update(func(tx *Tx) error { return tx.PutString(key, "v") })
						db.View(func(tx *Tx) error { tx.Get(key); return nil })
					}
				}(w)
			}
			wg.Wait()
			close(stop)
			select {
			case msg := <-violated:
				t.Fatal(msg)
			default:
			}

			// All read-write transactions are complete: visibility must
			// have converged (vtnc == tnc-1, zero lag) — the delayed
			// visibility of Section 6 is transient, never permanent.
			st := db.Stats()
			if st.VisibilityLag != 0 {
				t.Fatalf("lag = %d after quiescence (tnc=%d vtnc=%d)", st.VisibilityLag, st.TNC, st.VTNC)
			}
			if st.VTNC != st.TNC-1 {
				t.Fatalf("vtnc %d != tnc-1 %d after quiescence", st.VTNC, st.TNC-1)
			}
			if st.CommitsRW == 0 || st.CommitsRO == 0 {
				t.Fatalf("workload did not run: %+v", st)
			}
		})
	}
}

// TestDebugEndpoint opens a database with a debug address and checks the
// live endpoint end to end: /debug/mvdb serves the stats snapshot
// itself, reflecting committed work, and the address turns on nothing but
// the server.
func TestDebugEndpoint(t *testing.T) {
	db, err := Open(Options{DebugAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	addr := db.DebugAddr()
	if addr == "" {
		t.Fatal("no bound debug address")
	}
	if db.eng.Phases() != nil || db.Audit() != nil || db.Flight() != nil {
		t.Fatal("DebugAddr built an optional observability layer")
	}

	if err := db.Update(func(tx *Tx) error { return tx.PutString("k", "v") }); err != nil {
		t.Fatal(err)
	}
	db.View(func(tx *Tx) error { _, err := tx.Get("k"); return err })

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	body := get("/debug/mvdb")
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(body, &keys); err != nil {
		t.Fatal(err)
	}
	// The document is the snapshot itself, not wrapped under a key.
	if keys["commits_rw"] == nil || keys["stats"] != nil {
		t.Fatalf("/debug/mvdb keys = %v, want the snapshot's own", keys)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.CommitsRW != 1 || st.CommitsRO != 1 {
		t.Fatalf("endpoint stats = %+v", st)
	}
	if st.Protocol != "vc+2pl" {
		t.Fatalf("protocol = %q", st.Protocol)
	}
}

// TestDebugEndpointErrorPaths covers the debug server's missing paths at
// the mvdb level: the paths of the deleted health timeline, hotspot
// profiler, causal tracer, expvar mirror and Prometheus exposition
// answer 404 from a server that is up.
func TestDebugEndpointErrorPaths(t *testing.T) {
	db, err := Open(Options{DebugAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get("http://" + db.DebugAddr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	if code, body := get("/debug/mvdb"); code != http.StatusOK {
		t.Fatalf("GET /debug/mvdb = %d (%q), want 200", code, body)
	}
	for _, path := range []string{"/debug/mvdb/health", "/debug/mvdb/hotspot", "/debug/mvdb/traces", "/debug/vars", "/metrics"} {
		if code, body := get(path); code != http.StatusNotFound {
			t.Errorf("GET %s = %d (%q), want 404", path, code, body)
		}
	}
}

// TestClosedDebugDatabaseIsReleased: a database opened with a debug
// address holds nothing process-global, so once closed nothing keeps it
// (or its engine and store) reachable.
func TestClosedDebugDatabaseIsReleased(t *testing.T) {
	db, err := Open(Options{DebugAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Update(func(tx *Tx) error { return tx.PutString("k", "v") }); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	ref := weak.Make(db)
	db = nil
	// The server's accept goroutine may take a moment to return.
	for deadline := time.Now().Add(2 * time.Second); ref.Value() != nil && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if ref.Value() != nil {
		t.Fatal("a closed database with a debug address is still reachable")
	}
}

// TestStatsSubstrateCounters checks WAL and GC counters flow into the
// same snapshot.
func TestStatsSubstrateCounters(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{WALPath: dir + "/commit.log"})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 5; i++ {
		db.Update(func(tx *Tx) error { return tx.PutString("k", fmt.Sprint(i)) })
	}
	db.CollectGarbage()
	st := db.Stats()
	if st.WALAppends != 5 || st.WALBytes == 0 {
		t.Fatalf("wal counters = appends=%d bytes=%d", st.WALAppends, st.WALBytes)
	}
	if st.GCPasses != 1 {
		t.Fatalf("gc passes = %d, want 1", st.GCPasses)
	}
	if st.Keys != 1 || st.Versions < 1 || st.MaxVersionChain < 1 {
		t.Fatalf("storage gauges = %+v", st)
	}
}
