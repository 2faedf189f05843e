package mvdb

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mvdb/internal/flight"
)

// TestFlightBundleEndToEnd is the acceptance path: a database with
// group commit, phase timing, the debug server and the flight recorder;
// a concurrent workload; then GET /debug/mvdb/dump must produce an
// atomically written bundle whose phase table shows real group-commit
// fsync waiting, and the bundle must render.
func TestFlightBundleEndToEnd(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{
		Protocol:    TwoPhaseLocking,
		WALPath:     filepath.Join(dir, "commit.log"),
		PhaseTiming: true,
		DebugAddr:   "127.0.0.1:0",
		FlightDir:   filepath.Join(dir, "flight"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Flight() == nil {
		t.Fatal("Flight() nil with FlightDir set")
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k%d", (w+i)%8)
				if err := db.Update(func(tx *Tx) error {
					return tx.Put(key, []byte{byte(i)})
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// The live snapshot must already attribute latency per phase, with
	// nonzero fsync waiting under group commit.
	sn := db.Stats()
	if len(sn.Phases) == 0 {
		t.Fatal("no phase summaries with PhaseTiming on")
	}
	var sawFsync, sawLockOrInstall bool
	for _, ph := range sn.Phases {
		if ph.Protocol == "vc+2pl" && ph.Phase == "fsync-wait" && ph.Durations.Count > 0 && ph.Durations.TotalNanoseconds > 0 {
			sawFsync = true
		}
		if ph.Protocol == "vc+2pl" && ph.Phase == "install" && ph.Durations.Count > 0 {
			sawLockOrInstall = true
		}
	}
	if !sawFsync {
		t.Fatalf("no fsync-wait attribution under group commit: %+v", sn.Phases)
	}
	if !sawLockOrInstall {
		t.Fatalf("no install attribution: %+v", sn.Phases)
	}

	// Explicit dump over HTTP.
	resp, err := http.Get("http://" + db.DebugAddr() + "/debug/mvdb/dump")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["bundle"] == "" {
		t.Fatalf("dump returned no bundle path: %v", out)
	}

	b, err := flight.Load(out["bundle"])
	if err != nil {
		t.Fatal(err)
	}
	if b.Schema != flight.SchemaVersion || b.Reason != "dump" {
		t.Fatalf("unexpected bundle header: schema=%q reason=%q", b.Schema, b.Reason)
	}
	if len(b.Stats.Phases) == 0 {
		t.Fatal("bundle snapshot lost the phase table")
	}
	if b.WaitGraph == nil {
		t.Fatal("bundle missing the waits-for graph export")
	}
	var sb strings.Builder
	flight.Render(b, &sb)
	for _, want := range []string{"phase attribution", "fsync-wait", "headline counters"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("render missing %q:\n%s", want, sb.String())
		}
	}
}

// TestDebugEndpointsSmoke drives the pprof mux and the dump endpoint
// against a live database — the same checks CI's smoke step performs
// with curl.
func TestDebugEndpointsSmoke(t *testing.T) {
	db, err := Open(Options{
		Protocol:    Optimistic,
		PhaseTiming: true,
		DebugAddr:   "127.0.0.1:0",
		FlightDir:   t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Update(func(tx *Tx) error { return tx.Put("k", []byte("v")) }); err != nil {
		t.Fatal(err)
	}

	client := &http.Client{Timeout: 30 * time.Second}
	for _, path := range []string{
		"/debug/pprof/",
		"/debug/pprof/profile?seconds=1",
		"/debug/mvdb/dump",
		"/debug/mvdb",
	} {
		resp, err := client.Get("http://" + db.DebugAddr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		if len(body) == 0 {
			t.Fatalf("GET %s: empty body", path)
		}
	}
}
