package mvdb

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvdb/internal/faultfs"
	"mvdb/internal/flight"
	"mvdb/internal/health"
	"mvdb/internal/obs"
)

// BenchmarkHealthMonitor measures the health layer's cost off and on
// (EXPERIMENTS O5) over the same durable group-commit Update workload
// as BenchmarkTraceSampling: the enabled hot-path cost is one
// time.Since plus one lock-free histogram record per commit, with the
// monitor ticking at its default interval in the background.
func BenchmarkHealthMonitor(b *testing.B) {
	for _, on := range []bool{false, true} {
		b.Run(fmt.Sprintf("health=%v", on), func(b *testing.B) {
			dir := b.TempDir()
			db, err := Open(Options{
				Protocol:    TwoPhaseLocking,
				WALPath:     filepath.Join(dir, "commit.log"),
				GroupCommit: true,
				Health:      on,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			val := []byte("v")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := db.Update(func(tx *Tx) error {
					return tx.Put(fmt.Sprintf("k%d", i%64), val)
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestHealthEndToEnd is the acceptance path for the tentpole: a durable
// group-commit engine whose fsync develops a sticky injected stall must
// trip the commit-p99 SLO's fast burn window, and the resulting page
// alarm must flow through every reused pipe — a flight bundle carrying
// the health timeline, promoted causal traces, an EvHealth event in the
// trace ring, and the /debug/mvdb/health endpoint reporting the paged
// SLO.
func TestHealthEndToEnd(t *testing.T) {
	dir := t.TempDir()
	// The first fsync of the commit log (and, sticky, every one after)
	// stalls 8ms — a dying disk. The FS stays unlocked during the
	// stall, so only the fsync path is slow.
	fs := faultfs.New(faultfs.Plan{Rules: []faultfs.Rule{{
		Op: faultfs.OpSync, Path: "commit.log", Nth: 1,
		Fault: faultfs.Fault{Delay: 8 * time.Millisecond, Sticky: true},
	}}})
	db, err := Open(Options{
		Protocol:       Optimistic,
		WALPath:        filepath.Join(dir, "commit.log"),
		GroupCommit:    true,
		FS:             fs,
		Health:         true,
		HealthInterval: 10 * time.Millisecond,
		HealthSLOs: []HealthSLO{{
			Name: "commit-p99", Metric: "commit_p99_ns", Max: 2e6, // 2ms: any stalled-fsync commit breaches
			FastWindow: 4, SlowWindow: 8,
		}},
		TraceSample: 1.0,
		FlightDir:   filepath.Join(dir, "flight"),
		DebugAddr:   "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Health() == nil {
		t.Fatal("Health() nil with Options.Health set")
	}

	// Committers keep every 10ms interval populated with stalled
	// commits until the page alarm lands.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var commits atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_ = db.Update(func(tx *Tx) error {
					return tx.Put(fmt.Sprintf("k%d-%d", w, i%32), []byte("v"))
				})
				commits.Add(1)
			}
		}(w)
	}
	deadline := time.Now().Add(10 * time.Second)
	var page int64
	for time.Now().Before(deadline) {
		if _, page = db.Health().AlarmCounts(); page > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if page == 0 {
		t.Fatalf("no page alarm after 10s; %d commits, points=%d, slos=%+v",
			commits.Load(), db.Health().PointsTotal(), db.Health().SLOStates())
	}

	// The alarm promoted the freshest sampled traces for tail retention.
	prom := db.TxTraces().Promoted()
	if len(prom) == 0 {
		t.Fatal("page alarm promoted no traces")
	}

	// It also appended an EvHealth event to the trace ring.
	foundEv := false
	for _, ev := range db.Trace() {
		if ev.Type == obs.EvHealth && strings.HasPrefix(ev.Key, "commit-p99/") {
			foundEv = true
			break
		}
	}
	if !foundEv {
		t.Fatal("no EvHealth event for commit-p99 in the trace ring")
	}

	// The page alarm triggered an async flight bundle; it must carry
	// the health timeline (schema v2).
	var bundlePath string
	for time.Now().Before(deadline) {
		if bundlePath = db.Flight().LastBundle(); bundlePath != "" {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if bundlePath == "" {
		t.Fatal("page alarm produced no flight bundle")
	}
	b, err := flight.Load(bundlePath)
	if err != nil {
		t.Fatal(err)
	}
	if b.Schema != flight.SchemaVersion {
		t.Fatalf("bundle schema = %q, want %q", b.Schema, flight.SchemaVersion)
	}
	if len(b.Health) == 0 {
		t.Fatal("flight bundle has no health points")
	}
	if !strings.HasPrefix(b.Reason, "slo-commit-p99") {
		t.Fatalf("bundle reason = %q, want slo-commit-p99", b.Reason)
	}

	// The HTTP endpoint reports the paged SLO and the retained points.
	resp, err := http.Get("http://" + db.DebugAddr() + "/debug/mvdb/health")
	if err != nil {
		t.Fatal(err)
	}
	var tl health.Timeline
	err = json.NewDecoder(resp.Body).Decode(&tl)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if tl.Schema != health.Schema {
		t.Fatalf("timeline schema = %q, want %q", tl.Schema, health.Schema)
	}
	if len(tl.Levels) == 0 || len(tl.Levels[0].Points) == 0 {
		t.Fatal("health endpoint served no points")
	}
	if tl.AlarmsPage == 0 {
		t.Fatalf("health endpoint reports no page alarms: %+v", tl)
	}
	// Prometheus exposition includes the health families.
	mresp, err := http.Get("http://" + db.DebugAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, fam := range []string{"mvdb_health_points_total", "mvdb_health_alarms_total", "mvdb_health_slo_state"} {
		if !strings.Contains(string(mbody), fam) {
			t.Fatalf("/metrics missing %s", fam)
		}
	}
}

// TestDebugEndpointErrorPaths covers the debug server's handler error
// paths at the mvdb level: malformed query parameters must answer 400
// with a usable message, and the degenerate-but-valid requests (chrome
// export of empty trace rings, health timeline before the first tick)
// must answer 200.
func TestDebugEndpointErrorPaths(t *testing.T) {
	db, err := Open(Options{
		Health:         true,
		HealthInterval: time.Hour, // no tick during the test: pre-first-tick path
		TraceSample:    1.0,       // enabled but unused: empty rings
		DebugAddr:      "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	base := "http://" + db.DebugAddr()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	for _, path := range []string{
		"/debug/mvdb/health?level=9",
		"/debug/mvdb/health?level=-1",
		"/debug/mvdb/health?level=x",
		"/debug/mvdb/health?n=0",
		"/debug/mvdb/health?n=abc",
		"/debug/mvdb/health?format=pdf",
		"/debug/mvdb/health?format=sparkline&metric=bogus",
	} {
		if code, body := get(path); code != http.StatusBadRequest {
			t.Errorf("GET %s = %d (%q), want 400", path, code, body)
		}
	}

	// Health before the first tick: 200 with the schema and no points.
	code, body := get("/debug/mvdb/health")
	if code != http.StatusOK {
		t.Fatalf("health pre-tick = %d (%q), want 200", code, body)
	}
	var tl health.Timeline
	if err := json.Unmarshal([]byte(body), &tl); err != nil {
		t.Fatal(err)
	}
	if tl.Schema != health.Schema {
		t.Fatalf("schema = %q, want %q", tl.Schema, health.Schema)
	}
	for _, lv := range tl.Levels {
		if len(lv.Points) != 0 {
			t.Fatalf("pre-tick timeline has points: %+v", lv)
		}
	}

	// Sparkline form of an empty timeline is also fine.
	if code, _ := get("/debug/mvdb/health?format=sparkline"); code != http.StatusOK {
		t.Fatalf("sparkline pre-tick = %d, want 200", code)
	}

	// Chrome export of empty trace rings: a valid, empty document.
	code, body = get("/debug/mvdb/traces?format=chrome")
	if code != http.StatusOK {
		t.Fatalf("chrome export of empty rings = %d (%q), want 200", code, body)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("chrome export of empty rings is not JSON: %v", err)
	}
}
