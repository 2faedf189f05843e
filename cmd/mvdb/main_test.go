package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"mvdb"
	"mvdb/internal/crashtest"
	"mvdb/internal/flight"
	"mvdb/internal/metrics"
	"mvdb/internal/obs"
)

func wantStatus(t *testing.T, want int, args ...string) {
	t.Helper()
	if got := run(args); got != want {
		t.Fatalf("mvdb %q exited %d, want %d", args, got, want)
	}
}

func TestBadInvocationExits2(t *testing.T) {
	wantStatus(t, 2)
	wantStatus(t, 2, "bogus")
	wantStatus(t, 2, "torture", "-protocol", "mvto")
	wantStatus(t, 2, "torture", "-vc", "lazy")
	wantStatus(t, 2, "soak", "-protocol", "sv2pl")
	wantStatus(t, 2, "soak", "-vc", "lazy")
	wantStatus(t, 2, "sim", "-scenario", "fig9")
	wantStatus(t, 2, "inspect")
}

// soak opens mvdb with the matrix's core values converted as they are.
func TestMatrixMapsOntoMvdb(t *testing.T) {
	for _, c := range crashtest.Configs() {
		if p := mvdb.Protocol(c.Protocol); p.String() != c.Protocol.String() {
			t.Errorf("%s opens mvdb as %s", c.Protocol, p)
		}
		if m := mvdb.VisibilityMode(c.Visibility); m.String() != c.Visibility.String() {
			t.Errorf("%s opens mvdb as %s", c.Visibility, m)
		}
	}
}

// wantVerdict reads a -json verdict and checks its schema and the keys
// of the document and of its single configuration.
func wantVerdict(t *testing.T, path, schema string, configKeys ...string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var v map[string]any
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	if got := sortedKeys(v); !slices.Equal(got, []string{"configs", "elapsed_ns", "passed", "schema", "seed"}) {
		t.Errorf("verdict keys = %q", got)
	}
	if v["schema"] != schema || v["passed"] != true {
		t.Errorf("verdict schema = %v, passed = %v", v["schema"], v["passed"])
	}
	configs, _ := v["configs"].([]any)
	if len(configs) != 1 {
		t.Fatalf("verdict has %d configurations, want 1", len(configs))
	}
	if got := sortedKeys(configs[0].(map[string]any)); !slices.Equal(got, configKeys) {
		t.Errorf("configuration keys = %q, want %q", got, configKeys)
	}
}

func sortedKeys(m map[string]any) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

func TestTortureOneRound(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "verdict.json")
	wantStatus(t, 0, "torture", "-rounds", "1", "-protocol", "to", "-vc", "epoch", "-dir", dir, "-json", out)
	wantVerdict(t, out, "mvtorture-verdict/v1",
		"acked", "attempts", "clean_rounds", "config", "crashes", "dir", "pass", "rounds", "seed")
}

func TestSoakOneSecond(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "verdict.json")
	wantStatus(t, 0, "soak", "-duration", "1s", "-interval", "100ms", "-checkpoint", "300ms",
		"-protocol", "occ", "-vc", "strict", "-keys", "64", "-dir", dir, "-json", out)
	wantVerdict(t, out, "mvsoak-verdict/v1",
		"aborts", "audit_alarms", "commits_ro", "commits_rw", "pass", "points", "protocol", "retries", "timeline", "visibility")
}

func TestSimEveryScenario(t *testing.T) {
	if len(scenarios) != 9 {
		t.Fatalf("%d scenarios, want 9", len(scenarios))
	}
	for _, s := range scenarios {
		wantStatus(t, 0, "sim", "-scenario", s.id)
	}
}

func TestInspect(t *testing.T) {
	dir := t.TempDir()
	log := filepath.Join(dir, "commit.log")
	db, err := mvdb.Open(mvdb.Options{WALPath: log})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "c"} {
		if err := db.Update(func(tx *mvdb.Tx) error { return tx.Put(k, []byte(k)) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	wantStatus(t, 0, "inspect", "-v", log)
	wantStatus(t, 1, "inspect", filepath.Join(dir, "missing.log"))

	f, err := os.OpenFile(log, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x7f, 0, 0}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	wantStatus(t, 3, "inspect", "-key", "b", log)

	bundle, err := flight.Capture(flight.Sources{Stats: func() obs.Snapshot { return obs.Snapshot{Protocol: "vc+2pl"} }},
		dir, "oracle-violation", "details")
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, 0, "inspect", "-bundle", bundle)
	wantStatus(t, 1, "inspect", "-bundle", filepath.Join(dir, "missing.json"))
}

func TestInspectLive(t *testing.T) {
	db, err := mvdb.Open(mvdb.Options{DebugAddr: "127.0.0.1:0", Audit: true, PhaseTiming: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	wantStatus(t, 0, "inspect", "-live", db.DebugAddr(), "-count", "2", "-interval", "10ms")
}

// The live table's latency rows come from the phase matrix, one per
// non-empty cell.
func TestLiveTableRendersPhaseRows(t *testing.T) {
	cur := &obs.Snapshot{Phases: []obs.PhaseSummary{
		{Protocol: "vc+2pl", Phase: "fsync-wait", Durations: metrics.Summary{Count: 3, P50: 1e6, P99: 2e6}},
	}}
	tb := liveTable("addr", cur, nil, time.Second)
	if out := tb.String(); !strings.Contains(out, "vc+2pl fsync-wait p50/p99") {
		t.Fatalf("no phase row in the live table:\n%s", out)
	}
}
