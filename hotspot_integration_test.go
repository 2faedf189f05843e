package mvdb

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"mvdb/internal/flight"
	"mvdb/internal/hotspot"
)

// BenchmarkHotspotProfiler measures the profiler's cost off and on
// (EXPERIMENTS O7) over the same durable group-commit Update workload
// as BenchmarkHealthMonitor: the enabled hot-path cost is one atomic
// counter plus, one touch in SampleEvery, a TryLock'd sketch update.
func BenchmarkHotspotProfiler(b *testing.B) {
	for _, on := range []bool{false, true} {
		b.Run(fmt.Sprintf("hotspot=%v", on), func(b *testing.B) {
			dir := b.TempDir()
			db, err := Open(Options{
				Protocol:    TwoPhaseLocking,
				WALPath:     filepath.Join(dir, "commit.log"),
				GroupCommit: true,
				Hotspot:     on,
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

// TestHotspotWorkloadShift is the profiler's acceptance path: a durable
// group-commit engine under epoch visibility runs a uniform workload,
// then shifts to hammering four hot keys. The profiler's report must
// rank the hot keys at the top, the flight bundle (schema v3) must carry
// the hotspot section, and /debug/mvdb/hotspot must serve the live
// report.
func TestHotspotWorkloadShift(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{
		Protocol:           Optimistic,
		VisibilityMode:     VisibilityEpoch,
		WALPath:            filepath.Join(dir, "commit.log"),
		GroupCommit:        true,
		Hotspot:            true,
		HotspotSampleEvery: 1, // deterministic sketch contents
		FlightDir:          filepath.Join(dir, "flight"),
		DebugAddr:          "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// Phase 1: uniform — 200 commits spread over 100 keys.
	for i := 0; i < 200; i++ {
		if err := db.Update(func(tx *Tx) error {
			return tx.Put(fmt.Sprintf("u%03d", i%100), []byte("v"))
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Phase 2: the shift — 300 commits hammering four hot keys.
	for i := 0; i < 300; i++ {
		if err := db.Update(func(tx *Tx) error {
			return tx.Put(fmt.Sprintf("hot-%d", i%4), []byte("v"))
		}); err != nil {
			t.Fatal(err)
		}
	}

	// The report ranks the hot keys at the top of the write sketch.
	rep := db.Hotspots()
	if rep == nil || !rep.Enabled {
		t.Fatalf("Hotspots() = %+v, want enabled report", rep)
	}
	if len(rep.HotWrites) == 0 {
		t.Fatal("report has no hot write keys")
	}
	if !strings.HasPrefix(rep.HotWrites[0].Key, "hot-") {
		t.Fatalf("top write key = %q, want a hot-* key (top 5: %+v)",
			rep.HotWrites[0].Key, rep.HotWrites[:min(5, len(rep.HotWrites))])
	}
	inTop := map[string]bool{}
	for _, k := range rep.HotWrites {
		inTop[k.Key] = true
	}
	for i := 0; i < 4; i++ {
		if k := fmt.Sprintf("hot-%d", i); !inTop[k] {
			t.Errorf("hot key %q missing from the write top-K", k)
		}
	}
	if len(rep.Lanes) == 0 {
		t.Error("report has no epoch lanes under VisibilityEpoch")
	}

	if sn := db.Stats(); sn.Hotspot == nil || !sn.Hotspot.Enabled {
		t.Error("Stats().Hotspot missing the profiler report")
	}

	// The flight bundle (schema v3) carries the hotspot section.
	path, err := db.Flight().Trigger("test", "hotspot workload shift")
	if err != nil {
		t.Fatal(err)
	}
	b, err := flight.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Schema != flight.SchemaVersion {
		t.Fatalf("bundle schema = %q, want %q", b.Schema, flight.SchemaVersion)
	}
	if b.Hotspot == nil || !b.Hotspot.Enabled {
		t.Fatal("flight bundle has no hotspot section")
	}

	// The live endpoint serves the same report.
	resp, err := http.Get("http://" + db.DebugAddr() + "/debug/mvdb/hotspot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/mvdb/hotspot = %d, want 200", resp.StatusCode)
	}
	var served hotspot.Report
	if err := json.NewDecoder(resp.Body).Decode(&served); err != nil {
		t.Fatal(err)
	}
	if !served.Enabled || len(served.HotWrites) == 0 {
		t.Fatalf("endpoint served %+v, want enabled report with hot keys", served)
	}
}
