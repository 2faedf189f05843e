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
	"mvdb/internal/trace"
)

// TestTraceEndToEndBlameEdges is the acceptance path for the tentpole:
// a durable group-commit engine under a contended workload, sampled at
// 1.0 with promotion forced, must retain at least one trace carrying
// all three blame kinds — blocked-on (lock), joined-batch (WAL),
// queued-behind (VC drain) — and that trace must survive the Chrome
// export round trip, the HTTP endpoint, and a flight bundle.
func TestTraceEndToEndBlameEdges(t *testing.T) {
	dir := t.TempDir()
	gate := newGateFS()
	db, err := Open(Options{
		Protocol:           TwoPhaseLocking,
		WALPath:            filepath.Join(dir, "commit.log"),
		GroupCommit:        true,
		FS:                 gate,
		TraceSample:        1.0,
		TraceSlowThreshold: time.Nanosecond, // promote everything
		DebugAddr:          "127.0.0.1:0",
		FlightDir:          filepath.Join(dir, "flight"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.TxTraces() == nil {
		t.Fatal("TxTraces nil with TraceSample set")
	}
	gate.armed.Store(true)

	// Contended mix: private-key writers keep group-commit batches and
	// the VC queue busy (fsync waits create registered-but-incomplete
	// predecessors), hot-key contenders collide on one lock, which each
	// holds while it "computes". The run is
	// sized to fit the promoted ring (64), so the assertions below are
	// about every transaction of the run, not whichever ran last.
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				_ = db.Update(func(tx *Tx) error {
					return tx.Put(fmt.Sprintf("private-%d-%d", w, i), []byte("v"))
				})
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				_ = db.Update(func(tx *Tx) error {
					if err := tx.Put("hot", []byte("v")); err != nil {
						return err
					}
					// Commit gives the lock back before its fsync wait, so
					// only a transaction still executing holds it long
					// enough for the other contender to run into it.
					time.Sleep(500 * time.Microsecond)
					return nil
				})
			}
		}(w)
	}
	// The first fsync is held until all eight writers have a record in
	// the log: they are registered and incomplete together, and the ones
	// behind the held fsync wake from one batch.
	gate.pileUp(db, 8)
	wg.Wait()

	prom := db.TxTraces().Promoted()
	if len(prom) == 0 {
		t.Fatal("no traces promoted despite TraceSlowThreshold=1ns")
	}
	kinds := map[string]bool{}
	for _, tr := range prom {
		for _, b := range tr.Blames {
			kinds[b.Kind] = true
		}
	}
	for _, want := range []string{trace.BlameBlockedOn, trace.BlameJoinedBatch, trace.BlameQueuedBehind} {
		if !kinds[want] {
			t.Fatalf("no promoted trace carries blame %q; kinds seen: %v over %d traces",
				want, kinds, len(prom))
		}
	}

	// Chrome round trip preserves every promoted trace.
	data, err := trace.EncodeChrome(prom)
	if err != nil {
		t.Fatal(err)
	}
	back, err := trace.DecodeChrome(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(prom) {
		t.Fatalf("chrome round trip: %d traces in, %d out", len(prom), len(back))
	}
	byID := map[uint64]TxTrace{}
	for _, tr := range back {
		byID[tr.ID] = tr
	}
	for _, tr := range prom {
		b, ok := byID[tr.ID]
		if !ok {
			t.Fatalf("trace %016x lost in chrome round trip", tr.ID)
		}
		if b.Tx != tr.Tx || b.TN != tr.TN || len(b.Spans) != len(tr.Spans) || len(b.Blames) != len(tr.Blames) {
			t.Fatalf("trace %016x mutated:\n got %+v\nwant %+v", tr.ID, b, tr)
		}
	}

	// The HTTP endpoint serves the same document (JSON dump) and the
	// Chrome form.
	resp, err := http.Get("http://" + db.DebugAddr() + "/debug/mvdb/traces")
	if err != nil {
		t.Fatal(err)
	}
	var dump trace.Dump
	err = json.NewDecoder(resp.Body).Decode(&dump)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(dump.Promoted) == 0 || dump.Stats.Sampled == 0 {
		t.Fatalf("endpoint dump empty: %+v", dump.Stats)
	}
	resp, err = http.Get("http://" + db.DebugAddr() + "/debug/mvdb/traces?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.DecodeChrome(body); err != nil {
		t.Fatalf("endpoint chrome export undecodable: %v", err)
	}
	if !strings.Contains(string(body), trace.ChromeSchema) {
		t.Fatalf("chrome export missing schema %q", trace.ChromeSchema)
	}

	// A flight bundle embeds the promoted traces.
	path, err := db.Flight().Trigger("test", "trace e2e")
	if err != nil {
		t.Fatal(err)
	}
	b, err := flight.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Traces) == 0 {
		t.Fatal("flight bundle has no traces section")
	}
	found := false
	for _, tr := range b.Traces {
		for _, bl := range tr.Blames {
			if bl.Kind == trace.BlameJoinedBatch {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("bundle traces lost their blame edges")
	}
}

// BenchmarkTraceSampling measures the span layer's cost at the three
// rates EXPERIMENTS O4 reports: disabled, 1%, and full sampling, over a
// durable group-commit Update workload.
func BenchmarkTraceSampling(b *testing.B) {
	for _, rate := range []float64{0, 0.01, 1.0} {
		b.Run(fmt.Sprintf("sample=%v", rate), func(b *testing.B) {
			dir := b.TempDir()
			db, err := Open(Options{
				Protocol:    TwoPhaseLocking,
				WALPath:     filepath.Join(dir, "commit.log"),
				GroupCommit: true,
				TraceSample: rate,
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
