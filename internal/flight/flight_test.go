package flight_test

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mvdb/internal/audit"
	"mvdb/internal/core"
	"mvdb/internal/engine"
	"mvdb/internal/flight"
	"mvdb/internal/obs"
)

// newEngineRecorder builds a phase-timed core engine plus a flight
// recorder, writing into dir, tapped into its stats and waits-for graph.
func newEngineRecorder(t *testing.T, opts core.Options, dir string) (*core.Engine, *flight.Recorder) {
	t.Helper()
	opts.PhaseTiming = true
	e := core.New(opts)
	t.Cleanup(func() { e.Close() })
	r, err := flight.New(flight.Sources{
		Stats:     e.Stats,
		WaitGraph: e.LockWaitGraph,
	}, dir)
	if err != nil {
		t.Fatalf("flight.New: %v", err)
	}
	t.Cleanup(r.Close)
	return e, r
}

// TestConcurrentTriggers runs committers on a live engine while many
// goroutines trigger bundles — the -race workout the recorder must
// survive, since production triggers (audit alarms, HTTP dumps) arrive
// from arbitrary goroutines mid-load.
func TestConcurrentTriggers(t *testing.T) {
	dir := t.TempDir()
	e, r := newEngineRecorder(t, core.Options{Protocol: core.TwoPhaseLocking}, dir)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			keys := []string{"a", "b", "c", "d"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tx, err := e.Begin(engine.ReadWrite)
				if err != nil {
					t.Error(err)
					return
				}
				k := keys[(w+i)%len(keys)]
				tx.Get(k)
				if err := tx.Put(k, []byte{byte(i)}); err == nil {
					tx.Commit()
				} else {
					tx.Abort()
				}
			}
		}(w)
	}

	var trig sync.WaitGroup
	for g := 0; g < 8; g++ {
		trig.Add(1)
		go func(g int) {
			defer trig.Done()
			for i := 0; i < 5; i++ {
				if g%2 == 0 {
					if _, err := r.Trigger("race", "concurrent trigger"); err != nil {
						t.Errorf("Trigger: %v", err)
					}
				} else {
					r.TriggerAsync("race-async", "concurrent async trigger")
				}
			}
		}(g)
	}
	trig.Wait()
	close(stop)
	wg.Wait()
	r.Close() // the async bundle is on disk once Close returns

	if r.Bundles() < 20 {
		t.Fatalf("expected >= 20 bundles from explicit triggers, got %d", r.Bundles())
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var checked int
	for _, ent := range ents {
		if !strings.HasSuffix(ent.Name(), ".json") {
			continue
		}
		b, err := flight.Load(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatalf("Load(%s): %v", ent.Name(), err)
		}
		if b.Schema != flight.SchemaVersion {
			t.Fatalf("schema = %q, want %q", b.Schema, flight.SchemaVersion)
		}
		flight.Render(b, io.Discard)
		checked++
	}
	if checked == 0 {
		t.Fatal("no bundle files written")
	}
}

// TestAuditAlarmWritesBundle provokes a real serializability violation
// (the eager-visibility ablation, same interleaving as the core A2
// test) and checks the alarm → OnAlarm → TriggerAsync chain lands a
// readable bundle on disk carrying the alarm that caused it.
func TestAuditAlarmWritesBundle(t *testing.T) {
	dir := t.TempDir()
	var rec *flight.Recorder
	var recMu sync.Mutex
	aud := audit.New(audit.Options{
		Window: 64,
		Queue:  1 << 12,
		Alarms: 16,
		Logger: slog.New(slog.DiscardHandler),
		OnAlarm: func(al audit.Alarm) {
			recMu.Lock()
			r := rec
			recMu.Unlock()
			if r != nil {
				r.TriggerAsync("audit-alarm", al.Kind+": "+al.Message)
			}
		},
	})
	defer aud.Close()

	e := core.New(core.Options{
		Protocol:              core.TimestampOrdering,
		UnsafeEagerVisibility: true,
		Recorder:              aud,
		PhaseTiming:           true,
	})
	defer e.Close()

	r, err := flight.New(flight.Sources{
		Stats: e.Stats,
		Audit: aud.Snapshot,
	}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	recMu.Lock()
	rec = r
	recMu.Unlock()

	if err := e.Bootstrap(map[string][]byte{"y": {0}, "z": {0}}); err != nil {
		t.Fatal(err)
	}

	// T1 (older) reads z and writes y; T2 (younger) overwrites z and
	// completes first; an RO snapshot in the eager-visibility gap sees
	// T2's z but not T1's y — an MVSG cycle the auditor must flag.
	t1, err := e.Begin(engine.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := e.Begin(engine.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := t1.Get("z"); err != nil {
		t.Fatal(err)
	}
	if err := t1.Put("y", []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := t2.Put("z", []byte{2}); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	ro, err := e.Begin(engine.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ro.Get("z"); err != nil {
		t.Fatal(err)
	}
	if _, err := ro.Get("y"); err != nil {
		t.Fatal(err)
	}
	if err := ro.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}

	aud.Drain()
	if aud.AlarmsTotal() == 0 {
		t.Fatal("ablation did not trip a live alarm")
	}

	// The bundle write is asynchronous (a goroutine of its own); wait for it.
	deadline := time.Now().Add(5 * time.Second)
	for r.Bundles() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("alarm fired but no bundle was written")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for r.LastBundle() == "" && !time.Now().After(deadline) {
		time.Sleep(time.Millisecond)
	}

	b, err := flight.Load(r.LastBundle())
	if err != nil {
		t.Fatal(err)
	}
	if b.Reason != "audit-alarm" {
		t.Fatalf("reason = %q, want audit-alarm", b.Reason)
	}
	if b.Audit == nil || len(b.Audit.Alarms) == 0 {
		t.Fatal("bundle carries no audit alarms")
	}
	var sb strings.Builder
	flight.Render(b, &sb)
	if !strings.Contains(sb.String(), "== audit ==") {
		t.Fatalf("render missing audit section:\n%s", sb.String())
	}
}

// TestHTTPHandlerDump exercises the /debug/mvdb/dump path: one GET, one
// bundle, path echoed back as JSON.
func TestHTTPHandlerDump(t *testing.T) {
	dir := t.TempDir()
	_, r := newEngineRecorder(t, core.Options{Protocol: core.Optimistic}, dir)

	srv := httptest.NewServer(r.HTTPHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["bundle"] == "" {
		t.Fatalf("no bundle path in response: %v", out)
	}
	if _, err := flight.Load(out["bundle"]); err != nil {
		t.Fatalf("dumped bundle unreadable: %v", err)
	}
}

// TestCaptureOneShot is the crashtest path: no long-lived recorder,
// just a snapshot-now helper.
func TestCaptureOneShot(t *testing.T) {
	dir := t.TempDir()
	stats := func() obs.Snapshot { return obs.Snapshot{Protocol: "vc+2pl"} }
	path, err := flight.Capture(flight.Sources{Stats: stats}, dir, "oracle-violation", "details here")
	if err != nil {
		t.Fatal(err)
	}
	b, err := flight.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Reason != "oracle-violation" || b.Detail != "details here" {
		t.Fatalf("unexpected bundle header: %+v", b)
	}
}

// TestLoadV3Bundle: bundles of older schemas must still load and render
// (mvdb inspect -bundle), keeping every section the current schema still
// has. A v3 bundle carries the health timeline, the hotspot report (top
// level and inside stats), "health" ring events and, from before the
// self-tuning layer was deleted, "knob" events and an "adaptive" stats
// section; v4 dropped the first three. A v4 bundle carries the event
// ring's "trace" tail, which v5 dropped. A v5 bundle carries promoted
// causal "traces", which v6 dropped (v4 could carry them too). A v6
// bundle carries the sampled "stats_ring", which v7 dropped.
func TestLoadV3Bundle(t *testing.T) {
	for _, c := range []struct {
		name, doc string
		want      []string
	}{
		{"v3", `{"schema":"mvdb-flight/v3","seq":4,"reason":"slo-commit-p99",
		"stats":{"protocol":"vc+2pl","commits_rw":9,"hotspot":{"enabled":true,"touches":12},
		         "adaptive":{"protocol":"vc+occ","switches":1,"knob_actions":2,"batch_max_delay_ns":100000}},
		"trace":[{"seq":1,"at_ns":1,"type":"commit","tx":3,"tn":3},
		         {"seq":2,"at_ns":2,"type":"health","key":"commit-p99/page","n":6},
		         {"seq":3,"at_ns":3,"type":"knob","key":"wal.batch_delay=100µs","n":100000}],
		"wait_graph":{"waiters":1,"edges":[{"from":5,"to":3,"key":"hot","mode":"exclusive"}]},
		"health":[{"at_ns":1,"commit_p99_ns":400000000,"abort_frac":0.1}],
		"hotspot":{"enabled":true,"hot_writes":[{"key":"hot","count":40}],
		           "stripes":[{"stripe":3,"waits":7}]}}`,
			[]string{"mvdb-flight/v3", "== waits-for graph (1 waiters) =="}},
		{"v4", `{"schema":"mvdb-flight/v4","seq":4,"reason":"dump",
		"stats":{"protocol":"vc+2pl","commits_rw":9},
		"trace":[{"seq":1,"at_ns":1,"type":"lock-wait","tx":5,"key":"hot","dur_ns":900},
		         {"seq":2,"at_ns":2,"type":"span","tx":5,"tn":6,"key":"vc+2pl/slow","n":4},
		         {"seq":3,"at_ns":3,"type":"blame","tx":3,"key":"blocked-on:hot","n":2}],
		"wait_graph":{"waiters":1,"edges":[{"from":5,"to":3,"key":"hot","mode":"exclusive"}]},
		"traces":[{"id":1,"site":-1,"tx":5,"tn":6,"proto":"vc+2pl","outcome":"commit","promoted":"slow",
		           "start_ns":1,"end_ns":901,"total_ns":900,"spans":[{"name":"lock-wait","site":-1,"start_ns":1,"dur_ns":900}]}]}`,
			[]string{"mvdb-flight/v4", "== waits-for graph (1 waiters) =="}},
		{"v5", `{"schema":"mvdb-flight/v5","seq":4,"reason":"audit-alarm",
		"stats":{"protocol":"vc+2pl","commits_rw":9},
		"wait_graph":{"waiters":1,"edges":[{"from":5,"to":3,"key":"hot","mode":"exclusive"}]},
		"traces":[{"id":1,"site":-1,"tx":5,"tn":6,"proto":"vc+2pl","outcome":"commit","promoted":"slow",
		           "start_ns":1,"end_ns":901,"total_ns":900,"spans":[{"name":"lock-wait","site":-1,"start_ns":1,"dur_ns":900}],
		           "blame":[{"kind":"blocked-on","phase":"lock-wait","tx":3,"key":"hot","dur_ns":900}]}]}`,
			[]string{"mvdb-flight/v5", "== waits-for graph (1 waiters) ==", "tx 5 --[exclusive \"hot\"]--> tx 3"}},
		{"v6", `{"schema":"mvdb-flight/v6","seq":4,"reason":"dump",
		"stats":{"protocol":"vc+2pl","commits_rw":9},
		"stats_ring":[{"at_ns":1,"stats":{"protocol":"vc+2pl","commits_rw":7}},
		              {"at_ns":2,"stats":{"protocol":"vc+2pl","commits_rw":9}}],
		"wait_graph":{"waiters":1,"edges":[{"from":5,"to":3,"key":"hot","mode":"exclusive"}]}}`,
			[]string{"mvdb-flight/v6", "commits rw=9", "== waits-for graph (1 waiters) =="}},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "flight-"+c.name+".json")
			if err := os.WriteFile(path, []byte(c.doc), 0o644); err != nil {
				t.Fatal(err)
			}
			b, err := flight.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if b.Seq != 4 || b.Stats.CommitsRW != 9 || b.WaitGraph == nil {
				t.Fatalf("%s bundle decoded to %+v", c.name, b)
			}
			var sb strings.Builder
			flight.Render(b, &sb)
			for _, want := range c.want {
				if !strings.Contains(sb.String(), want) {
					t.Errorf("%s bundle render lacks %q:\n%s", c.name, want, sb.String())
				}
			}
		})
	}
}

// TestCloseSemantics: Trigger fails after Close, TriggerAsync is a
// no-op, double Close is safe.
func TestCloseSemantics(t *testing.T) {
	_, r := newEngineRecorder(t, core.Options{}, t.TempDir())
	r.Close()
	r.Close()
	if _, err := r.Trigger("x", ""); err == nil {
		t.Fatal("Trigger after Close should fail")
	}
	r.TriggerAsync("x", "")
}

// TestTriggerAsyncRateLimited: asynchronous triggers within a second of
// each other write one bundle between them.
func TestTriggerAsyncRateLimited(t *testing.T) {
	dir := t.TempDir()
	_, r := newEngineRecorder(t, core.Options{}, dir)
	r.TriggerAsync("first", "")
	r.TriggerAsync("second", "")
	r.Close()
	if r.Bundles() != 1 {
		t.Fatalf("bundles = %d, want 1", r.Bundles())
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || !strings.Contains(ents[0].Name(), "first") {
		t.Fatalf("bundle dir = %v, want the first trigger's bundle alone", ents)
	}
}

// TestTriggerAsyncRacingClose: whichever of TriggerAsync and Close wins,
// no bundle appears after Close returns.
func TestTriggerAsyncRacingClose(t *testing.T) {
	e := core.New(core.Options{})
	defer e.Close()
	for i := 0; i < 50; i++ {
		dir := t.TempDir()
		r, err := flight.New(flight.Sources{Stats: e.Stats}, dir)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.TriggerAsync("race", "")
		}()
		r.Close()
		before, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		// A write Close failed to wait for would land in this window.
		time.Sleep(time.Millisecond)
		after, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(after) != len(before) {
			t.Fatalf("round %d: %d files at Close, %d after", i, len(before), len(after))
		}
	}
}
