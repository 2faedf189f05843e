package audit

import (
	"encoding/json"
	"log/slog"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"mvdb/internal/core"
	"mvdb/internal/engine"
	"mvdb/internal/history"
)

func newQuiet(t *testing.T, opts Options) *Auditor {
	t.Helper()
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.DiscardHandler)
	}
	a := New(opts)
	t.Cleanup(func() { a.Close() })
	return a
}

func alarmKinds(sn Snapshot) map[string]int {
	m := make(map[string]int)
	for _, al := range sn.Alarms {
		m[al.Kind]++
	}
	return m
}

// --- anomaly detection ------------------------------------------------

// The A1 ablation (2PL registered at begin instead of the lock-point)
// must trip a live MVSG-cycle alarm, and the online verdict must agree
// with the offline checker over the same event stream.
func TestLiveAlarmOnEarlyRegister2PL(t *testing.T) {
	rec := history.NewRecorder()
	a := newQuiet(t, Options{Window: 64})
	e := core.New(core.Options{
		Protocol:               core.TwoPhaseLocking,
		Recorder:               engine.Multi(rec, a),
		UnsafeEarlyRegister2PL: true,
	})
	defer e.Close()
	if err := e.Bootstrap(map[string][]byte{"x": {0}}); err != nil {
		t.Fatal(err)
	}

	t1, _ := e.Begin(engine.ReadWrite) // tn fixed too early
	t2, _ := e.Begin(engine.ReadWrite)
	if err := t2.Put("x", []byte("t2")); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := t1.Get("x"); err != nil {
		t.Fatal(err)
	}
	if err := t1.Put("x", []byte("t1")); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	ro, _ := e.Begin(engine.ReadOnly)
	if _, err := ro.Get("x"); err != nil {
		t.Fatal(err)
	}
	ro.Commit()

	a.Drain()
	sn := a.Snapshot()
	if alarmKinds(sn)[KindCycle] == 0 {
		t.Fatalf("no live MVSG-cycle alarm; alarms: %v", sn.Alarms)
	}
	if err := rec.Check(); err == nil {
		t.Fatal("offline checker disagrees: accepted the A1 history")
	}
}

// The A2 ablation (vtnc advanced in completion order) exposes an
// inconsistent snapshot; its read-only observer closes the cycle.
func TestLiveAlarmOnEagerVisibility(t *testing.T) {
	rec := history.NewRecorder()
	a := newQuiet(t, Options{Window: 64})
	e := core.New(core.Options{
		Protocol:              core.TimestampOrdering,
		Recorder:              engine.Multi(rec, a),
		UnsafeEagerVisibility: true,
	})
	defer e.Close()
	if err := e.Bootstrap(map[string][]byte{"y": {0}, "z": {0}}); err != nil {
		t.Fatal(err)
	}

	t1, _ := e.Begin(engine.ReadWrite)
	t2, _ := e.Begin(engine.ReadWrite)
	if _, err := t1.Get("z"); err != nil {
		t.Fatal(err)
	}
	if err := t1.Put("y", []byte("t1")); err != nil {
		t.Fatal(err)
	}
	if err := t2.Put("z", []byte("t2")); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	ro, _ := e.Begin(engine.ReadOnly)
	if _, err := ro.Get("z"); err != nil {
		t.Fatal(err)
	}
	if _, err := ro.Get("y"); err != nil {
		t.Fatal(err)
	}
	ro.Commit()
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}

	a.Drain()
	sn := a.Snapshot()
	if alarmKinds(sn)[KindCycle] == 0 {
		t.Fatalf("no live MVSG-cycle alarm; alarms: %v", sn.Alarms)
	}
	if err := rec.Check(); err == nil {
		t.Fatal("offline checker disagrees: accepted the A2 history")
	}
}

// Correct engines under concurrent load must stay silent, and the
// online verdict must agree with the offline checker.
func TestCleanEnginesNoAlarms(t *testing.T) {
	for _, p := range []core.Protocol{core.TwoPhaseLocking, core.TimestampOrdering, core.Optimistic} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			rec := history.NewRecorder()
			a := newQuiet(t, Options{Window: 4096, Queue: 1 << 15})
			e := core.New(core.Options{Protocol: p, Recorder: engine.Multi(rec, a)})
			defer e.Close()
			if err := e.Bootstrap(map[string][]byte{"a": {100}, "b": {100}}); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						if w%2 == 0 {
							ro, err := e.Begin(engine.ReadOnly)
							if err != nil {
								continue
							}
							ro.Get("a")
							ro.Get("b")
							ro.Commit()
							continue
						}
						tx, err := e.Begin(engine.ReadWrite)
						if err != nil {
							continue
						}
						if _, err := tx.Get("a"); err != nil {
							tx.Abort()
							continue
						}
						if err := tx.Put("a", []byte{byte(i)}); err != nil {
							tx.Abort()
							continue
						}
						tx.Commit()
					}
				}(w)
			}
			wg.Wait()
			a.Drain()
			sn := a.Snapshot()
			if sn.AlarmsTotal != 0 {
				t.Fatalf("correct engine raised alarms: %v", sn.Alarms)
			}
			if sn.Dropped != 0 {
				t.Fatalf("dropped %d events with oversized queue", sn.Dropped)
			}
			if err := rec.Check(); err != nil {
				t.Fatalf("offline checker failed on correct engine: %v", err)
			}
		})
	}
}

// --- invariant alarms -------------------------------------------------

func TestSnapshotReadAlarm(t *testing.T) {
	a := newQuiet(t, Options{})
	// A writer installs x@5, then a read-only transaction pinned at
	// snapshot 1 observes it — impossible under the Transaction
	// Visibility Property.
	a.RecordBegin(1, engine.ReadWrite)
	a.RecordWrite(1, "x", 5)
	a.RecordCommit(1, 5)
	a.RecordBegin(2, engine.ReadOnly)
	a.RecordSnapshot(2, 1)
	a.RecordRead(2, "x", 5)
	a.RecordRead(2, "x", 5) // repeated offense: still one alarm per tx
	a.RecordCommit(2, 1)
	a.Drain()
	sn := a.Snapshot()
	if got := alarmKinds(sn)[KindSnapshotRead]; got != 1 {
		t.Fatalf("snapshot-read alarms = %d, want 1; alarms: %v", got, sn.Alarms)
	}
}

func TestVCInvariantAlarm(t *testing.T) {
	a := newQuiet(t, Options{Gauges: func() (uint64, uint64) { return 3, 7 }}) // vtnc 7 > tnc-1 = 2
	a.RecordBegin(1, engine.ReadWrite)
	a.RecordWrite(1, "x", 1)
	a.RecordCommit(1, 1)
	a.Drain()
	if got := alarmKinds(a.Snapshot())[KindVCInvariant]; got != 1 {
		t.Fatalf("vc-invariant alarms = %d, want 1", got)
	}
}

func TestIntegrityAlarm(t *testing.T) {
	a := newQuiet(t, Options{})
	for _, tx := range []uint64{1, 2} {
		a.RecordBegin(tx, engine.ReadWrite)
		a.RecordWrite(tx, "x", 9) // same version twice
		a.RecordCommit(tx, 8+tx)
	}
	a.Drain()
	if got := alarmKinds(a.Snapshot())[KindIntegrity]; got != 1 {
		t.Fatalf("integrity alarms = %d, want 1", got)
	}
}

// --- window and backpressure -----------------------------------------

func TestWindowEviction(t *testing.T) {
	a := newQuiet(t, Options{Window: 4})
	for i := uint64(1); i <= 20; i++ {
		a.RecordBegin(i, engine.ReadWrite)
		a.RecordWrite(i, "x", i)
		a.RecordCommit(i, i)
	}
	a.Drain()
	sn := a.Snapshot()
	if sn.GraphWriters > 4 {
		t.Fatalf("graph writers = %d, want <= 4", sn.GraphWriters)
	}
	if sn.GraphEvicted < 16 {
		t.Fatalf("evicted = %d, want >= 16", sn.GraphEvicted)
	}
	if sn.AlarmsTotal != 0 {
		t.Fatalf("sequential writers alarmed: %v", sn.Alarms)
	}
}

// A saturated queue drops events — counted, never blocking the
// producer. The consumer is stalled deterministically inside a Gauges
// callback while the producer keeps recording.
func TestBackpressureDropsWithoutBlocking(t *testing.T) {
	stall := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	a := newQuiet(t, Options{
		Queue: 4,
		Gauges: func() (uint64, uint64) {
			once.Do(func() { close(entered) })
			<-stall
			return 0, 0
		},
	})
	// First commit parks the consumer inside Gauges.
	a.RecordBegin(1, engine.ReadWrite)
	a.RecordWrite(1, "x", 1)
	a.RecordCommit(1, 1)
	<-entered

	// Queue capacity is 4; everything beyond must drop, not block.
	doneSending := make(chan struct{})
	go func() {
		defer close(doneSending)
		for i := uint64(10); i < 110; i++ {
			a.RecordBegin(i, engine.ReadOnly)
		}
	}()
	select {
	case <-doneSending:
	case <-time.After(5 * time.Second):
		t.Fatal("producer blocked on a full audit queue")
	}
	if a.Dropped() == 0 {
		t.Fatal("no events dropped despite a stalled consumer and a full queue")
	}
	close(stall)
	a.Drain()
	if a.Dropped()+a.Received() != 103 { // 3 events for tx1 + 100 begins
		t.Fatalf("received %d + dropped %d != 103", a.Received(), a.Dropped())
	}
}

func TestCloseIdempotentAndDiscardsLateEvents(t *testing.T) {
	a := New(Options{Logger: slog.New(slog.DiscardHandler)})
	a.RecordBegin(1, engine.ReadWrite)
	a.RecordCommit(1, 1)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	before := a.Received()
	a.RecordBegin(2, engine.ReadWrite) // after Close: discarded silently
	if a.Received() != before {
		t.Fatal("event accepted after Close")
	}
	a.Drain() // must not hang after Close
}

// --- exposition -------------------------------------------------------

func TestHTTPHandlerServesSnapshot(t *testing.T) {
	a := newQuiet(t, Options{})
	a.RecordBegin(1, engine.ReadWrite)
	a.RecordWrite(1, "x", 1)
	a.RecordCommit(1, 1)
	a.Drain()

	srv := httptest.NewServer(a.HTTPHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sn Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&sn); err != nil {
		t.Fatal(err)
	}
	if sn.Received != 3 || sn.Processed != 3 {
		t.Fatalf("snapshot over HTTP = %+v", sn)
	}
}
