package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
)

// TestSnapshotNeverOvercounts drives begins and commits concurrently with
// snapshots: because Snapshot loads commit counters before begin
// counters, no snapshot may report more commits than begins.
func TestSnapshotNeverOvercounts(t *testing.T) {
	s := NewStats()
	var writers sync.WaitGroup
	stop := make(chan struct{})
	snapDone := make(chan struct{})
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 20000; i++ {
				s.BeginsRW.Inc()
				s.CommitsRW.Inc()
				s.BeginsRO.Inc()
				s.CommitsRO.Inc()
			}
		}()
	}
	go func() {
		defer close(snapDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			sn := s.Snapshot()
			if sn.CommitsRW > sn.BeginsRW {
				t.Errorf("snapshot: commits.rw %d > begins.rw %d", sn.CommitsRW, sn.BeginsRW)
				return
			}
			if sn.CommitsRO > sn.BeginsRO {
				t.Errorf("snapshot: commits.ro %d > begins.ro %d", sn.CommitsRO, sn.BeginsRO)
				return
			}
		}
	}()
	writers.Wait()
	close(stop)
	<-snapDone
	sn := s.Snapshot()
	if sn.BeginsRW != 80000 || sn.CommitsRW != 80000 {
		t.Fatalf("final counts = %d/%d, want 80000/80000", sn.BeginsRW, sn.CommitsRW)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 80000 {
		t.Fatalf("counter = %d, want 80000", got)
	}
}

func TestMapVocabulary(t *testing.T) {
	s := NewStats()
	s.CommitsRW.Add(3)
	s.AbortsTimeout.Inc()
	s.AbortsLog.Inc()
	sn := s.Snapshot()
	sn.TNC = 7
	sn.VTNC = 6
	m := sn.Map()
	for k, want := range map[string]int64{
		"commits.rw":     3,
		"aborts.timeout": 1,
		"aborts.log":     1,
		"vc.tnc":         7,
		"vc.vtnc":        6,
	} {
		if m[k] != want {
			t.Errorf("Map()[%q] = %d, want %d", k, m[k], want)
		}
	}
	if sn.AbortsTotal() != 2 {
		t.Errorf("AbortsTotal = %d, want 2", sn.AbortsTotal())
	}
}

// TestTracerRing checks ring semantics: capacity rounding, overwrite of
// the oldest events, and sequence-ordered dumps.
func TestTracerRing(t *testing.T) {
	tr := NewTracer(100) // rounds to 128
	if tr.Cap() != 128 {
		t.Fatalf("cap = %d, want 128", tr.Cap())
	}
	for i := 0; i < 300; i++ {
		tr.Record(Event{Type: EvCommit, Tx: uint64(i)})
	}
	evs := tr.Dump()
	if len(evs) != 128 {
		t.Fatalf("dump length = %d, want 128", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("dump out of order at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
	// The retained window is the most recent 128 events.
	if first := evs[0].Seq; first != 300-128+1 {
		t.Fatalf("oldest retained seq = %d, want %d", first, 300-128+1)
	}
	if tr.Seen() != 300 {
		t.Fatalf("seen = %d, want 300", tr.Seen())
	}
}

func TestTracerNil(t *testing.T) {
	var tr *Tracer
	tr.Record(Event{Type: EvBegin}) // must not panic
	if tr.Dump() != nil || tr.Cap() != 0 || tr.Seen() != 0 {
		t.Fatal("nil tracer should be empty")
	}
}

// The lock-wait path records through a nil tracer when tracing is off;
// that must not allocate the event before the nil test.
func TestNilTracerRecordAllocatesNothing(t *testing.T) {
	var tr *Tracer
	key := "k"
	if n := testing.AllocsPerRun(100, func() {
		tr.Record(Event{Type: EvLockWait, Tx: 7, Key: key, Dur: 1})
	}); n != 0 {
		t.Fatalf("nil (*Tracer).Record allocates %v times, want 0", n)
	}
}

func TestTracerConcurrentRecordDump(t *testing.T) {
	tr := NewTracer(64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				tr.Record(Event{Type: EvWrite, Tx: uint64(w), TN: uint64(i)})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			for _, ev := range tr.Dump() {
				if ev.Seq == 0 {
					t.Error("dumped an unstamped event")
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if tr.Seen() != 20000 {
		t.Fatalf("seen = %d, want 20000", tr.Seen())
	}
}

func TestEventJSONRoundTrip(t *testing.T) {
	in := Event{Seq: 9, At: 1234, Type: EvLockWait, Tx: 3, Key: "k", Dur: 42}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if m["type"] != "lock-wait" {
		t.Fatalf("type = %v, want lock-wait", m["type"])
	}
	var out Event
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

// Every event type — including EvSnapshot, which carries the read-only
// start number in TN, and the span/blame pair emitted for promoted
// traces — must survive the JSON round trip, and unknown type names
// must decode without error.
func TestEventJSONRoundTripAllTypes(t *testing.T) {
	for ty := EvBegin; ty <= EvBlame; ty++ {
		in := Event{Seq: 1, At: 2, Type: ty, Tx: 3, TN: 4}
		b, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		if ty.String() == "unknown" {
			t.Fatalf("type %d has no name", ty)
		}
		var out Event
		if err := json.Unmarshal(b, &out); err != nil {
			t.Fatal(err)
		}
		if out != in {
			t.Fatalf("type %s: got %+v, want %+v", ty, out, in)
		}
	}
	var out Event
	if err := json.Unmarshal([]byte(`{"type":"from-the-future","seq":7}`), &out); err != nil {
		t.Fatalf("unknown type name failed to decode: %v", err)
	}
	if out.Seq != 7 || out.Type != EvBegin {
		t.Fatalf("unknown type decoded as %+v", out)
	}
}

// TestServe spins up the debug server on an ephemeral port and checks
// both endpoints' JSON shape.
func TestServe(t *testing.T) {
	s := NewStats()
	s.BeginsRW.Add(5)
	s.CommitsRW.Add(5)
	tr := NewTracer(16)
	tr.Record(Event{Type: EvCommit, Tx: 1, TN: 2})

	srv, err := Serve("127.0.0.1:0", func() Snapshot {
		sn := s.Snapshot()
		sn.Protocol = "vc+2pl"
		return sn
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/debug/mvdb")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var p Payload
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
	if p.Stats.Protocol != "vc+2pl" || p.Stats.CommitsRW != 5 {
		t.Fatalf("stats = %+v", p.Stats)
	}
	if len(p.Trace) != 1 || p.Trace[0].Type != EvCommit {
		t.Fatalf("trace = %+v", p.Trace)
	}

	// The expvar endpoint must carry the same snapshot under "mvdb".
	resp2, err := http.Get("http://" + srv.Addr() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	raw, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	var vars struct {
		Mvdb Snapshot `json:"mvdb"`
	}
	if err := json.Unmarshal(raw, &vars); err != nil {
		t.Fatalf("expvar decode: %v\n%s", err, raw)
	}
	if vars.Mvdb.CommitsRW != 5 {
		t.Fatalf("expvar mvdb = %+v", vars.Mvdb)
	}
}

// TestServeTwice exercises the expvar duplicate-publish guard: a second
// server must not panic, and the global "mvdb" variable must follow the
// most recent snapshot function.
func TestServeTwice(t *testing.T) {
	s1, s2 := NewStats(), NewStats()
	s2.CommitsRW.Add(99)
	srv1, err := Serve("127.0.0.1:0", s1.Snapshot, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv1.Close()
	srv2, err := Serve("127.0.0.1:0", s2.Snapshot, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	resp, err := http.Get("http://" + srv2.Addr() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars struct {
		Mvdb Snapshot `json:"mvdb"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	if vars.Mvdb.CommitsRW != 99 {
		t.Fatalf("expvar should follow the latest server; got %+v", vars.Mvdb)
	}
}

// TestRecorderFeedsTracer checks the engine.Recorder bridge end to end.
func TestRecorderFeedsTracer(t *testing.T) {
	tr := NewTracer(16)
	r := Recorder{T: tr}
	r.RecordBegin(1, 0)
	r.RecordRead(1, "a", 3)
	r.RecordWrite(1, "a", 4)
	r.RecordCommit(1, 4)
	r.RecordAbort(2)
	evs := tr.Dump()
	want := []EventType{EvBegin, EvRead, EvWrite, EvCommit, EvAbort}
	if len(evs) != len(want) {
		t.Fatalf("got %d events, want %d", len(evs), len(want))
	}
	for i, w := range want {
		if evs[i].Type != w {
			t.Fatalf("event %d = %s, want %s", i, evs[i].Type, w)
		}
	}
}

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
	_ = fmt.Sprint(c.Load())
}

func BenchmarkTracerRecord(b *testing.B) {
	tr := NewTracer(4096)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tr.Record(Event{Type: EvCommit, Tx: 1, TN: 2})
		}
	})
}

func BenchmarkTracerRecordNil(b *testing.B) {
	var tr *Tracer
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tr.Record(Event{Type: EvCommit, Tx: 1, TN: 2})
		}
	})
}
