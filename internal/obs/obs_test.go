package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"mvdb/internal/metrics"
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

func TestAbortsTotal(t *testing.T) {
	s := NewStats()
	s.CommitsRW.Add(3)
	s.AbortsTimeout.Inc()
	s.AbortsLog.Inc()
	if sn := s.Snapshot(); sn.AbortsTotal() != 2 {
		t.Errorf("AbortsTotal = %d, want 2", sn.AbortsTotal())
	}
}

// TestServe spins up the debug server on an ephemeral port and checks
// the JSON shape of /debug/mvdb and that an extra route is mounted.
func TestServe(t *testing.T) {
	s := NewStats()
	s.BeginsRW.Add(5)
	s.CommitsRW.Add(5)

	srv, err := Serve("127.0.0.1:0", func() Snapshot {
		sn := s.Snapshot()
		sn.Protocol = "vc+2pl"
		return sn
	}, map[string]http.Handler{
		"/debug/mvdb/custom": http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			io.WriteString(w, "custom-ok")
		}),
	})
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
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(body, &keys); err != nil {
		t.Fatal(err)
	}
	// The document is the snapshot itself, not wrapped under a key.
	if keys["commits_rw"] == nil || keys["stats"] != nil {
		t.Fatalf("document keys = %v, want the snapshot's own", keys)
	}
	var sn Snapshot
	if err := json.Unmarshal(body, &sn); err != nil {
		t.Fatal(err)
	}
	if sn.Protocol != "vc+2pl" || sn.CommitsRW != 5 {
		t.Fatalf("stats = %+v", sn)
	}

	resp2, err := http.Get("http://" + srv.Addr() + "/debug/mvdb/custom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if got, _ := io.ReadAll(resp2.Body); string(got) != "custom-ok" {
		t.Fatalf("custom route = %q", got)
	}
}

// TestSnapshotCarriesEveryCounter sets every field of the live registry
// and checks that Snapshot copies each one into the document: a field
// added to Stats but not read by Snapshot fails by name.
func TestSnapshotCarriesEveryCounter(t *testing.T) {
	// Registry fields whose Snapshot field is named differently.
	renamed := map[string]string{
		"LockWaitNanos":           "LockWait",
		"CheckpointLastUnixNanos": "CheckpointLastUnix",
		"CheckpointDurationNanos": "CheckpointDurationSeconds",
	}
	s := NewStats()
	sv := reflect.ValueOf(s).Elem()
	var fields []string
	for i := 0; i < sv.NumField(); i++ {
		f := sv.Type().Field(i)
		if !f.IsExported() {
			continue // internal plumbing (the uptime epoch), not a counter
		}
		// 3e9 survives the nanoseconds-to-seconds conversions.
		switch v := sv.Field(i).Addr().Interface().(type) {
		case *Counter:
			v.Add(3e9)
		case *Gauge:
			v.Set(3e9)
		case **metrics.Histogram:
			(*v).Record(3e9)
		default:
			t.Fatalf("Stats.%s: unhandled field type %s", f.Name, f.Type)
		}
		fields = append(fields, f.Name)
	}
	sn := reflect.ValueOf(s.Snapshot())
	for _, name := range fields {
		want := name
		if r, ok := renamed[name]; ok {
			want = r
		}
		fv := sn.FieldByName(want)
		if !fv.IsValid() {
			t.Errorf("Stats.%s has no Snapshot field %s; name it the same or map it here", name, want)
			continue
		}
		if fv.IsZero() {
			t.Errorf("Snapshot.%s is zero: Snapshot does not copy Stats.%s", want, name)
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
