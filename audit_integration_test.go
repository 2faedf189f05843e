package mvdb

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"mvdb/internal/audit"
)

// TestAuditEndToEnd opens a real database with the auditor and the
// debug server, runs a workload, and checks the full surface: the
// auditor snapshot, /debug/mvdb/audit, and the auditor families merged
// into /metrics.
func TestAuditEndToEnd(t *testing.T) {
	db, err := Open(Options{
		Protocol:  TimestampOrdering,
		Audit:     true,
		DebugAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Bootstrap(map[string][]byte{"a": {0}, "b": {0}}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if w%2 == 0 {
					db.View(func(tx *Tx) error {
						tx.Get("a")
						tx.Get("b")
						return nil
					})
					continue
				}
				db.Update(func(tx *Tx) error {
					if _, err := tx.Get("a"); err != nil {
						return err
					}
					return tx.Put("a", []byte{byte(i)})
				})
			}
		}(w)
	}
	wg.Wait()

	aud := db.Audit()
	if aud == nil {
		t.Fatal("Options.Audit did not create an auditor")
	}
	aud.Drain()
	sn := aud.Snapshot()
	if sn.AlarmsTotal != 0 {
		t.Fatalf("correct engine raised alarms: %v", sn.Alarms)
	}
	if sn.Processed == 0 || sn.GraphWriters == 0 {
		t.Fatalf("auditor saw no traffic: %+v", sn)
	}
	if sn.Latency["read-write"].Count == 0 || sn.Latency["read-only"].Count == 0 {
		t.Fatalf("latency summaries missing: %+v", sn.Latency)
	}

	// The audit debug endpoint serves the same snapshot shape.
	resp, err := http.Get("http://" + db.DebugAddr() + "/debug/mvdb/audit")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var httpSn audit.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&httpSn); err != nil {
		t.Fatal(err)
	}
	if httpSn.Window != audit.DefaultWindow || httpSn.Processed == 0 {
		t.Fatalf("audit endpoint snapshot = %+v", httpSn)
	}

	// /metrics carries both the engine families and the auditor's.
	resp2, err := http.Get("http://" + db.DebugAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type = %q", ct)
	}
	body, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		`mvdb_commits_total{class="rw"}`,
		`mvdb_commits_total{class="ro"}`,
		"mvdb_visibility_lag",
		"mvdb_audit_events_total",
		"mvdb_audit_alarms_total 0",
		`mvdb_txn_latency_seconds{class="rw",quantile="0.95"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, out)
		}
	}
}

// TestAuditSurvivesHotClose closes the database while the auditor still
// has queued events; Close must drain and stop cleanly.
func TestAuditSurvivesHotClose(t *testing.T) {
	db, err := Open(Options{Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Bootstrap(map[string][]byte{"k": {0}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		db.Update(func(tx *Tx) error { return tx.Put("k", []byte{byte(i)}) })
	}
	aud := db.Audit()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	sn := aud.Snapshot()
	if sn.Received != sn.Processed {
		t.Fatalf("Close did not drain: received %d, processed %d", sn.Received, sn.Processed)
	}
	if sn.AlarmsTotal != 0 {
		t.Fatalf("sequential updates alarmed: %v", sn.Alarms)
	}
}
