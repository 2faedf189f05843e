package mvdb

import (
	"encoding/json"
	"net/http"
	"sync"
	"testing"

	"mvdb/internal/audit"
)

// TestAuditEndToEnd opens a real database with the auditor, phase
// timing and the debug server, runs a workload, and checks the full
// surface: the auditor snapshot, /debug/mvdb/audit, the phase matrix
// (the one place commit latency is timed), and the commits and phase
// rows /debug/mvdb serves.
func TestAuditEndToEnd(t *testing.T) {
	db, err := Open(Options{
		Protocol:    TimestampOrdering,
		Audit:       true,
		PhaseTiming: true,
		DebugAddr:   "127.0.0.1:0",
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
	rows := map[string]uint64{}
	for _, ps := range db.Stats().Phases {
		rows[ps.Protocol] += ps.Durations.Count
	}
	if rows["vc+to"] == 0 || rows["ro"] == 0 {
		t.Fatalf("phase matrix rows missing: %+v", db.Stats().Phases)
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
	if httpSn.Window != audit.DefaultWindow || httpSn.Processed == 0 ||
		httpSn.Received == 0 || httpSn.AlarmsTotal != 0 {
		t.Fatalf("audit endpoint snapshot = %+v", httpSn)
	}

	// /debug/mvdb carries the commits and the phase matrix.
	resp2, err := http.Get("http://" + db.DebugAddr() + "/debug/mvdb")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.CommitsRW == 0 || st.CommitsRO == 0 {
		t.Fatalf("/debug/mvdb commits = %d rw, %d ro", st.CommitsRW, st.CommitsRO)
	}
	var visibleWait bool
	for _, ps := range st.Phases {
		if ps.Protocol == "vc+to" && ps.Phase == "visible-wait" && ps.Durations.Count > 0 {
			visibleWait = true
		}
	}
	if !visibleWait {
		t.Fatalf("/debug/mvdb has no vc+to visible-wait row: %+v", st.Phases)
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
