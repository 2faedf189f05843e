package obs

import (
	"io"
	"net/http"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"mvdb/internal/metrics"
)

// checkPromText validates the Prometheus text exposition format at the
// level a scraper cares about: every non-comment line is
// "name[{labels}] value" with a parseable float value, and every sample
// is preceded by a # TYPE for its family.
func checkPromText(t *testing.T, out string) {
	t.Helper()
	typed := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if line == "" {
			t.Fatal("blank line in exposition")
		}
		if strings.HasPrefix(line, "# TYPE ") {
			typed[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed line %q", line)
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		family := strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")
		if !typed[name] && !typed[family] {
			t.Fatalf("sample %q has no # TYPE header", line)
		}
	}
}

func TestSnapshotWriteProm(t *testing.T) {
	s := NewStats()
	s.BeginsRO.Add(7)
	s.BeginsRW.Add(5)
	s.CommitsRO.Add(6)
	s.CommitsRW.Add(4)
	s.AbortsConflict.Add(2)
	s.LockWaitNanos.Record(1_000_000)
	sn := s.Snapshot()
	sn.Protocol = "vc+2pl"
	sn.TNC, sn.VTNC, sn.VisibilityLag = 10, 8, 1

	var sb strings.Builder
	if err := sn.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	checkPromText(t, out)
	for _, want := range []string{
		`mvdb_info{protocol="vc+2pl"} 1`,
		`mvdb_commits_total{class="ro"} 6`,
		`mvdb_commits_total{class="rw"} 4`,
		`mvdb_aborts_total{cause="conflict"} 2`,
		"mvdb_tnc 10",
		"mvdb_vtnc 8",
		"mvdb_visibility_lag 1",
		`mvdb_lock_wait_seconds{quantile="0.99"}`,
		"mvdb_lock_wait_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestPromWriterEscaping(t *testing.T) {
	var sb strings.Builder
	p := NewPromWriter(&sb)
	p.Value("m", 1.5, "k", "a\\b\"c\nd")
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	want := `m{k="a\\b\"c\nd"} 1.5` + "\n"
	if sb.String() != want {
		t.Fatalf("escaped line = %q, want %q", sb.String(), want)
	}
}

func TestPromWriterSummary(t *testing.T) {
	var sb strings.Builder
	p := NewPromWriter(&sb)
	p.Summary("lat_seconds", metrics.Summary{Count: 2, P50: 1e9, P90: 2e9, P99: 3e9, TotalNanoseconds: 4e9}, "class", "rw")
	out := sb.String()
	for _, want := range []string{
		`lat_seconds{class="rw",quantile="0.5"} 1`,
		`lat_seconds{class="rw",quantile="0.99"} 3`,
		`lat_seconds_sum{class="rw"} 4`,
		`lat_seconds_count{class="rw"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

// The /metrics endpoint serves the snapshot plus registered extras with
// the Prometheus content type, and WithHandler mounts extra routes.
func TestServeMetricsEndpoint(t *testing.T) {
	s := NewStats()
	s.CommitsRW.Add(3)
	s.BeginsRW.Add(3)
	srv, err := Serve("127.0.0.1:0", func() Snapshot {
		sn := s.Snapshot()
		sn.Protocol = "vc+to"
		return sn
	},
		WithPromExtra(func(w io.Writer) {
			io.WriteString(w, "# TYPE extra_metric gauge\nextra_metric 42\n")
		}),
		WithHandler("/debug/mvdb/custom", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			io.WriteString(w, "custom-ok")
		})),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != PromContentType {
		t.Fatalf("content type = %q, want %q", ct, PromContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	checkPromText(t, out)
	for _, want := range []string{
		`mvdb_commits_total{class="rw"} 3`,
		"extra_metric 42",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, out)
		}
	}

	resp2, err := http.Get("http://" + srv.Addr() + "/debug/mvdb/custom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	got, _ := io.ReadAll(resp2.Body)
	if string(got) != "custom-ok" {
		t.Fatalf("custom handler = %q", got)
	}
}

// TestWritePromCompleteness is the exposition-completeness gate: every
// field of the Stats registry and the Snapshot document must surface in
// WriteProm under a known, valid metric family. A field added to either
// struct without a family mapping here (and an emission in WriteProm)
// fails the test by name, so new counters cannot silently skip the
// /metrics endpoint.
func TestWritePromCompleteness(t *testing.T) {
	// field name (Stats or Snapshot) -> Prometheus family it feeds.
	families := map[string]string{
		"Protocol":                  "mvdb_info",
		"BeginsRO":                  "mvdb_begins_total",
		"BeginsRW":                  "mvdb_begins_total",
		"CommitsRO":                 "mvdb_commits_total",
		"CommitsRW":                 "mvdb_commits_total",
		"Retries":                   "mvdb_retries_total",
		"AbortsConflict":            "mvdb_aborts_total",
		"AbortsDeadlock":            "mvdb_aborts_total",
		"AbortsTimeout":             "mvdb_aborts_total",
		"AbortsUser":                "mvdb_aborts_total",
		"AbortsLog":                 "mvdb_aborts_total",
		"RWAbortsByRO":              "mvdb_rw_aborts_by_ro_total",
		"ROBlocked":                 "mvdb_ro_blocked_total",
		"RecencyWaits":              "mvdb_ro_recency_waits_total",
		"LockWaits":                 "mvdb_lock_waits_total",
		"LockDeadlocks":             "mvdb_lock_deadlocks_total",
		"LockTimeouts":              "mvdb_lock_timeouts_total",
		"LockWait":                  "mvdb_lock_wait_seconds",
		"LockWaitNanos":             "mvdb_lock_wait_seconds",
		"LockStripes":               "mvdb_lock_stripes",
		"LockStripeCollisions":      "mvdb_lock_stripe_collisions_total",
		"WALAppends":                "mvdb_wal_appends_total",
		"WALFsyncs":                 "mvdb_wal_fsyncs_total",
		"WALBytes":                  "mvdb_wal_bytes_total",
		"WALBatches":                "mvdb_wal_batches_total",
		"WALGatherTimeouts":         "mvdb_wal_gather_timeouts_total",
		"WALBatchSize":              "mvdb_wal_batch_records",
		"WALFsyncPerAppend":         "mvdb_wal_fsync_per_append",
		"WALSizeBytes":              "mvdb_wal_size_bytes",
		"CheckpointLastUnixNanos":   "mvdb_checkpoint_last_unix",
		"CheckpointDurationNanos":   "mvdb_checkpoint_duration_seconds",
		"CheckpointLastUnix":        "mvdb_checkpoint_last_unix",
		"CheckpointDurationSeconds": "mvdb_checkpoint_duration_seconds",
		"GCPasses":                  "mvdb_gc_passes_total",
		"GCReclaimed":               "mvdb_gc_reclaimed_total",
		"GCChainDepth":              "mvdb_gc_chain_depth",
		"GCBacklog":                 "mvdb_gc_backlog",
		"VisibilityMode":            "mvdb_visibility_info",
		"TNC":                       "mvdb_tnc",
		"VTNC":                      "mvdb_vtnc",
		"VisibilityLag":             "mvdb_visibility_lag",
		"VCQueueLen":                "mvdb_vc_queue_len",
		"Keys":                      "mvdb_keys",
		"Versions":                  "mvdb_versions",
		"MaxVersionChain":           "mvdb_version_chain_max",
		"MeanVersionChain":          "mvdb_version_chain_mean",
		"StoreWaits":                "mvdb_store_waits_total",
		"Phases":                    "mvdb_phase_seconds",
		"Goroutines":                "mvdb_goroutines",
		"GOMAXPROCS":                "mvdb_gomaxprocs",
		"UptimeSeconds":             "mvdb_uptime_seconds",
		"GoVersion":                 "mvdb_build_info",
		"BuildRevision":             "mvdb_build_info",
	}

	// Populate the live registry so no conditional family is skipped.
	s := NewStats()
	sv := reflect.ValueOf(s).Elem()
	for i := 0; i < sv.NumField(); i++ {
		f := sv.Type().Field(i)
		if !f.IsExported() {
			continue // internal plumbing (e.g. the uptime epoch), not a metric
		}
		if _, ok := families[f.Name]; !ok {
			t.Errorf("Stats.%s has no Prometheus family mapping; export it in WriteProm and add it here", f.Name)
			continue
		}
		switch v := sv.Field(i).Addr().Interface().(type) {
		case *Counter:
			v.Add(3)
		case *Gauge:
			v.Set(3)
		case **metrics.Histogram:
			(*v).Record(1_000_000)
		default:
			t.Errorf("Stats.%s: unhandled field type %s", f.Name, f.Type)
		}
	}

	sn := s.Snapshot()
	// Fill every remaining Snapshot field nonzero so value-gated
	// families (summaries, phases) all emit.
	nv := reflect.ValueOf(&sn).Elem()
	for i := 0; i < nv.NumField(); i++ {
		f := nv.Type().Field(i)
		if _, ok := families[f.Name]; !ok {
			t.Errorf("Snapshot.%s has no Prometheus family mapping; export it in WriteProm and add it here", f.Name)
			continue
		}
		fv := nv.Field(i)
		switch {
		case f.Type.Kind() == reflect.String:
			fv.SetString("vc+2pl")
		case f.Type == reflect.TypeOf(metrics.Summary{}):
			fv.Set(reflect.ValueOf(metrics.Summary{Count: 2, Mean: 5, P50: 4, P90: 6, P99: 8, Max: 9, TotalNanoseconds: 10}))
		case f.Type == reflect.TypeOf([]PhaseSummary(nil)):
			fv.Set(reflect.ValueOf([]PhaseSummary{{
				Protocol:  "vc+2pl",
				Phase:     "fsync-wait",
				Durations: metrics.Summary{Count: 1, P50: 1, P99: 1, Max: 1, TotalNanoseconds: 1},
				SlowestTx: 42,
			}}))
		case fv.CanInt():
			fv.SetInt(7)
		case fv.CanUint():
			fv.SetUint(7)
		case fv.CanFloat():
			fv.SetFloat(0.5)
		default:
			t.Errorf("Snapshot.%s: unhandled field type %s", f.Name, f.Type)
		}
	}

	var sb strings.Builder
	if err := sn.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	checkPromText(t, out)

	nameRE := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	emitted := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		name := strings.Fields(line)[2]
		if !nameRE.MatchString(name) {
			t.Errorf("invalid metric name %q", name)
		}
		emitted[name] = true
	}
	for field, family := range families {
		if !emitted[family] {
			t.Errorf("family %s (from field %s) missing from exposition:\n%s", family, field, out)
		}
	}
	// The phase exemplar gauge rides the Phases field too.
	if !emitted["mvdb_phase_slowest_tx"] {
		t.Errorf("mvdb_phase_slowest_tx missing from exposition")
	}
	// No layer owns these prefixes: a fully populated snapshot emits
	// neither.
	for fam := range emitted {
		if strings.HasPrefix(fam, "mvdb_health_") || strings.HasPrefix(fam, "mvdb_hotspot_") {
			t.Errorf("deleted family %s emitted", fam)
		}
	}
}
