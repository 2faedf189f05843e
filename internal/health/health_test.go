package health

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mvdb/internal/obs"
)

// fakeSource is a hand-cranked snapshot source.
type fakeSource struct {
	sn    obs.Snapshot
	audit uint64
	drops uint64
}

func (f *fakeSource) sources() Sources {
	return Sources{
		Stats:       func() obs.Snapshot { return f.sn },
		AuditAlarms: func() uint64 { return f.audit },
		TraceDrops:  func() uint64 { return f.drops },
	}
}

func newTestMonitor(t *testing.T, src *fakeSource, opts Options) *Monitor {
	t.Helper()
	m, err := New(src.sources(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMonitorRatesAndDeltas(t *testing.T) {
	src := &fakeSource{}
	m := newTestMonitor(t, src, Options{Interval: time.Second})

	base := time.Unix(1_700_000_000, 0)
	if _, ok := m.Tick(base); ok {
		t.Fatal("first tick produced a point (should only set the baseline)")
	}

	src.sn.CommitsRW = 100
	src.sn.CommitsRO = 40
	src.sn.AbortsConflict = 25
	src.sn.Retries = 10
	src.sn.WALFsyncs = 20
	src.sn.WALBytes = 4000
	src.sn.VisibilityLag = 3
	src.audit = 2
	src.drops = 5
	m.ObserveLatency(false, 2*time.Millisecond)
	m.ObserveLatency(false, 4*time.Millisecond)

	p, ok := m.Tick(base.Add(2 * time.Second))
	if !ok {
		t.Fatal("second tick produced no point")
	}
	if p.CommitRateRW != 50 {
		t.Errorf("CommitRateRW = %v, want 50 (100 commits over 2s)", p.CommitRateRW)
	}
	if p.CommitRateRO != 20 {
		t.Errorf("CommitRateRO = %v, want 20", p.CommitRateRO)
	}
	if want := 25.0 / 165.0; p.AbortFrac != want {
		t.Errorf("AbortFrac = %v, want %v", p.AbortFrac, want)
	}
	if p.Ops != 165 {
		t.Errorf("Ops = %d, want 165", p.Ops)
	}
	if p.FsyncPerCommit != 0.2 {
		t.Errorf("FsyncPerCommit = %v, want 0.2", p.FsyncPerCommit)
	}
	if p.AuditAlarms != 2 || p.TraceDrops != 5 {
		t.Errorf("deltas = audit %d drops %d, want 2, 5", p.AuditAlarms, p.TraceDrops)
	}
	if p.VisibilityLag != 3 {
		t.Errorf("VisibilityLag = %d, want 3", p.VisibilityLag)
	}
	if p.CommitP99NS < 2_000_000 {
		t.Errorf("CommitP99NS = %d, want >= 2ms (samples were 2ms and 4ms)", p.CommitP99NS)
	}
	if p.HeapBytes == 0 {
		t.Error("HeapBytes = 0, want live heap reading")
	}

	// A second interval with no traffic: rates return to zero and the
	// latency percentiles forget the earlier samples.
	p2, _ := m.Tick(base.Add(3 * time.Second))
	if p2.CommitRateRW != 0 || p2.CommitP99NS != 0 || p2.AuditAlarms != 0 {
		t.Errorf("idle interval not zeroed: %+v", p2)
	}
}

func TestDownsamplingLadder(t *testing.T) {
	src := &fakeSource{}
	m := newTestMonitor(t, src, Options{
		Interval: time.Second,
		Levels:   []Level{{Factor: 1, Cap: 8}, {Factor: 4, Cap: 4}, {Factor: 8, Cap: 4}},
	})
	base := time.Unix(1_700_000_000, 0)
	m.Tick(base)
	var commits int64
	for i := 1; i <= 16; i++ {
		commits += 10
		src.sn.CommitsRW = commits
		src.sn.MaxVersionChain = i // growing gauge: merges must keep the max
		m.Tick(base.Add(time.Duration(i) * time.Second))
	}
	if got := len(m.Points(0, 0)); got != 8 {
		t.Fatalf("level 0 retained %d points, want 8 (cap)", got)
	}
	l1 := m.Points(1, 0)
	if len(l1) != 4 {
		t.Fatalf("level 1 has %d points, want 4 (16 ticks / factor 4)", len(l1))
	}
	if l1[0].DurNS != (4 * time.Second).Nanoseconds() {
		t.Errorf("level-1 DurNS = %d, want 4s", l1[0].DurNS)
	}
	if l1[0].CommitRateRW != 10 {
		t.Errorf("level-1 merged rate = %v, want 10 (steady 10 commits/s)", l1[0].CommitRateRW)
	}
	if l1[3].MaxVersionChain != 16 {
		t.Errorf("level-1 merged gauge = %d, want max 16", l1[3].MaxVersionChain)
	}
	l2 := m.Points(2, 0)
	if len(l2) != 2 {
		t.Fatalf("level 2 has %d points, want 2 (16 ticks / factor 8)", len(l2))
	}
	if l2[1].Ops != 80 {
		t.Errorf("level-2 Ops = %d, want 80 (count deltas sum)", l2[1].Ops)
	}
}

func TestSLOFastBurnPagesAndHysteresis(t *testing.T) {
	src := &fakeSource{}
	var alarms []Alarm
	m := newTestMonitor(t, src, Options{
		Interval: time.Second,
		SLOs: []SLO{{
			Name: "lag", Metric: "visibility_lag", Max: 5,
			FastWindow: 4, SlowWindow: 8, FastBurn: 0.5, SlowBurn: 0.25,
		}},
		OnAlarm: func(a Alarm) { alarms = append(alarms, a) },
	})

	base := time.Unix(1_700_000_000, 0)
	m.Tick(base)
	tick := func(i int, lag uint64) {
		src.sn.VisibilityLag = lag
		m.Tick(base.Add(time.Duration(i) * time.Second))
	}
	tick(1, 0)
	if len(alarms) != 0 {
		t.Fatalf("alarm on healthy point: %+v", alarms)
	}
	// One breach: 1/4 fast burn, below the 0.5 trip point — no page
	// even though the current point violates the objective.
	tick(2, 50)
	if len(alarms) != 0 {
		t.Fatalf("paged on a single blip: %+v", alarms)
	}
	// Second consecutive breach: fast burn 2/4 = 0.5 -> page.
	tick(3, 50)
	if len(alarms) != 1 || alarms[0].Severity != SeverityPage {
		t.Fatalf("alarms = %+v, want one page", alarms)
	}
	if alarms[0].SLO != "lag" || alarms[0].Value != 50 || alarms[0].Threshold != 5 {
		t.Fatalf("alarm content wrong: %+v", alarms[0])
	}
	// Hysteresis: staying saturated raises nothing new.
	tick(4, 50)
	tick(5, 50)
	if len(alarms) != 1 {
		t.Fatalf("saturated window re-alarmed: %d alarms", len(alarms))
	}
	// Recovery drains the fast window; the slow window (4/8 breaches)
	// keeps it at warn, which is a de-escalation — no new alarm.
	tick(6, 0)
	tick(7, 0)
	tick(8, 0)
	tick(9, 0)
	st := m.SLOStates()
	if len(st) != 1 || st[0].State == "page" {
		t.Fatalf("state after recovery = %+v", st)
	}
	if len(alarms) != 1 {
		t.Fatalf("de-escalation alarmed: %+v", alarms)
	}
	if m.PointsTotal() != 9 {
		t.Fatalf("got %d points, want 9", m.PointsTotal())
	}
	if w, p := m.AlarmCounts(); w != 0 || p != 1 {
		t.Fatalf("AlarmCounts = %d warn %d page, want 0, 1", w, p)
	}
}

func TestSLOSlowBurnWarns(t *testing.T) {
	src := &fakeSource{}
	m := newTestMonitor(t, src, Options{
		Interval: time.Second,
		SLOs: []SLO{{
			Name: "frac", Metric: "abort_frac", Max: 0.5,
			FastWindow: 2, SlowWindow: 10, FastBurn: 1.0, SlowBurn: 0.3,
		}},
	})
	base := time.Unix(1_700_000_000, 0)
	m.Tick(base)
	var ops int64
	for i := 1; i <= 12; i++ {
		// Alternate healthy and breaching intervals: the fast window
		// (needs 2/2) never trips, the slow one (needs 3/10) does.
		ops += 10
		if i%2 == 0 {
			src.sn.AbortsUser = src.sn.AbortsUser + 8
			src.sn.CommitsRW = ops - src.sn.AbortsUser
		} else {
			src.sn.CommitsRW = ops - src.sn.AbortsUser
		}
		m.Tick(base.Add(time.Duration(i) * time.Second))
	}
	if w, p := m.AlarmCounts(); w != 1 || p != 0 {
		t.Fatalf("AlarmCounts = %d warn %d page, want 1 warn", w, p)
	}
}

func TestNewValidation(t *testing.T) {
	src := &fakeSource{}
	if _, err := New(Sources{}, Options{}); err == nil {
		t.Error("New accepted nil Stats source")
	}
	if _, err := New(src.sources(), Options{Levels: []Level{{Factor: 2, Cap: 4}}}); err == nil {
		t.Error("New accepted level-0 factor != 1")
	}
	if _, err := New(src.sources(), Options{Levels: []Level{{Factor: 1, Cap: 4}, {Factor: 3, Cap: 4}, {Factor: 7, Cap: 4}}}); err == nil {
		t.Error("New accepted non-divisible level factors")
	}
	if _, err := New(src.sources(), Options{SLOs: []SLO{{Name: "x", Metric: "no_such_metric", Max: 1}}}); err == nil {
		t.Error("New accepted an SLO over an unknown metric")
	}
	if _, err := New(src.sources(), Options{SLOs: []SLO{{Metric: "ops", Max: 1}}}); err == nil {
		t.Error("New accepted a nameless SLO")
	}
}

func TestNilMonitorIsSafe(t *testing.T) {
	var m *Monitor
	m.ObserveLatency(false, time.Millisecond)
	m.Start()
	m.Stop()
	if m.Points(0, 1) != nil || m.NumLevels() != 0 || m.PointsTotal() != 0 {
		t.Error("nil monitor leaked data")
	}
	if got := m.Timeline(-1, 0); len(got.Levels) != 0 || got.Schema != Schema {
		t.Errorf("nil Timeline = %+v", got)
	}
	var sb strings.Builder
	m.WriteProm(&sb) // must not panic
}

func TestStartStopBackgroundTicking(t *testing.T) {
	src := &fakeSource{}
	m := newTestMonitor(t, src, Options{Interval: 5 * time.Millisecond})
	m.Start()
	deadline := time.Now().Add(2 * time.Second)
	for m.PointsTotal() < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	m.Stop()
	m.Stop() // idempotent
	if m.PointsTotal() < 3 {
		t.Fatalf("background ticker produced %d points, want >= 3", m.PointsTotal())
	}
}

func TestSparkline(t *testing.T) {
	pts := []Point{{Goroutines: 1}, {Goroutines: 5}, {Goroutines: 10}}
	s := Sparkline(pts, "goroutines")
	runes := []rune(s)
	if len(runes) != 3 {
		t.Fatalf("sparkline %q has %d runes, want 3", s, len(runes))
	}
	if runes[0] != '▁' || runes[2] != '█' {
		t.Errorf("sparkline %q does not span min..max", s)
	}
	if Sparkline(nil, "goroutines") != "" {
		t.Error("empty series should render empty")
	}
	// A flat series stays at the floor rune rather than dividing by zero.
	flat := Sparkline([]Point{{Ops: 4}, {Ops: 4}}, "ops")
	if flat != "▁▁" {
		t.Errorf("flat sparkline = %q", flat)
	}
}

func TestHTTPHandler(t *testing.T) {
	src := &fakeSource{}
	m := newTestMonitor(t, src, Options{
		Interval: time.Second,
		SLOs:     []SLO{{Name: "lag", Metric: "visibility_lag", Max: 5}},
	})
	srv := httptest.NewServer(m.HTTPHandler())
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	// Before the first tick: valid empty document, not an error.
	code, body := get("/")
	if code != http.StatusOK {
		t.Fatalf("pre-tick status = %d, want 200", code)
	}
	var tl Timeline
	if err := json.Unmarshal([]byte(body), &tl); err != nil {
		t.Fatalf("pre-tick body undecodable: %v", err)
	}
	if tl.Schema != Schema || len(tl.Levels) != 3 {
		t.Fatalf("pre-tick timeline = %+v", tl)
	}
	for _, lv := range tl.Levels {
		if len(lv.Points) != 0 {
			t.Fatalf("pre-tick points at level %d", lv.Level)
		}
	}

	base := time.Unix(1_700_000_000, 0)
	m.Tick(base)
	src.sn.CommitsRW = 30
	m.Tick(base.Add(time.Second))

	code, body = get("/?level=0&n=10")
	if code != http.StatusOK {
		t.Fatalf("status = %d, want 200", code)
	}
	if err := json.Unmarshal([]byte(body), &tl); err != nil {
		t.Fatal(err)
	}
	if len(tl.Levels) != 1 || len(tl.Levels[0].Points) != 1 {
		t.Fatalf("timeline = %+v", tl)
	}
	if tl.Levels[0].Points[0].CommitRateRW != 30 {
		t.Fatalf("served point = %+v", tl.Levels[0].Points[0])
	}
	if len(tl.SLOs) != 1 || tl.SLOs[0].State != "ok" {
		t.Fatalf("SLO states = %+v", tl.SLOs)
	}

	code, body = get("/?format=sparkline")
	if code != http.StatusOK {
		t.Fatalf("sparkline status = %d", code)
	}
	if !strings.Contains(body, "commit_rate_rw") || !strings.Contains(body, "slo lag") {
		t.Fatalf("sparkline body missing rows:\n%s", body)
	}
	code, body = get("/?format=sparkline&metric=heap_bytes")
	if code != http.StatusOK || strings.Contains(body, "commit_rate_rw") {
		t.Fatalf("metric filter broken (%d):\n%s", code, body)
	}

	// Error paths.
	for _, path := range []string{"/?level=9", "/?level=-1", "/?level=x", "/?n=0", "/?n=abc", "/?format=pdf", "/?format=sparkline&metric=bogus"} {
		if code, _ := get(path); code != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", path, code)
		}
	}
}

func TestWritePromHealthFamilies(t *testing.T) {
	src := &fakeSource{}
	m := newTestMonitor(t, src, Options{
		Interval: time.Second,
		SLOs:     []SLO{{Name: "lag", Metric: "visibility_lag", Max: 5, FastWindow: 1, SlowWindow: 2, FastBurn: 0.5}},
	})
	base := time.Unix(1_700_000_000, 0)
	m.Tick(base)
	src.sn.VisibilityLag = 50
	m.Tick(base.Add(time.Second))

	var sb strings.Builder
	m.WriteProm(&sb)
	out := sb.String()
	for _, want := range []string{
		"mvdb_health_points_total 1",
		`mvdb_health_alarms_total{severity="page"} 1`,
		`mvdb_health_slo_state{slo="lag"} 2`,
		`mvdb_health_slo_burn{slo="lag",window="fast"} 1`,
		"mvdb_health_commit_p99_seconds",
		"mvdb_health_abort_frac",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestAlarmFeedsEventRing(t *testing.T) {
	src := &fakeSource{}
	ring := obs.NewTracer(16)
	m := newTestMonitor(t, src, Options{
		Interval: time.Second,
		SLOs:     []SLO{{Name: "lag", Metric: "visibility_lag", Max: 5, FastWindow: 1, SlowWindow: 2, FastBurn: 0.5}},
		Ring:     ring,
	})
	base := time.Unix(1_700_000_000, 0)
	m.Tick(base)
	src.sn.VisibilityLag = 50
	m.Tick(base.Add(time.Second))
	found := false
	for _, ev := range ring.Dump() {
		if ev.Type == obs.EvHealth && ev.Key == "lag/page" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no EvHealth event in ring: %+v", ring.Dump())
	}
}

func TestCheckDrift(t *testing.T) {
	mk := func(heaps ...uint64) []Point {
		pts := make([]Point, len(heaps))
		for i, h := range heaps {
			pts[i] = Point{HeapBytes: h}
		}
		return pts
	}
	// Stable series passes.
	res := CheckDrift(mk(100, 100, 100, 100, 100, 100), []DriftCheck{{Metric: "heap_bytes", MaxRatio: 2, Slack: 10}})
	if len(res) != 1 || !res[0].OK {
		t.Fatalf("stable series failed: %+v", res)
	}
	// Monotonic 10x growth fails.
	res = CheckDrift(mk(100, 100, 300, 500, 1000, 1000), []DriftCheck{{Metric: "heap_bytes", MaxRatio: 2, Slack: 10}})
	if res[0].OK {
		t.Fatalf("10x growth passed: %+v", res)
	}
	// Too few points: vacuous pass.
	res = CheckDrift(mk(1, 1000), []DriftCheck{{Metric: "heap_bytes", MaxRatio: 2}})
	if !res[0].OK {
		t.Fatalf("short series should pass vacuously: %+v", res)
	}
}

func TestMergePointsProtocolAndTimestamps(t *testing.T) {
	a := Point{AtNS: 1000, DurNS: 500, Protocol: "vc+2pl", CommitRateRW: 10}
	b := Point{AtNS: 2000, DurNS: 500, Protocol: "vc+to", CommitRateRW: 30}
	m := mergePoints([]Point{a, b})
	if m.AtNS != 2000 || m.DurNS != 1000 {
		t.Errorf("merged stamps = at %d dur %d", m.AtNS, m.DurNS)
	}
	if m.Protocol != "vc+to" {
		t.Errorf("merged protocol = %q, want newest", m.Protocol)
	}
	if m.CommitRateRW != 20 {
		t.Errorf("merged rate = %v, want duration-weighted 20", m.CommitRateRW)
	}
}
