package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"

	"mvdb/internal/audit"
	"mvdb/internal/metrics"
	"mvdb/internal/obs"
)

// retryMax bounds the reconnect loop: after this many consecutive
// failures the watcher concludes the process is gone, not restarting.
const retryMax = 8

// retry calls fetch until it succeeds, sleeping with capped exponential
// backoff between failures (500ms, 1s, 2s, ... capped at maxWait). A
// live dashboard should ride out a restarting or briefly unreachable
// process, not die on the first connection refused; only retryMax
// consecutive failures return the last error.
func retry[T any](what string, maxWait time.Duration, fetch func() (T, error)) (T, error) {
	wait := 500 * time.Millisecond
	for tries := 1; ; tries++ {
		v, err := fetch()
		if err == nil {
			return v, nil
		}
		if tries >= retryMax {
			return v, err
		}
		fmt.Fprintf(os.Stderr, "mvdb inspect: %s: %v (retry %d/%d in %s)\n", what, err, tries, retryMax, wait)
		time.Sleep(wait)
		if wait *= 2; wait > maxWait {
			wait = maxWait
		}
	}
}

// runLive polls a running database's /debug/mvdb endpoint (see
// mvdb.Options.DebugAddr) and renders each snapshot as a table, with
// per-interval deltas for the counters that move. count == 0 polls until
// the process is interrupted. Fetch failures reconnect with capped
// backoff rather than exiting.
func runLive(addr string, interval time.Duration, count int) int {
	if interval <= 0 {
		interval = time.Second
	}
	url := "http://" + addr + "/debug/mvdb"
	client := &http.Client{Timeout: 10 * time.Second}
	var prev *obs.Payload
	for i := 0; count == 0 || i < count; i++ {
		if i > 0 {
			time.Sleep(interval)
		}
		cur, err := retry(url, 15*time.Second, func() (*obs.Payload, error) {
			return fetch[obs.Payload](client, url)
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "mvdb inspect: giving up: %v\n", err)
			return 1
		}
		// The audit endpoint exists only when the database runs with
		// Options.Audit; a 404 just omits the section.
		aud, _ := fetch[audit.Snapshot](client, url+"/audit")
		tb := liveTable(addr, cur, prev, interval)
		addAuditRows(&tb, aud)
		fmt.Print(tb.String())
		prev = cur
	}
	return 0
}

// addAuditRows appends the online auditor's section: per-class span
// latency quantiles, alarm totals and the most recent alarm.
func addAuditRows(tb *metrics.Table, sn *audit.Snapshot) {
	if sn == nil {
		return
	}
	tb.AddRow("audit window / nodes / edges",
		fmt.Sprintf("%d / %d / %d", sn.Window, sn.GraphNodes, sn.GraphEdges), "")
	tb.AddRow("audit events (recv/drop)",
		fmt.Sprintf("%d / %d", sn.Received, sn.Dropped), "")
	for _, class := range []string{"read-only", "read-write"} {
		l, ok := sn.Latency[class]
		if !ok {
			continue
		}
		tb.AddRow(fmt.Sprintf("audit %s p50/p95/p99", class),
			fmt.Sprintf("%s / %s / %s",
				metrics.Dur(l.P50NS), metrics.Dur(l.P95NS), metrics.Dur(l.P99NS)), "")
	}
	tb.AddRow("audit alarms", fmt.Sprint(sn.AlarmsTotal), "")
	if n := len(sn.Alarms); n > 0 {
		last := sn.Alarms[n-1]
		tb.AddRow("last alarm", fmt.Sprintf("[%s] %s", last.Kind, last.Message), "")
	}
}

// fetch GETs url and decodes its JSON body.
func fetch[T any](client *http.Client, url string) (*T, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return nil, fmt.Errorf("decode %s: %w", url, err)
	}
	return &v, nil
}

// liveTable renders one snapshot. When prev is non-nil, counter rows get
// a third column with the per-second rate over the poll interval.
func liveTable(addr string, cur, prev *obs.Payload, interval time.Duration) metrics.Table {
	tb := metrics.Table{
		Title:   fmt.Sprintf("%s — %s", addr, time.Now().Format("15:04:05")),
		Headers: []string{"metric", "value", "delta/s"},
	}
	s := cur.Stats
	var p obs.Snapshot
	if prev != nil {
		p = prev.Stats
	}
	counter := func(name string, c, pv int64) {
		delta := ""
		if d := float64(c-pv) / interval.Seconds(); prev != nil && d != 0 {
			delta = fmt.Sprintf("%+.0f", d)
		}
		tb.AddRow(name, fmt.Sprint(c), delta)
	}
	gauge := func(name string, v any) { tb.AddRow(name, fmt.Sprint(v), "") }

	gauge("protocol", s.Protocol)
	counter("commits ro", s.CommitsRO, p.CommitsRO)
	counter("commits rw", s.CommitsRW, p.CommitsRW)
	counter("begins ro", s.BeginsRO, p.BeginsRO)
	counter("begins rw", s.BeginsRW, p.BeginsRW)
	counter("retries", s.Retries, p.Retries)
	counter("aborts (all causes)", s.AbortsTotal(), p.AbortsTotal())
	counter("  conflict", s.AbortsConflict, p.AbortsConflict)
	counter("  deadlock", s.AbortsDeadlock, p.AbortsDeadlock)
	counter("  timeout", s.AbortsTimeout, p.AbortsTimeout)
	counter("  user", s.AbortsUser, p.AbortsUser)
	counter("  log", s.AbortsLog, p.AbortsLog)
	counter("lock waits", s.LockWaits, p.LockWaits)
	if s.LockWait.Count > 0 {
		gauge("lock wait p99", metrics.Dur(s.LockWait.P99))
	}
	counter("wal appends", s.WALAppends, p.WALAppends)
	counter("wal bytes", s.WALBytes, p.WALBytes)
	counter("gc passes", s.GCPasses, p.GCPasses)
	counter("gc reclaimed", s.GCReclaimed, p.GCReclaimed)
	gauge("tnc / vtnc", fmt.Sprintf("%d / %d", s.TNC, s.VTNC))
	if s.VisibilityMode != "" {
		gauge("visibility mode", s.VisibilityMode)
	}
	gauge("visibility lag", s.VisibilityLag)
	gauge("vc queue", s.VCQueueLen)
	gauge("keys / versions", fmt.Sprintf("%d / %d", s.Keys, s.Versions))
	gauge("version chain max/mean", fmt.Sprintf("%d / %.2f", s.MaxVersionChain, s.MeanVersionChain))
	return tb
}
