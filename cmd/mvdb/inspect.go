package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"mvdb/internal/faultfs"
	"mvdb/internal/flight"
	"mvdb/internal/metrics"
	"mvdb/internal/wal"
)

// inspect is the DBA's view of a database, offline or live.
//
// Offline, it decodes a commit log (the live one, the prefix a
// checkpoint retired to <log>.old, or a checkpoint snapshot: all share
// the format), validating CRCs, summarizing the transaction-number range
// and write volume, flagging the torn tail if any (exit 3), and
// optionally dumping every record.
//
// Live, with -live it polls a running database's /debug/mvdb endpoint
// (enabled by mvdb.Options.DebugAddr) and renders each stats snapshot —
// commits and aborts by cause, lock/WAL/GC substrate counters, the
// paper's visibility gauges — with per-second deltas between polls. It
// rides out a restarting process with capped-backoff reconnection.
//
// With -bundle it renders a flight-recorder postmortem bundle (written
// by mvdb.Options.FlightDir on an audit alarm, /debug/mvdb/dump, or a
// torture violation): phase-attribution table, headline counters, last
// alarms, and the waits-for graph. Older bundles render too, without the
// sections a later schema dropped.
func inspect(args []string) int {
	fs := flags("inspect", `[-v] [-key substr] <commit.log | commit.log.old | commit.log.snap>
       mvdb inspect -live <host:port> [-interval 1s] [-count N]
       mvdb inspect -bundle <flight-000001-reason.json>`)
	var (
		verbose  = fs.Bool("v", false, "dump every record")
		keyFilt  = fs.String("key", "", "only show records touching keys containing this substring")
		live     = fs.String("live", "", "poll a running database's debug endpoint (host:port) instead of reading a log")
		interval = fs.Duration("interval", time.Second, "poll interval with -live")
		count    = fs.Int("count", 0, "number of polls with -live (0 = until interrupted)")
		bundle   = fs.String("bundle", "", "render a flight-recorder postmortem bundle instead of reading a log")
	)
	fs.Parse(args)
	switch {
	case *live != "":
		return runLive(*live, *interval, *count)
	case *bundle != "":
		b, err := flight.Load(*bundle)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		flight.Render(b, os.Stdout)
		return 0
	case fs.NArg() != 1:
		return usage(fs, "want one log file")
	}
	path := fs.Arg(0)
	fi, err := os.Stat(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	var (
		records, writes, tombstones, bytes int
		minTN, maxTN                       uint64
		keys                               = map[string]int{}
	)
	validLen, err := wal.ReplayFS(faultfs.OS, path, func(r wal.Record) error {
		if records++; records == 1 || r.TN < minTN {
			minTN = r.TN
		}
		maxTN = max(maxTN, r.TN)
		var sb strings.Builder
		for _, w := range r.Writes {
			writes++
			bytes += len(w.Value)
			keys[w.Key]++
			if w.Tombstone {
				tombstones++
			}
			if *verbose || (*keyFilt != "" && strings.Contains(w.Key, *keyFilt)) {
				if w.Tombstone {
					fmt.Fprintf(&sb, "    DEL %s\n", w.Key)
				} else {
					fmt.Fprintf(&sb, "    PUT %s = %d bytes\n", w.Key, len(w.Value))
				}
			}
		}
		if (*verbose && *keyFilt == "") || sb.Len() > 0 {
			fmt.Printf("  tn=%d  writes=%d\n%s", r.TN, len(r.Writes), sb.String())
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	tb := metrics.Table{Title: path, Headers: []string{"field", "value"}}
	tb.AddRow("file size", fmt.Sprintf("%d bytes", fi.Size()))
	tb.AddRow("intact records", fmt.Sprint(records))
	tb.AddRow("transaction numbers", fmt.Sprintf("%d .. %d", minTN, maxTN))
	tb.AddRow("writes / tombstones", fmt.Sprintf("%d / %d", writes, tombstones))
	tb.AddRow("distinct keys", fmt.Sprint(len(keys)))
	tb.AddRow("payload bytes", fmt.Sprint(bytes))
	if validLen < fi.Size() {
		tb.AddRow("TORN TAIL", fmt.Sprintf("%d trailing bytes are not a valid record", fi.Size()-validLen))
	} else {
		tb.AddRow("tail", "clean")
	}
	fmt.Print(tb.String())
	if validLen < fi.Size() {
		return 3 // distinct status so scripts can detect torn logs
	}
	return 0
}
