// Command mvinspect is the DBA's view of a database, offline or live.
//
// Offline, it decodes a commit log (or checkpoint snapshot, which shares
// the format), validating CRCs, summarizing the transaction-number range
// and write volume, flagging the torn tail if any, and optionally
// dumping every record.
//
// Live, with -live it polls a running database's /debug/mvdb endpoint
// (enabled by mvdb.Options.DebugAddr) and renders each stats snapshot —
// commits and aborts by cause, lock/WAL/GC substrate counters, the
// paper's visibility gauges — with per-second deltas between polls.
//
// With -bundle it renders a flight-recorder postmortem bundle (written
// by mvdb.Options.FlightDir on an audit alarm, /debug/mvdb/dump, or a
// torture-test violation): phase-attribution table, headline counters,
// last alarms, and the waits-for graph. Older bundles render too, without
// the sections a later schema dropped.
//
// -live rides out a restarting process with capped-backoff
// reconnection.
//
// Usage:
//
//	mvinspect [-v] [-key <filter>] <commit.log | commit.log.snap>
//	mvinspect -live <host:port> [-interval 1s] [-count N]
//	mvinspect -bundle <flight-000001-reason.json>
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mvdb/internal/flight"
	"mvdb/internal/metrics"
	"mvdb/internal/wal"
)

func main() {
	var (
		verbose  = flag.Bool("v", false, "dump every record")
		keyFilt  = flag.String("key", "", "only show records touching keys containing this substring")
		live     = flag.String("live", "", "poll a running database's debug endpoint (host:port) instead of reading a log")
		interval = flag.Duration("interval", time.Second, "poll interval with -live")
		count    = flag.Int("count", 0, "number of polls with -live (0 = until interrupted)")
		bundle   = flag.String("bundle", "", "render a flight-recorder postmortem bundle instead of reading a log")
	)
	flag.Parse()
	if *live != "" {
		runLive(*live, *interval, *count)
		return
	}
	if *bundle != "" {
		b, err := flight.Load(*bundle)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		flight.Render(b, os.Stdout)
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mvinspect [-v] [-key substr] <logfile>\n       mvinspect -live <host:port> [-interval 1s] [-count N]\n       mvinspect -bundle <flight bundle.json>")
		os.Exit(2)
	}
	path := flag.Arg(0)
	fi, err := os.Stat(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var (
		records, writes, tombstones int
		bytes                       int
		minTN, maxTN                uint64
		firstRec                    = true
		keys                        = map[string]int{}
	)
	validLen, err := wal.Replay(path, func(r wal.Record) error {
		records++
		if firstRec || r.TN < minTN {
			minTN = r.TN
		}
		if r.TN > maxTN {
			maxTN = r.TN
		}
		firstRec = false
		show := *verbose
		var sb strings.Builder
		for _, w := range r.Writes {
			writes++
			bytes += len(w.Value)
			keys[w.Key]++
			if w.Tombstone {
				tombstones++
			}
			if *keyFilt != "" && strings.Contains(w.Key, *keyFilt) {
				show = true
			}
			if *verbose || (*keyFilt != "" && strings.Contains(w.Key, *keyFilt)) {
				if w.Tombstone {
					fmt.Fprintf(&sb, "    DEL %s\n", w.Key)
				} else {
					fmt.Fprintf(&sb, "    PUT %s = %d bytes\n", w.Key, len(w.Value))
				}
			}
		}
		if show && (*keyFilt == "" || sb.Len() > 0) {
			fmt.Printf("  tn=%d  writes=%d\n%s", r.TN, len(r.Writes), sb.String())
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
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
		os.Exit(3) // distinct status so scripts can detect torn logs
	}
}
