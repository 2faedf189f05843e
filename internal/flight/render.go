package flight

import (
	"fmt"
	"io"
	"time"

	"mvdb/internal/metrics"
)

// Render writes a human-readable postmortem report for a bundle:
// header, per-protocol phase-attribution table, headline counters, the
// last audit alarms, and the waits-for graph. It is the single renderer behind `mvdb inspect -bundle` so tests
// and the CLI agree on what a bundle "looks like".
func Render(b *Bundle, w io.Writer) {
	fmt.Fprintf(w, "flight bundle #%d (%s)\n", b.Seq, b.Schema)
	fmt.Fprintf(w, "  reason:  %s\n", b.Reason)
	if b.Detail != "" {
		fmt.Fprintf(w, "  detail:  %s\n", b.Detail)
	}
	fmt.Fprintf(w, "  written: %s\n", time.Unix(0, b.WrittenAt).Format(time.RFC3339Nano))
	fmt.Fprintf(w, "  history: %d samples\n", len(b.Ring))

	fmt.Fprintf(w, "\n== headline counters ==\n")
	sn := b.Stats
	fmt.Fprintf(w, "  protocol=%s commits rw=%d ro=%d retries=%d\n",
		sn.Protocol, sn.CommitsRW, sn.CommitsRO, sn.Retries)
	fmt.Fprintf(w, "  aborts conflict=%d deadlock=%d user=%d\n",
		sn.AbortsConflict, sn.AbortsDeadlock, sn.AbortsUser)
	fmt.Fprintf(w, "  locks waits=%d deadlocks=%d timeouts=%d\n",
		sn.LockWaits, sn.LockDeadlocks, sn.LockTimeouts)
	fmt.Fprintf(w, "  wal appends=%d fsyncs=%d batches=%d\n",
		sn.WALAppends, sn.WALFsyncs, sn.WALBatches)
	fmt.Fprintf(w, "  vc tnc=%d vtnc=%d queue=%d\n", sn.TNC, sn.VTNC, sn.VCQueueLen)

	if len(sn.Phases) > 0 {
		fmt.Fprintf(w, "\n== phase attribution ==\n")
		fmt.Fprintf(w, "  %-8s %-12s %10s %12s %12s %12s %12s  %s\n",
			"proto", "phase", "count", "mean", "p99", "max", "total", "slowest-tx")
		for _, ps := range sn.Phases {
			d := ps.Durations
			slow := ""
			if ps.SlowestTx != 0 {
				slow = fmt.Sprintf("tx %d", ps.SlowestTx)
			}
			fmt.Fprintf(w, "  %-8s %-12s %10d %12s %12s %12s %12s  %s\n",
				ps.Protocol, ps.Phase, d.Count,
				metrics.Dur(int64(d.Mean)), metrics.Dur(d.P99), metrics.Dur(d.Max),
				metrics.Dur(d.TotalNanoseconds), slow)
		}
	}

	if b.Audit != nil {
		a := b.Audit
		fmt.Fprintf(w, "\n== audit ==\n")
		fmt.Fprintf(w, "  alarms=%d processed=%d pending=%d graph nodes=%d edges=%d\n",
			a.AlarmsTotal, a.Processed, a.Pending, a.GraphNodes, a.GraphEdges)
		for _, al := range a.Alarms {
			fmt.Fprintf(w, "  [%d] %s: %s (txs %v)\n", al.Seq, al.Kind, al.Message, al.Txs)
		}
	}

	if b.WaitGraph != nil && len(b.WaitGraph.Edges) > 0 {
		g := b.WaitGraph
		fmt.Fprintf(w, "\n== waits-for graph (%d waiters) ==\n", g.Waiters)
		for _, e := range g.Edges {
			fmt.Fprintf(w, "  tx %d --[%s %q]--> tx %d\n", e.From, e.Mode, e.Key, e.To)
		}
	}
}
