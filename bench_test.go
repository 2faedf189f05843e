// Benchmarks regenerating the experiment measurements of EXPERIMENTS.md
// as `go test -bench` targets: one benchmark (family) per table. Custom
// metrics (aborts/op, lag, messages/op) are attached via b.ReportMetric,
// so the qualitative comparisons survive even where ns/op is dominated by
// the simulated workload.
package mvdb

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"mvdb/internal/baseline"
	"mvdb/internal/core"
	"mvdb/internal/dist"
	"mvdb/internal/engine"
	"mvdb/internal/harness"
	"mvdb/internal/vc"
	"mvdb/internal/workload"
)

type bencher interface {
	Bootstrap(map[string][]byte) error
}

func benchRoster() []struct {
	name string
	make func() engine.Engine
} {
	return []struct {
		name string
		make func() engine.Engine
	}{
		{"vc+2pl", func() engine.Engine { return core.New(core.Options{Protocol: core.TwoPhaseLocking}) }},
		{"vc+to", func() engine.Engine { return core.New(core.Options{Protocol: core.TimestampOrdering}) }},
		{"vc+occ", func() engine.Engine { return core.New(core.Options{Protocol: core.Optimistic}) }},
		{"mvto", func() engine.Engine { return baseline.NewMVTO(nil) }},
		{"mv2plctl", func() engine.Engine { return baseline.NewMV2PLCTL(nil) }},
		{"sv2pl", func() engine.Engine { return baseline.NewSV2PL(nil) }},
	}
}

// BenchmarkVCModule is experiment F1: the paper's Figure 1 module itself.
func BenchmarkVCModule(b *testing.B) {
	b.Run("start", func(b *testing.B) {
		c := vc.New(0)
		b.ReportAllocs()
		var sink uint64
		for i := 0; i < b.N; i++ {
			sink += c.Start()
		}
		_ = sink
	})
	b.Run("register-complete", func(b *testing.B) {
		c := vc.New(0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Complete(c.Register())
		}
	})
	b.Run("register-complete-outoforder", func(b *testing.B) {
		c := vc.New(0)
		const window = 32
		entries := make([]*vc.Entry, window)
		b.ReportAllocs()
		for i := 0; i < b.N; i += window {
			for j := range entries {
				entries[j] = c.Register()
			}
			for j := window - 1; j >= 0; j-- {
				c.Complete(entries[j])
			}
		}
	})
	b.Run("start-parallel", func(b *testing.B) {
		c := vc.New(0)
		b.RunParallel(func(pb *testing.PB) {
			var sink uint64
			for pb.Next() {
				sink += c.Start()
			}
			_ = sink
		})
	})
}

// BenchmarkReadOnlyPath is experiment F2: one read-only transaction with
// four snapshot reads — the paper's Figure 2 path.
func BenchmarkReadOnlyPath(b *testing.B) {
	e := core.New(core.Options{Protocol: core.TwoPhaseLocking})
	defer e.Close()
	wl := workload.Config{Keys: 256, Seed: 1}
	if err := e.Bootstrap(wl.Bootstrap()); err != nil {
		b.Fatal(err)
	}
	keys := []string{"key000001", "key000050", "key000100", "key000200"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, _ := e.Begin(engine.ReadOnly)
		for _, k := range keys {
			if _, err := tx.Get(k); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMixed runs a mixed workload through the harness and reports
// engine-level metrics; shared by F3/F4 and E5.
func benchMixed(b *testing.B, e engine.Engine, roFrac float64, zipf float64) {
	wl := workload.Config{Keys: 64, ReadOnlyFraction: roFrac, ROReads: 4,
		RWReads: 2, RWWrites: 2, Zipf: zipf, Seed: 3}
	if err := e.(bencher).Bootstrap(wl.Bootstrap()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	res, err := harness.Run(harness.Config{
		Engine: e, Clients: 4, TxnsPerClient: (b.N + 3) / 4, Workload: wl,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	total := res.CommittedRO + res.CommittedRW
	if total > 0 {
		b.ReportMetric(float64(res.Retries)/float64(total), "retries/txn")
		b.ReportMetric(res.Throughput(), "txn/s")
	}
}

// BenchmarkVC2PL is experiment F4: the Figure 4 engine under a mixed load.
func BenchmarkVC2PL(b *testing.B) {
	e := core.New(core.Options{Protocol: core.TwoPhaseLocking})
	defer e.Close()
	benchMixed(b, e, 0.5, 0)
}

// BenchmarkVCTO is experiment F3: the Figure 3 engine under a mixed load.
func BenchmarkVCTO(b *testing.B) {
	e := core.New(core.Options{Protocol: core.TimestampOrdering})
	defer e.Close()
	benchMixed(b, e, 0.5, 0)
}

// BenchmarkVCOCC exercises the optimistic integration the same way.
func BenchmarkVCOCC(b *testing.B) {
	e := core.New(core.Options{Protocol: core.Optimistic})
	defer e.Close()
	benchMixed(b, e, 0.5, 0)
}

// BenchmarkE1ReadOnlyOverhead: the cost of one read-only transaction (4
// reads) per engine, no writers — Section 1's "no concurrency control
// overhead" claim.
func BenchmarkE1ReadOnlyOverhead(b *testing.B) {
	for _, ne := range benchRoster() {
		b.Run(ne.name, func(b *testing.B) {
			e := ne.make()
			defer e.Close()
			wl := workload.Config{Keys: 256, Seed: 1}
			if err := e.(bencher).Bootstrap(wl.Bootstrap()); err != nil {
				b.Fatal(err)
			}
			keys := []string{"key000001", "key000050", "key000100", "key000200"}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx, _ := e.Begin(engine.ReadOnly)
				for _, k := range keys {
					if _, err := tx.Get(k); err != nil {
						b.Fatal(err)
					}
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE2AbortAttribution: read-write aborts caused by read-only
// transactions (always 0 for the paper's engines; positive for MVTO).
func BenchmarkE2AbortAttribution(b *testing.B) {
	for _, name := range []string{"vc+to", "mvto"} {
		b.Run(name, func(b *testing.B) {
			var e engine.Engine
			if name == "vc+to" {
				e = core.New(core.Options{Protocol: core.TimestampOrdering})
			} else {
				e = baseline.NewMVTO(nil)
			}
			defer e.Close()
			wl := workload.Config{Keys: 24, ReadOnlyFraction: 0.5, ROReads: 4,
				RWReads: 1, RWWrites: 2, Seed: 7}
			if err := e.(bencher).Bootstrap(wl.Bootstrap()); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			_, err := harness.Run(harness.Config{
				Engine: e, Clients: 8, TxnsPerClient: (b.N + 7) / 8, Workload: wl,
				OpDelay: 20 * time.Microsecond,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			st := e.Stats()
			b.ReportMetric(float64(st.RWAbortsByRO), "aborts-by-ro")
			b.ReportMetric(float64(st.AbortsConflict), "conflicts")
		})
	}
}

// BenchmarkE3ReadOnlyBlocking: read-only blocking events behind writers.
func BenchmarkE3ReadOnlyBlocking(b *testing.B) {
	for _, ne := range benchRoster() {
		b.Run(ne.name, func(b *testing.B) {
			e := ne.make()
			defer e.Close()
			wl := workload.Config{Keys: 24, ReadOnlyFraction: 0.5, ROReads: 4,
				RWReads: 1, RWWrites: 3, Seed: 11}
			if err := e.(bencher).Bootstrap(wl.Bootstrap()); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			res, err := harness.Run(harness.Config{
				Engine: e, Clients: 8, TxnsPerClient: (b.N + 7) / 8, Workload: wl,
				OpDelay: 20 * time.Microsecond,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(res.Stats.ROBlocked), "ro-blocked")
			b.ReportMetric(float64(res.RORetries), "ro-aborted")
		})
	}
}

// BenchmarkE4StartCost: read-only begin cost as the out-of-order commit
// window grows — CTL copy (Chan) vs VCstart.
func BenchmarkE4StartCost(b *testing.B) {
	for _, window := range []int{0, 64, 1024} {
		b.Run(fmt.Sprintf("chan/window=%d", window), func(b *testing.B) {
			e := baseline.NewMV2PLCTL(nil)
			defer e.Close()
			release := e.HoldNumber()
			defer release()
			for i := 0; i < window; i++ {
				tx, _ := e.Begin(engine.ReadWrite)
				tx.Put(fmt.Sprintf("k%d", i), []byte("v"))
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ro, _ := e.Begin(engine.ReadOnly)
				ro.Commit()
			}
		})
	}
	b.Run("vc/any-window", func(b *testing.B) {
		e := core.New(core.Options{Protocol: core.TimestampOrdering})
		defer e.Close()
		strag, _ := e.Begin(engine.ReadWrite)
		strag.Put("s", []byte("x"))
		defer strag.Commit()
		for i := 0; i < 1024; i++ {
			tx, _ := e.Begin(engine.ReadWrite)
			tx.Put(fmt.Sprintf("k%d", i), []byte("v"))
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ro, _ := e.Begin(engine.ReadOnly)
			ro.Commit()
		}
	})
}

// BenchmarkE5Throughput: mixed-workload throughput per engine at two
// read-only shares and one contended (Zipf) configuration.
func BenchmarkE5Throughput(b *testing.B) {
	for _, ne := range benchRoster() {
		for _, cfg := range []struct {
			label string
			ro    float64
			zipf  float64
		}{
			{"ro=10", 0.1, 0},
			{"ro=90", 0.9, 0},
			{"ro=50-zipf", 0.5, 1.4},
		} {
			b.Run(ne.name+"/"+cfg.label, func(b *testing.B) {
				e := ne.make()
				defer e.Close()
				benchMixed(b, e, cfg.ro, cfg.zipf)
			})
		}
	}
}

// BenchmarkE6VisibilityLag: cost and lag of the straggler scenario, with
// the recency-rectified begin as a separate measurement.
func BenchmarkE6VisibilityLag(b *testing.B) {
	b.Run("plain-ro-under-lag", func(b *testing.B) {
		e := core.New(core.Options{Protocol: core.TimestampOrdering})
		defer e.Close()
		e.Bootstrap(map[string][]byte{"k": []byte("v")})
		strag, _ := e.Begin(engine.ReadWrite)
		strag.Put("s", []byte("x"))
		for i := 0; i < 16; i++ {
			tx, _ := e.Begin(engine.ReadWrite)
			tx.Put("k", []byte("v2"))
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ro, _ := e.Begin(engine.ReadOnly)
			if _, err := ro.Get("k"); err != nil {
				b.Fatal(err)
			}
			ro.Commit()
		}
		b.StopTimer()
		b.ReportMetric(float64(e.VC().Lag()), "lag-positions")
		strag.Commit()
	})
	b.Run("recent-ro-no-lag", func(b *testing.B) {
		e := core.New(core.Options{Protocol: core.TimestampOrdering})
		defer e.Close()
		e.Bootstrap(map[string][]byte{"k": []byte("v")})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ro, err := e.BeginReadOnlyRecent()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ro.Get("k"); err != nil {
				b.Fatal(err)
			}
			ro.Commit()
		}
	})
}

// BenchmarkE7GC: update throughput on one hot key, whose chain
// collection at install keeps short, reporting retained versions.
func BenchmarkE7GC(b *testing.B) {
	e := core.New(core.Options{Protocol: core.TwoPhaseLocking})
	defer e.Close()
	e.Bootstrap(map[string][]byte{"hot": []byte("v")})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, _ := e.Begin(engine.ReadWrite)
		tx.Put("hot", []byte("v"))
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(e.Store().TotalVersions()), "versions-retained")
}

// BenchmarkE8Distributed: distributed commit cost by site count,
// reporting messages per transaction.
func BenchmarkE8Distributed(b *testing.B) {
	for _, sites := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("sites=%d", sites), func(b *testing.B) {
			c, err := dist.New(dist.Options{Sites: sites})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			wl := workload.Config{Keys: 48, ReadOnlyFraction: 0.5, ROReads: 3,
				RWReads: 1, RWWrites: 2, Seed: 17}
			c.Bootstrap(wl.Bootstrap())
			b.ResetTimer()
			res, err := harness.Run(harness.Config{
				Engine: c, Clients: 4, TxnsPerClient: (b.N + 3) / 4, Workload: wl,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			total := res.CommittedRO + res.CommittedRW
			if total > 0 {
				b.ReportMetric(float64(c.Bus().Messages())/float64(total), "msgs/txn")
			}
		})
	}
}

// BenchmarkA1RegisterPoint: ablation — registering 2PL transactions at
// begin instead of the lock-point costs nothing in speed (so the correct
// rule is "free") but breaks correctness (see TestAblationEarlyRegister2PL).
func BenchmarkA1RegisterPoint(b *testing.B) {
	for _, early := range []bool{false, true} {
		name := "lockpoint(correct)"
		if early {
			name = "begin(unsafe)"
		}
		b.Run(name, func(b *testing.B) {
			e := core.New(core.Options{Protocol: core.TwoPhaseLocking, UnsafeEarlyRegister2PL: early})
			defer e.Close()
			e.Bootstrap(map[string][]byte{"k": []byte("v")})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx, _ := e.Begin(engine.ReadWrite)
				tx.Put("k", []byte("v"))
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUpdateTxn measures the public API's Update path end to end.
func BenchmarkUpdateTxn(b *testing.B) {
	db, err := Open(Options{Protocol: TwoPhaseLocking})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := db.Update(func(tx *Tx) error {
			return tx.Put("k", []byte("v"))
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpdateTxnAudited is BenchmarkUpdateTxn with the online
// serializability auditor enabled — the delta is the per-commit cost of
// feeding the audit pipeline (event construction + one channel send).
func BenchmarkUpdateTxnAudited(b *testing.B) {
	db, err := Open(Options{Protocol: TwoPhaseLocking, Audit: true})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := db.Update(func(tx *Tx) error {
			return tx.Put("k", []byte("v"))
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	db.Audit().Drain()
	if n := db.Audit().Dropped(); n > 0 {
		b.Logf("audit dropped %d events", n)
	}
}

// BenchmarkUpdateTxnPhased is BenchmarkUpdateTxn with per-transaction
// phase timing enabled — the delta is the cost of the attribution layer
// on the commit path (a handful of clock reads and lock-free histogram
// records per transaction; experiment O3).
func BenchmarkUpdateTxnPhased(b *testing.B) {
	db, err := Open(Options{Protocol: TwoPhaseLocking, PhaseTiming: true})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := db.Update(func(tx *Tx) error {
			return tx.Put("k", []byte("v"))
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpdateDurableGroup and its Phased twin measure attribution
// overhead where attribution is for: the durable group-commit path
// (experiment O3). Parallel committers share fsync batches; the phase
// timer's clock reads amortize against real I/O waiting.
func BenchmarkUpdateDurableGroup(b *testing.B)       { benchDurableGroup(b, false) }
func BenchmarkUpdateDurableGroupPhased(b *testing.B) { benchDurableGroup(b, true) }

func benchDurableGroup(b *testing.B, phased bool) {
	db, err := Open(Options{
		Protocol:    TwoPhaseLocking,
		WALPath:     filepath.Join(b.TempDir(), "commit.log"),
		PhaseTiming: phased,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	b.ReportAllocs()
	b.SetParallelism(4)
	var ctr atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			key := fmt.Sprintf("k%d", ctr.Add(1)%64)
			if err := db.Update(func(tx *Tx) error {
				return tx.Put(key, []byte("v"))
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkViewTxn measures the public API's View path end to end.
func BenchmarkViewTxn(b *testing.B) {
	db, err := Open(Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	db.Update(func(tx *Tx) error { return tx.Put("k", []byte("v")) })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := db.View(func(tx *Tx) error {
			_, err := tx.Get("k")
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkViewTxnParallel is BenchmarkViewTxn from every P at once: every
// begin adds to the engine's id counter, so it shows whether that line
// also holds what every View reads (EXPERIMENTS P8; run it with -cpu).
func BenchmarkViewTxnParallel(b *testing.B) {
	db, err := Open(Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	db.Update(func(tx *Tx) error { return tx.Put("k", []byte("v")) })
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := db.View(func(tx *Tx) error {
				_, err := tx.Get("k")
				return err
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkUpdateTxnOCCParallel runs OCC Updates from every P at once,
// each on a key of its own, so the shared state they meet is the
// engine's: the id counter and the validation mutex (EXPERIMENTS P8).
func BenchmarkUpdateTxnOCCParallel(b *testing.B) {
	db, err := Open(Options{Protocol: Optimistic})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	b.ReportAllocs()
	var ctr atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		key := fmt.Sprintf("k%d", ctr.Add(1))
		for pb.Next() {
			if err := db.Update(func(tx *Tx) error {
				return tx.Put(key, []byte("v"))
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
