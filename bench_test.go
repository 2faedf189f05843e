// Benchmarks of EXPERIMENTS.md that no verdict rests on: the version
// control module (F1), the three integrations (F2–F4), the throughput
// sweep (E5), the register-point ablation (A1) and the public API's
// Update and View paths. The experiments whose verdicts are asserted,
// E1–E4 and E6–E8, live in paper_test.go.
package mvdb

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"mvdb/internal/core"
	"mvdb/internal/engine"
	"mvdb/internal/harness"
	"mvdb/internal/vc"
	"mvdb/internal/workload"
)

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
	boot(b, e, wl)
	b.ResetTimer()
	res := run(b, harness.Config{Engine: e, Clients: 4, TxnsPerClient: (b.N + 3) / 4, Workload: wl})
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

// BenchmarkE5Throughput: mixed-workload throughput per engine at two
// read-only shares and one contended (Zipf) configuration.
func BenchmarkE5Throughput(b *testing.B) {
	for _, ne := range roster() {
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

// BenchmarkUpdateBesideView measures what a reader costs a writer: one
// goroutine runs b.N Updates over 64 keys while another loops
// single-Get Views over the same keys — on no database, on a second
// database, or on the writer's own. It reports the writer's ns/op, the
// reader's Views/s and the versions a key holds at the end; the
// other-DB control separates what the two share in memory from what
// they share in CPU (EXPERIMENTS E1; run it with -cpu 2).
func BenchmarkUpdateBesideView(b *testing.B) {
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
	}
	val := []byte("v")
	open := func(b *testing.B, p Protocol) *DB {
		db, err := Open(Options{Protocol: p})
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range keys {
			if err := db.Update(func(tx *Tx) error { return tx.Put(k, val) }); err != nil {
				b.Fatal(err)
			}
		}
		return db
	}
	for _, p := range []struct {
		name  string
		proto Protocol
	}{{"2pl", TwoPhaseLocking}, {"to", TimestampOrdering}, {"occ", Optimistic}} {
		for _, where := range []string{"none", "otherdb", "samedb"} {
			b.Run(p.name+"/"+where, func(b *testing.B) {
				db := open(b, p.proto)
				defer db.Close()
				var reader *DB
				switch where {
				case "otherdb":
					reader = open(b, p.proto)
					defer reader.Close()
				case "samedb":
					reader = db
				}
				var stop atomic.Bool
				var views atomic.Int64
				done := make(chan struct{})
				if reader == nil {
					close(done)
				} else {
					go func() {
						defer close(done)
						for i := 0; !stop.Load(); i++ {
							if err := reader.View(func(tx *Tx) error {
								_, err := tx.Get(keys[i%len(keys)])
								return err
							}); err != nil {
								b.Error(err)
								return
							}
							views.Add(1)
						}
					}()
				}
				b.ReportAllocs()
				b.ResetTimer()
				start := time.Now()
				for i := 0; i < b.N; i++ {
					if err := db.Update(func(tx *Tx) error { return tx.Put(keys[i%len(keys)], val) }); err != nil {
						b.Fatal(err)
					}
				}
				elapsed := time.Since(start)
				b.StopTimer()
				stop.Store(true)
				<-done
				b.ReportMetric(float64(views.Load())/elapsed.Seconds(), "views/s")
				// What collection left: a reader preempted inside a View
				// holds the watermark, and a chain whose array doubled
				// meanwhile collects again only once it is full.
				b.ReportMetric(float64(db.Stats().Versions)/float64(len(keys)), "versions/key")
			})
		}
	}
}
