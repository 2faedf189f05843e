package harness

import (
	"testing"
	"time"

	"mvdb/internal/baseline"
	"mvdb/internal/core"
	"mvdb/internal/history"
	"mvdb/internal/workload"
)

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("nil engine accepted")
	}
	e := core.New(core.Options{})
	defer e.Close()
	if _, err := Run(Config{Engine: e, Workload: workload.Config{}}); err == nil {
		t.Fatal("invalid workload accepted")
	}
}

func TestRunAllCoreEngines(t *testing.T) {
	wl := workload.Config{Keys: 64, ReadOnlyFraction: 0.4, Seed: 11}
	for _, p := range []core.Protocol{core.TwoPhaseLocking, core.TimestampOrdering, core.Optimistic} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			rec := history.NewRecorder()
			e := core.New(core.Options{Protocol: p, Recorder: rec})
			defer e.Close()
			if err := e.Bootstrap(wl.Bootstrap()); err != nil {
				t.Fatal(err)
			}
			res, err := Run(Config{
				Engine:        e,
				Clients:       6,
				TxnsPerClient: 150,
				Workload:      wl,
				LagSample:     e.VC().Lag,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.CommittedRO == 0 || res.CommittedRW == 0 {
				t.Fatalf("no commits: %+v", res)
			}
			if res.CommittedRO+res.CommittedRW+res.Abandoned != 6*150 {
				t.Fatalf("txn accounting off: %+v", res)
			}
			if res.Throughput() <= 0 {
				t.Fatal("zero throughput")
			}
			if res.Stats["rw.aborts.by_ro"] != 0 {
				t.Fatalf("VC engine blamed read-only txns for %d aborts", res.Stats["rw.aborts.by_ro"])
			}
			if err := rec.Check(); err != nil {
				t.Fatalf("harness workload not 1SR on %s: %v", p, err)
			}
		})
	}
}

func TestRunBaselines(t *testing.T) {
	wl := workload.Config{Keys: 64, ReadOnlyFraction: 0.4, Seed: 11, Zipf: 1.2}
	rec1 := history.NewRecorder()
	mvto := baseline.NewMVTO(rec1)
	defer mvto.Close()
	mvto.Bootstrap(wl.Bootstrap())
	res, err := Run(Config{Engine: mvto, Clients: 4, TxnsPerClient: 100, Workload: wl})
	if err != nil {
		t.Fatal(err)
	}
	if res.CommittedRW == 0 {
		t.Fatal("mvto: no rw commits")
	}
	if err := rec1.Check(); err != nil {
		t.Fatalf("mvto history: %v", err)
	}

	rec2 := history.NewRecorder()
	ctl := baseline.NewMV2PLCTL(rec2)
	defer ctl.Close()
	ctl.Bootstrap(wl.Bootstrap())
	if _, err := Run(Config{Engine: ctl, Clients: 4, TxnsPerClient: 100, Workload: wl}); err != nil {
		t.Fatal(err)
	}
	if err := rec2.Check(); err != nil {
		t.Fatalf("mv2plctl history: %v", err)
	}

	rec3 := history.NewRecorder()
	sv := baseline.NewSV2PL(rec3)
	defer sv.Close()
	sv.Bootstrap(wl.Bootstrap())
	if _, err := Run(Config{Engine: sv, Clients: 4, TxnsPerClient: 100, Workload: wl}); err != nil {
		t.Fatal(err)
	}
	if err := rec3.Check(); err != nil {
		t.Fatalf("sv2pl history: %v", err)
	}
}

// The harness must count retries under contention. Optimistic validation
// on a 2-key space with many clients conflicts essentially always.
func TestRetriesCounted(t *testing.T) {
	e := core.New(core.Options{Protocol: core.Optimistic})
	defer e.Close()
	wl := workload.Config{Keys: 2, RWReads: 2, RWWrites: 2, Seed: 9}
	if err := e.Bootstrap(wl.Bootstrap()); err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Engine: e, Clients: 8, TxnsPerClient: 100, Workload: wl, OpDelay: 50 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries == 0 {
		t.Fatal("expected retries on a 2-key OCC workload")
	}
	if res.Stats["aborts.conflict"] == 0 {
		t.Fatal("expected conflict aborts in engine stats")
	}
}
