package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mvdb/internal/core"
	"mvdb/internal/engine"
	"mvdb/internal/gc"
	"mvdb/internal/index"
	"mvdb/internal/lock"
	"mvdb/internal/storage"
	"mvdb/internal/vc"
	"mvdb/internal/vc/epoch"
	"mvdb/internal/wal"
)

// The isolation benches time one layer at a time, with nothing above it:
// the place to see what a layer costs before asking where an end-to-end
// number went, and the only place the protocols and visibility modes
// other than the default are measured. Each runs a fixed number of
// operations several times and reports the fastest repeat, because noise
// on a shared box only ever adds time.

// sink keeps results that are computed and not otherwise used from
// being optimised away.
var sink atomic.Uint64

// bench is one isolation bench: prepare builds fresh state, outside the
// clock, and returns the body to time and an optional cleanup.
type bench struct {
	name    string
	ops     int     // operations the body performs
	scale   float64 // reported value = scale * nanoseconds per operation
	prepare func(ops int) (body func() error, cleanup func(), err error)
}

const isolationRepeats = 5

func (b bench) run(quick bool) (float64, error) {
	ops, repeats := b.ops, isolationRepeats
	if quick {
		ops, repeats = max(ops/50, 16), 1
	}
	best := time.Duration(1 << 62)
	for i := 0; i < repeats; i++ {
		body, cleanup, err := b.prepare(ops)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", b.name, err)
		}
		start := time.Now()
		err = body()
		best = min(best, time.Since(start))
		if cleanup != nil {
			cleanup()
		}
		if err != nil {
			return 0, fmt.Errorf("%s: %w", b.name, err)
		}
	}
	return b.scale * float64(best.Nanoseconds()) / float64(ops), nil
}

// fanOut runs body on p goroutines, ops/p operations each. A bench built
// on it has scale p: elapsed*p/ops is what one operation costs the
// goroutine issuing it, which equals the one-goroutine figure when the
// layer scales and p times it when the layer serialises.
func fanOut(p, ops int, body func(g, n int) error) func() error {
	return func() error {
		errs := make([]error, p)
		var wg sync.WaitGroup
		for g := 0; g < p; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[g] = body(g, ops/p)
			}()
		}
		wg.Wait()
		return errors.Join(errs...)
	}
}

func isolation(v values, dir string, quick bool) error {
	keys := make([]string, 50_000)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%05d", i)
	}
	value := newValue(1, 2)
	dev := &modelDev{}
	logPath := filepath.Join(dir, "isolation.log")
	record := func(tn uint64) wal.Record {
		return wal.Record{TN: tn, Writes: []wal.Write{
			{Key: keys[tn%uint64(len(keys))], Value: value},
			{Key: keys[(tn*7)%uint64(len(keys))], Value: value},
		}}
	}

	var benches []bench
	add := func(name string, ops int, scale float64, prepare func(ops int) (func() error, func(), error)) {
		benches = append(benches, bench{name, ops, scale, prepare})
	}

	for _, m := range []struct {
		name string
		new  func() vc.Controller
	}{
		{"strict", func() vc.Controller { return vc.New(0) }},
		{"epoch", func() vc.Controller { return epoch.New(0) }},
	} {
		add("vc."+m.name+".start_ns", 2_000_000, 1, func(ops int) (func() error, func(), error) {
			c := m.new()
			return func() error {
				var s uint64
				for i := 0; i < ops; i++ {
					s += c.Start()
				}
				sink.Add(s)
				return nil
			}, nil, nil
		})
		for _, p := range []int{1, 2} {
			add(fmt.Sprintf("vc.%s.register_complete_ns.p%d", m.name, p), 400_000, float64(p), func(ops int) (func() error, func(), error) {
				c := m.new()
				return fanOut(p, ops, func(_, n int) error {
					for i := 0; i < n; i++ {
						c.Complete(c.Register())
					}
					return nil
				}), nil, nil
			})
		}
	}

	for _, p := range []int{1, 2} {
		add(fmt.Sprintf("lock.acquire_release_ns.p%d", p), 100_000, float64(p), func(ops int) (func() error, func(), error) {
			m := lock.NewManagerStriped(lock.Detect, 0, 0)
			return fanOut(p, ops, func(g, n int) error {
				rng := rand.New(rand.NewPCG(1, uint64(g)))
				for i := 0; i < n; i++ {
					id := uint64(g)<<32 | uint64(i+1)
					m.Begin(id, id)
					err := m.Acquire(id, keys[rng.IntN(1024)], lock.Exclusive)
					m.ReleaseAll(id)
					if err != nil {
						return err
					}
				}
				return nil
			}), nil, nil
		})
	}

	chain := func(versions int) *storage.Object {
		o := storage.NewStore(0).GetOrCreate("k")
		for tn := 1; tn <= versions; tn++ {
			o.InstallCommitted(storage.Version{TN: uint64(tn), Data: value})
		}
		return o
	}
	for _, c := range []struct {
		name     string
		versions int
	}{{"storage.read_visible_ns", 1}, {"storage.read_chain16_ns", 16}} {
		add(c.name, 2_000_000, 1, func(ops int) (func() error, func(), error) {
			o := chain(c.versions)
			sn := uint64(c.versions+1) / 2
			return func() error {
				var s uint64
				for i := 0; i < ops; i++ {
					ver, _ := o.ReadVisible(sn)
					s += ver.TN
				}
				if s != uint64(ops)*sn {
					return errors.New("a read returned the wrong version")
				}
				return nil
			}, nil, nil
		})
	}
	add("storage.install_ns", 400_000, 1, func(ops int) (func() error, func(), error) {
		st := storage.NewStore(0)
		objs := make([]*storage.Object, 4096)
		for i := range objs {
			objs[i] = st.GetOrCreate(keys[i])
		}
		return func() error {
			for i := 0; i < ops; i++ {
				objs[i%len(objs)].InstallCommitted(storage.Version{TN: uint64(i + 1), Data: value})
			}
			return nil
		}, nil, nil
	})

	add("index.insert_ns", 50_000, 1, func(ops int) (func() error, func(), error) {
		order := rand.New(rand.NewPCG(2, 2)).Perm(len(keys))[:ops]
		list := index.New(1)
		return func() error {
			for _, k := range order {
				list.Insert(keys[k])
			}
			return nil
		}, nil, nil
	})
	add("index.range32_ns", 50_000, 1, func(ops int) (func() error, func(), error) {
		list := index.New(1)
		for _, k := range keys {
			list.Insert(k)
		}
		return func() error {
			rng := rand.New(rand.NewPCG(3, 3))
			for i := 0; i < ops; i++ {
				n := 0
				list.RangePrefix(keys[rng.IntN(len(keys))][:4], func(string) bool {
					n++
					return n < scanLen
				})
				if n != scanLen {
					return errors.New("a range came up short")
				}
			}
			return nil
		}, nil, nil
	})

	// Every log bench writes through the modelled device, so that none of
	// them waits on the real disk, not even in Close.
	openLog := func(policy wal.SyncPolicy) (*wal.Writer, func(), error) {
		w, err := wal.CreateWith(logPath, wal.Options{Policy: policy, FS: dev})
		if err != nil {
			return nil, nil, err
		}
		return w, func() {
			w.Close()
			os.Remove(logPath)
		}, nil
	}
	appendRange := func(w *wal.Writer, from, n int) error {
		for i := from; i < from+n; i++ {
			if err := w.Append(record(uint64(i + 1))); err != nil {
				return err
			}
		}
		return nil
	}
	add("wal.append_nosync_ns", 100_000, 1, func(ops int) (func() error, func(), error) {
		w, cleanup, err := openLog(wal.SyncNever)
		if err != nil {
			return nil, nil, err
		}
		return func() error { return appendRange(w, 0, ops) }, cleanup, nil
	})
	add("wal.append_group_us.p2", 100, 2.0/1e3, func(ops int) (func() error, func(), error) {
		w, cleanup, err := openLog(wal.SyncBatch)
		if err != nil {
			return nil, nil, err
		}
		return fanOut(2, ops, func(g, n int) error { return appendRange(w, g*n, n) }), cleanup, nil
	})
	add("wal.replay_ns_per_record", 50_000, 1, func(ops int) (func() error, func(), error) {
		w, cleanup, err := openLog(wal.SyncNever)
		if err != nil {
			return nil, nil, err
		}
		if err := errors.Join(appendRange(w, 0, ops), w.Close()); err != nil {
			cleanup()
			return nil, nil, err
		}
		return func() error {
			n := 0
			if _, err := wal.ReplayFS(dev, logPath, func(wal.Record) error { n++; return nil }); err != nil {
				return err
			}
			if n != ops {
				return fmt.Errorf("replay read %d of %d records", n, ops)
			}
			return nil
		}, cleanup, nil
	})

	// Eight versions a key, seven of them below the watermark.
	add("gc.prune_ns_per_version", 7*4096, 1, func(ops int) (func() error, func(), error) {
		src := &pruneSource{store: storage.NewStore(0), vtnc: 8}
		for k := 0; k < ops/7; k++ {
			o := src.store.GetOrCreate(keys[k])
			for tn := 1; tn <= 8; tn++ {
				o.InstallCommitted(storage.Version{TN: uint64(tn), Data: value})
			}
		}
		collector := gc.New(src, 0)
		return func() error {
			if n := collector.Collect(); n != ops/7*7 {
				return fmt.Errorf("reclaimed %d versions, want %d", n, ops/7*7)
			}
			return nil
		}, nil, nil
	})

	// One client straight through core.New, 10 000 bootstrapped keys.
	newEngine := func(o core.Options) (*core.Engine, error) {
		e := core.New(o)
		data := make(map[string][]byte, 10_000)
		for _, k := range keys[:10_000] {
			data[k] = value
		}
		return e, e.Bootstrap(data)
	}
	add("core.ro.view_us", 50_000, 1.0/1e3, func(ops int) (func() error, func(), error) {
		e, err := newEngine(core.Options{})
		if err != nil {
			return nil, nil, err
		}
		return func() error {
			rng := rand.New(rand.NewPCG(4, 4))
			for i := 0; i < ops; i++ {
				tx, err := e.Begin(engine.ReadOnly)
				if err != nil {
					return err
				}
				for j := 0; j < 4; j++ {
					if _, err := tx.Get(keys[rng.IntN(10_000)]); err != nil {
						return err
					}
				}
				if err := tx.Commit(); err != nil {
					return err
				}
			}
			return nil
		}, func() { e.Close() }, nil
	})
	for _, p := range []struct {
		name string
		p    core.Protocol
	}{{"2pl", core.TwoPhaseLocking}, {"to", core.TimestampOrdering}, {"occ", core.Optimistic}} {
		for _, m := range []vc.Mode{vc.ModeStrict, vc.ModeEpoch} {
			add("core."+p.name+"."+m.String()+".update_us", 20_000, 1.0/1e3, func(ops int) (func() error, func(), error) {
				e, err := newEngine(core.Options{Protocol: p.p, Visibility: m})
				if err != nil {
					return nil, nil, err
				}
				return func() error {
					rng := rand.New(rand.NewPCG(5, 5))
					for i := 0; i < ops; i++ {
						if err := rmw2(e, keys[rng.IntN(5_000)], keys[5_000+rng.IntN(5_000)]); err != nil {
							return err
						}
					}
					return nil
				}, func() { e.Close() }, nil
			})
		}
	}

	for _, b := range benches {
		x, err := b.run(quick)
		if err != nil {
			return err
		}
		v[b.name] = x
	}
	return nil
}

// rmw2 is one read-modify-write of two keys, a before b.
func rmw2(e *core.Engine, a, b string) error {
	tx, err := e.Begin(engine.ReadWrite)
	if err != nil {
		return err
	}
	for _, k := range []string{a, b} {
		val, err := tx.Get(k)
		if err != nil {
			tx.Abort()
			return err
		}
		if err := tx.Put(k, newValue(counterOf(val)+1, 0)); err != nil {
			tx.Abort()
			return err
		}
	}
	return tx.Commit()
}

// pruneSource is the gc.Source of the prune bench: a store and a fixed
// horizon, no active snapshots.
type pruneSource struct {
	store *storage.Store
	vtnc  uint64
}

func (s *pruneSource) Store() *storage.Store               { return s.store }
func (s *pruneSource) VTNC() uint64                        { return s.vtnc }
func (s *pruneSource) MinActiveReadOnlySN() (uint64, bool) { return 0, false }
