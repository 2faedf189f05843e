package crashtest

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"mvdb/internal/audit"
	"mvdb/internal/core"
	"mvdb/internal/engine"
	"mvdb/internal/faultfs"
	"mvdb/internal/history"
	"mvdb/internal/storage"
	"mvdb/internal/vc"
)

// Config selects the engine variant under torture. The log always runs
// the durable policy (wal.SyncBatch): durability-on-ack is the promise
// the harness checks.
type Config struct {
	Protocol core.Protocol
	// Visibility selects the version-control implementation (strict
	// drain or epoch watermark). Recovery rebuilds the controller from
	// the WAL either way; the mode must make no difference to what
	// survives a crash.
	Visibility vc.Mode
}

func (c Config) String() string {
	return c.Protocol.String() + "/group-commit/" + c.Visibility.String()
}

// Configs is the full engine matrix: all three protocols, both
// visibility modes.
func Configs() []Config {
	var out []Config
	for _, p := range []core.Protocol{core.TwoPhaseLocking, core.TimestampOrdering, core.Optimistic} {
		for _, v := range []vc.Mode{vc.ModeStrict, vc.ModeEpoch} {
			out = append(out, Config{Protocol: p, Visibility: v})
		}
	}
	return out
}

// openEngine recovers the engine over fsys; the engine owns its log,
// under group commit (the zero sync policy).
func openEngine(fsys faultfs.FS, walPath string, cfg Config, rec engine.Recorder) (*core.Engine, error) {
	return core.OpenDurable(walPath, core.Options{Protocol: cfg.Protocol, Visibility: cfg.Visibility, Recorder: rec},
		core.DurableOptions{FS: fsys})
}

// runScript executes the deterministic scripted scenario the sweep
// enumerates crash points of: a logged bootstrap, a batch of commits, a
// checkpoint under load, more commits (including a delete), an offline
// compaction, then a reopen with further commits. Every commit also reads
// and rewrites the key "chain", so each depends on the one before it and
// the oracle's clause on reads is live at every crash point; the
// bootstrapped "g" is never written again, so it must come back at
// version 0 through the checkpoint and the compaction. Single-client, so
// the sequence of filesystem operations is identical on every fault-free
// run.
//
// A commit that fails without a power cut (an injected transient error)
// is simply an unacknowledged attempt: the script keeps going. Once the
// filesystem has crashed, the script stops and returns.
func runScript(fsys *faultfs.FaultFS, walPath string, cfg Config, o *Oracle) error {
	n := 0
	puts := func(keys ...string) map[string]Mut {
		n++
		m := make(map[string]Mut, len(keys)+1)
		for _, k := range append(keys, "chain") {
			m[k] = Mut{Value: fmt.Sprintf("c%02d.%s", n, k), RMW: k == "chain"}
		}
		return m
	}
	del := func(key string) map[string]Mut {
		m := puts()
		m[key] = Mut{Delete: true}
		return m
	}

	e, err := openEngine(fsys, walPath, cfg, nil)
	if err != nil {
		return err
	}
	commit := func(muts map[string]Mut) error {
		if _, err := CommitAttempt(e, o, muts); err != nil && fsys.Crashed() {
			return err
		}
		return nil
	}

	boot := map[string]Mut{"a": {Value: "boot.a"}, "chain": {Value: "boot.chain"}, "g": {Value: "boot.g"}}
	if err := bootstrap(e, o, boot); err != nil && fsys.Crashed() {
		e.Close()
		return err
	}

	phase1 := []map[string]Mut{
		puts("a"), puts("b", "c"), puts("a", "b"), puts("d"), puts("c"), puts("a", "d"),
	}
	for _, m := range phase1 {
		if err := commit(m); err != nil {
			e.Close()
			return err
		}
	}
	// Checkpoint while the engine is open (the production arrangement).
	if err := e.Checkpoint(); err != nil && fsys.Crashed() {
		e.Close()
		return err
	}
	phase2 := []map[string]Mut{
		puts("b"), del("c"), puts("e"), puts("a", "c"),
	}
	for _, m := range phase2 {
		if err := commit(m); err != nil {
			e.Close()
			return err
		}
	}
	if err := e.Close(); err != nil && fsys.Crashed() {
		return err
	}

	// Offline compaction between incarnations.
	if err := core.Compact(fsys, walPath); err != nil && fsys.Crashed() {
		return err
	}

	// Reopen from the compacted state and keep committing.
	e, err = openEngine(fsys, walPath, cfg, nil)
	if err != nil {
		if fsys.Crashed() {
			return err
		}
		return nil // transient open failure: scenario over early
	}
	phase3 := []map[string]Mut{
		puts("f"), puts("b", "e"), puts("d"),
	}
	for _, m := range phase3 {
		if err := commit(m); err != nil {
			e.Close()
			return err
		}
	}
	e.Close()
	return nil
}

// RecoverAndCheck opens the surviving directory state with a clean
// filesystem and audits it: the dual oracle over the recovered store,
// then a serializability-checked live workload (internal/history
// offline checker AND the internal/audit online auditor must both stay
// silent), then a second recovery over the result — recovery must be
// idempotent and the recovered engine must keep accepting commits.
func RecoverAndCheck(walPath string, cfg Config, o *Oracle) error {
	for round := 0; round < 2; round++ {
		rec := history.NewRecorder()
		aud := audit.New(audit.Options{})
		e, err := openEngine(faultfs.New(faultfs.Plan{}), walPath, cfg, engine.Multi(rec, aud))
		if err != nil {
			aud.Close()
			return fmt.Errorf("recovery round %d failed: %w", round, err)
		}
		fail := func(err error) error {
			e.Close()
			aud.Close()
			return fmt.Errorf("recovery round %d: %w", round, err)
		}
		if err := checkRecovered(walPath, e, o); err != nil {
			return fail(err)
		}
		seedRecovered(rec, e)
		if err := liveWorkload(e, o, round); err != nil {
			return fail(fmt.Errorf("post-recovery workload: %w", err))
		}
		aud.Drain()
		if alarms := aud.AlarmsTotal(); alarms != 0 {
			return fail(fmt.Errorf("online auditor raised %d alarms on the recovered engine", alarms))
		}
		if err := rec.Check(); err != nil {
			return fail(fmt.Errorf("post-recovery history not serializable: %w", err))
		}
		if err := e.Close(); err != nil {
			aud.Close()
			return fmt.Errorf("recovery round %d: close log: %w", round, err)
		}
		aud.Close()
	}
	return nil
}

// checkRecovered audits a freshly recovered engine against the oracle,
// reading the horizon it was restored under back from the snapshot file
// (intact, or the open would have failed).
func checkRecovered(walPath string, e *core.Engine, o *Oracle) error {
	horizon, _, err := core.LoadSnapshot(nil, core.SnapPath(walPath), nil)
	if err != nil {
		return err
	}
	return o.Check(e, horizon)
}

// seedRecovered teaches the offline checker the recovered writers:
// each recovered transaction number becomes a synthetic committed
// transaction, so post-recovery reads of recovered versions resolve to
// a committed writer instead of looking like dirty reads. Synthetic IDs
// live far above anything the engine's allocator can reach during the
// short post-recovery workload.
func seedRecovered(rec *history.Recorder, e *core.Engine) {
	const seedBase = uint64(1) << 40
	byTN := make(map[uint64][]string)
	e.Store().Range(func(key string, obj *storage.Object) bool {
		for _, v := range obj.Versions() {
			if v.TN != 0 {
				byTN[v.TN] = append(byTN[v.TN], key)
			}
		}
		return true
	})
	for tn, keys := range byTN {
		id := seedBase + tn
		rec.RecordBegin(id, engine.ReadWrite)
		for _, k := range keys {
			rec.RecordWrite(id, k, tn)
		}
		rec.RecordCommit(id, tn)
	}
}

// liveWorkload runs reads, writes and a read-only snapshot scan on a
// recovered engine — the "keeps accepting commits" half of the oracle.
func liveWorkload(e *core.Engine, o *Oracle, round int) error {
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("live%d", i)
		muts := map[string]Mut{key: {Value: fmt.Sprintf("r%d.i%d", round, i)}}
		o.Attempt(muts)
		tx, err := e.Begin(engine.ReadWrite)
		if err != nil {
			return err
		}
		// A read in the same transaction exercises the reads-from edges
		// of the post-recovery MVSG.
		var reads map[string]string
		if v, err := tx.Get("a"); err == nil {
			reads = map[string]string{"a": string(v)}
		} else if !errors.Is(err, engine.ErrNotFound) {
			tx.Abort()
			return err
		}
		if err := tx.Put(key, []byte(muts[key].Value)); err != nil {
			tx.Abort()
			return err
		}
		if err := tx.Commit(); err != nil {
			return err
		}
		tn, _ := tx.SN()
		o.Ack(tn, muts, reads)
	}
	ro, err := e.Begin(engine.ReadOnly)
	if err != nil {
		return err
	}
	for _, k := range []string{"a", "b", "live0"} {
		if _, err := ro.Get(k); err != nil && !errors.Is(err, engine.ErrNotFound) {
			ro.Abort()
			return err
		}
	}
	return ro.Commit()
}

// Sweep runs the scripted scenario fault-free once to trace every
// filesystem operation, then re-runs it once per mutating operation
// with a power cut injected exactly there (write and fsync points get
// two extra variants: a torn tail and a corrupt torn tail), recovering
// and auditing after each. It returns the number of crash points
// exercised. Directories are created under baseDir.
func Sweep(baseDir string, cfg Config) (int, error) {
	traceDir := filepath.Join(baseDir, "trace")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return 0, err
	}
	tracer := faultfs.New(faultfs.Plan{})
	tracer.EnableTrace()
	o := NewOracle()
	walPath := filepath.Join(traceDir, "commit.log")
	if err := runScript(tracer, walPath, cfg, o); err != nil {
		return 0, fmt.Errorf("fault-free run failed: %w", err)
	}
	if err := RecoverAndCheck(walPath, cfg, o); err != nil {
		return 0, fmt.Errorf("fault-free run: %w", err)
	}

	points := 0
	for _, op := range tracer.Trace() {
		if !op.Mutates() {
			continue
		}
		faults := []faultfs.Fault{{Crash: true}}
		if op.Op == faultfs.OpWrite || op.Op == faultfs.OpSync {
			// Torn tail and corrupt torn tail: bytes of the in-flight
			// write reached the platter, clean or garbled.
			faults = append(faults,
				faultfs.Fault{Crash: true, Torn: 5},
				faultfs.Fault{Crash: true, Torn: 1 << 20, Corrupt: true})
		}
		if op.Op == faultfs.OpRename {
			// The lucky window: the rename's dirent was journaled
			// before the cut.
			faults = append(faults, faultfs.Fault{Crash: true, KeepRename: true})
		}
		for fi, ft := range faults {
			dir := filepath.Join(baseDir, fmt.Sprintf("op%04d.%d", op.Index, fi))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return points, err
			}
			wp := filepath.Join(dir, "commit.log")
			fs := faultfs.New(faultfs.Plan{Rules: []faultfs.Rule{{AtOp: op.Index, Fault: ft}}})
			oo := NewOracle()
			scriptErr := runScript(fs, wp, cfg, oo)
			if !fs.Crashed() {
				return points, fmt.Errorf("crash point op %d (%s %s) never fired (script err: %v) — scenario not deterministic",
					op.Index, op.Op, filepath.Base(op.Path), scriptErr)
			}
			if err := fs.ApplyCrash(); err != nil {
				return points, fmt.Errorf("op %d: apply crash: %w", op.Index, err)
			}
			if err := RecoverAndCheck(wp, cfg, oo); err != nil {
				return points, fmt.Errorf("crash at op %d (%s %s), fault %+v: %w",
					op.Index, op.Op, filepath.Base(op.Path), ft, err)
			}
			points++
			os.RemoveAll(dir)
		}
	}
	return points, nil
}
