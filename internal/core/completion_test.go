package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"mvdb/internal/engine"
	"mvdb/internal/storage"
	"mvdb/internal/vc"
	"mvdb/internal/wal"
)

// eachConfig runs fn on a logged engine — only a logged commit collects
// at completion — for every protocol under both version-control modes.
// The log syncs only on Close: what is tested is collection.
func eachConfig(t *testing.T, rec engine.Recorder, fn func(t *testing.T, e *Engine)) {
	for _, p := range allProtocols() {
		for _, mode := range []vc.Mode{vc.ModeStrict, vc.ModeEpoch} {
			t.Run(fmt.Sprintf("%v/%v", p, mode), func(t *testing.T) {
				e, err := OpenDurable(filepath.Join(t.TempDir(), "commit.log"),
					Options{Protocol: p, Visibility: mode, Recorder: rec}, DurableOptions{Policy: wal.SyncNever})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				fn(t, e)
			})
		}
	}
}

func versionsOf(e *Engine, key string) int { return e.store.Get(key).VersionCount() }

// sweep is a collection pass, as DB.CollectGarbage runs one.
func sweep(e *Engine) int {
	w, n := e.watermark(), 0
	e.store.Range(func(_ string, o *storage.Object) bool { n += o.Prune(w); return true })
	return n
}

// TestKeysRestAtOneVersion: with no snapshot open, a logged commit drops
// the versions it superseded once it completes, so every key written —
// by Update or through a BeginTx handle — rests at one version, and not
// only once the same key is written again. An in-memory engine's chains
// rest at two (TestInMemoryChainsCollectAtInstall).
func TestKeysRestAtOneVersion(t *testing.T) {
	keys := []string{"a", "b", "c", "d", "e"}
	eachConfig(t, nil, func(t *testing.T, e *Engine) {
		for i := range 40 {
			k1, k2 := keys[i%len(keys)], keys[(3*i+1)%len(keys)]
			v := []byte(fmt.Sprint(i))
			if i%2 == 0 {
				if err := e.Update(func(tx *Tx) error {
					if err := tx.Put(k1, v); err != nil {
						return err
					}
					return tx.Put(k2, v)
				}); err != nil {
					t.Fatal(err)
				}
			} else {
				mustCommitWrite(t, e, map[string]string{k1: string(v), k2: string(v)})
			}
			if sn := e.Stats(); sn.Versions != int64(sn.Keys) {
				t.Fatalf("after commit %d: %d versions over %d keys, want one a key", i, sn.Versions, sn.Keys)
			}
		}
		if n := e.stats.GCReclaimed.Load(); n == 0 {
			t.Fatal("no version was reclaimed")
		}
	})
}

// TestInMemoryChainsCollectAtInstall: an in-memory commit leaves its
// chains to install-time collection, so a rewritten key rests at two
// versions, and its predecessor goes at the key's next write.
func TestInMemoryChainsCollectAtInstall(t *testing.T) {
	for _, p := range allProtocols() {
		e := New(Options{Protocol: p})
		for i := range 10 {
			mustCommitWrite(t, e, map[string]string{"k": fmt.Sprint(i)})
			if n, want := versionsOf(e, "k"), min(i+1, 2); n != want {
				t.Fatalf("%v: k holds %d versions after %d commits, want %d", p, n, i+1, want)
			}
		}
		e.Close()
	}
}

// nextBegin runs empty Updates until one begins in the struct h heads,
// and calls check inside it. It reports false if the pool never handed
// the struct back (-race drops some of its Puts).
func nextBegin(t *testing.T, e *Engine, h *Tx, check func()) bool {
	t.Helper()
	for range 20 {
		reused := false
		if err := e.Update(func(tx *Tx) error {
			if reused = tx == h; reused {
				check()
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if reused {
			return true
		}
	}
	return false
}

// TestCompletionSparesOpenSnapshots: a commit's prune at completion reads
// the watermark after VCcomplete, so a snapshot published below the
// commit's number keeps the predecessor it reads. The commit leaves the
// prune to its struct's next begin, keeping the keys and dropping the
// values; a begin after the snapshot closes drops the predecessor, and a
// begin that still sees it keeps it, for the sweep to drop later.
func TestCompletionSparesOpenSnapshots(t *testing.T) {
	eachConfig(t, nil, func(t *testing.T, e *Engine) {
		put := func(v string) *Tx {
			var h *Tx
			if err := e.Update(func(tx *Tx) error { h = tx; return tx.Put("k", []byte(v)) }); err != nil {
				t.Fatal(err)
			}
			return h
		}
		reads := func(snap engine.Tx, want string) {
			t.Helper()
			if v, err := snap.Get("k"); err != nil || string(v) != want {
				t.Fatalf("snapshot read k = (%q, %v), want %s", v, err, want)
			}
		}

		// A begin after the snapshot closes drops the predecessor.
		put("v1")
		snap, _ := e.Begin(engine.ReadOnly)
		h := put("v2")
		reads(snap, "v1")
		if n := versionsOf(e, "k"); n != 2 {
			t.Fatalf("k holds %d versions under the snapshot, want 2", n)
		}
		if _, ws, o := parts(h.self); !o.pruneLater || len(ws.writes) != 1 || ws.writes[0].Key != "k" || ws.writes[0].Value != nil {
			t.Fatalf("the commit left pruneLater %v and write set %+v, want k without its value", o.pruneLater, ws.writes)
		}
		snap.Commit()
		want := 1 // k's predecessor, if the pool never handed the struct back
		if nextBegin(t, e, h, func() {
			if n := versionsOf(e, "k"); n != 1 {
				t.Errorf("k holds %d versions once the struct is begun again, want 1", n)
			}
		}) {
			want = 0
		}
		if n := sweep(e); n != want {
			t.Fatalf("the sweep dropped %d versions, want %d", n, want)
		}

		// A begin that still sees the snapshot keeps it; the sweep drops it.
		snap, _ = e.Begin(engine.ReadOnly)
		h = put("v3")
		nextBegin(t, e, h, func() {
			if n := versionsOf(e, "k"); n != 2 {
				t.Errorf("k holds %d versions at a begin that sees the snapshot, want 2", n)
			}
		})
		reads(snap, "v2")
		snap.Commit()
		if n := sweep(e); n != 1 {
			t.Fatalf("the sweep dropped %d versions, want k's predecessor", n)
		}
		if sn := e.Stats(); sn.Versions != int64(sn.Keys) {
			t.Fatalf("%d versions over %d keys at rest, want one a key", sn.Versions, sn.Keys)
		}
	})
}

// TestCompletionBehindAnOlderCommit: a commit that completes while an
// older one is still open — the younger of a group-commit batch, most
// often — reads a watermark below its number and leaves its prune to its
// struct's next begin, which Update holds back until the entry has left
// the controller (pooled). Once the older commit has completed, that
// begin drops the predecessor.
func TestCompletionBehindAnOlderCommit(t *testing.T) {
	rec := &blockCommit{entered: make(chan struct{}), release: make(chan struct{})}
	eachConfig(t, rec, func(t *testing.T, e *Engine) {
		mustCommitWrite(t, e, map[string]string{"k": "v0"})
		older, err := e.BeginTx(engine.ReadWrite)
		if err != nil {
			t.Fatal(err)
		}
		if err := older.Put("older", []byte("v")); err != nil {
			t.Fatal(err)
		}
		rec.hold.Store(older.ID())
		committed := make(chan error, 1)
		go func() { committed <- older.Commit() }()
		<-rec.entered

		var h *Tx
		if err := e.Update(func(tx *Tx) error { h = tx; return tx.Put("k", []byte("v1")) }); err != nil {
			t.Fatal(err)
		}
		if n := versionsOf(e, "k"); n != 2 {
			t.Fatalf("k holds %d versions behind the open older commit, want 2", n)
		}
		if _, _, o := parts(h.self); !o.pruneLater {
			t.Fatal("the commit did not leave its prune to the struct's next begin")
		}
		rec.release <- struct{}{}
		if err := <-committed; err != nil {
			t.Fatal(err)
		}
		// The next configuration's engine numbers its transactions from 1
		// again.
		rec.hold.Store(0)
		want := 1 // k's predecessor, if the pool never handed the struct back
		if nextBegin(t, e, h, func() {
			if n := versionsOf(e, "k"); n != 1 {
				t.Errorf("k holds %d versions at the struct's next begin, want 1", n)
			}
		}) {
			want = 0
		}
		if n := sweep(e); n != want {
			t.Fatalf("the sweep dropped %d versions, want %d", n, want)
		}
	})
}

// TestCompletionRacesSnapshots: commits prune at completion, and at their
// structs' next begins, while Views read. Every commit writes the same
// value to all four keys, so a View that lost a version to a prune reads
// an error or two different values.
func TestCompletionRacesSnapshots(t *testing.T) {
	keys := []string{"a", "b", "c", "d"}
	eachConfig(t, nil, func(t *testing.T, e *Engine) {
		mustCommitWrite(t, e, map[string]string{"a": "0", "b": "0", "c": "0", "d": "0"})
		var wg sync.WaitGroup
		for w := range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range 100 {
					v := []byte(fmt.Sprint(w, i))
					err := e.Update(func(tx *Tx) error {
						for _, k := range keys {
							if err := tx.Put(k, v); err != nil {
								return err
							}
						}
						return nil
					})
					if err != nil && !engine.Retryable(err) {
						t.Error(err)
						return
					}
				}
			}()
		}
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range 100 {
					err := e.View(func(tx *Tx) error {
						first, err := tx.Get(keys[0])
						if err != nil {
							return err
						}
						for _, k := range keys[1:] {
							runtime.Gosched()
							v, err := tx.Get(k)
							if err != nil {
								return err
							}
							if string(v) != string(first) {
								return errors.New("a snapshot read " + string(first) + " and " + string(v))
							}
						}
						return nil
					})
					if err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		sweep(e)
		if sn := e.Stats(); sn.Versions != int64(sn.Keys) {
			t.Fatalf("%d versions over %d keys after the sweep", sn.Versions, sn.Keys)
		}
	})
}
