package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mvdb/internal/engine"
	"mvdb/internal/faultfs"
	"mvdb/internal/wal"
)

// wsOp is one step of a write-set script: a Put of val, or a Delete.
type wsOp struct {
	key, val string
	del      bool
}

func puts(n int) []wsOp {
	ops := make([]wsOp, n)
	for i := range ops {
		ops[i] = wsOp{key: fmt.Sprintf("k%03d", i), val: fmt.Sprintf("v%d", i)}
	}
	return ops
}

// runLogged commits one transaction per script against a fresh log at
// path, reading every key back through the transaction after each step
// (read-own-write must see the step's value), and returns the log's
// records.
func runLogged(t *testing.T, p Protocol, path string, scripts ...[]wsOp) []wal.Record {
	t.Helper()
	e, err := OpenDurable(path, Options{Protocol: p}, DurableOptions{Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for _, ops := range scripts {
		tx, err := e.Begin(engine.ReadWrite)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			if op.del {
				err = tx.Delete(op.key)
			} else {
				err = tx.Put(op.key, []byte(op.val))
			}
			if err != nil {
				t.Fatal(err)
			}
			got, err := tx.Get(op.key)
			if op.del {
				if !errors.Is(err, engine.ErrNotFound) {
					t.Fatalf("Get(%q) after own Delete = %q, %v", op.key, got, err)
				}
			} else if err != nil || string(got) != op.val {
				t.Fatalf("Get(%q) after own Put(%q) = %q, %v", op.key, op.val, got, err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	var recs []wal.Record
	if _, err := wal.ReplayFS(faultfs.OS, path, func(r wal.Record) error { recs = append(recs, r); return nil }); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestWriteSetSemantics pins what a transaction's writes become: one
// entry per key, at the position of the key's first write, holding its
// last value — in the log record, so also in install order — under every
// protocol, below and above the size at which the set starts indexing.
func TestWriteSetSemantics(t *testing.T) {
	big := puts(600)
	bigWant := make([]wal.Write, len(big))
	for i, op := range big {
		bigWant[i] = wal.Write{Key: op.key, Value: []byte(op.val)}
	}
	// Rewrite an early, a threshold and a late key once the index exists:
	// each keeps its place.
	for _, i := range []int{0, writeSetScan, 599} {
		big = append(big, wsOp{key: big[i].key, val: "again"})
		bigWant[i].Value = []byte("again")
	}
	big = append(big, wsOp{key: big[300].key, del: true})
	bigWant[300] = wal.Write{Key: big[300].key, Tombstone: true}

	for _, c := range []struct {
		name string
		ops  []wsOp
		want []wal.Write
	}{
		{"put-put", []wsOp{{key: "a", val: "1"}, {key: "b", val: "2"}, {key: "a", val: "3"}},
			[]wal.Write{{Key: "a", Value: []byte("3")}, {Key: "b", Value: []byte("2")}}},
		{"put-delete-put", []wsOp{{key: "a", val: "1"}, {key: "b", val: "2"}, {key: "a", del: true}, {key: "a", val: "4"}},
			[]wal.Write{{Key: "a", Value: []byte("4")}, {Key: "b", Value: []byte("2")}}},
		{"put-delete", []wsOp{{key: "b", val: "2"}, {key: "a", val: "1"}, {key: "b", del: true}},
			[]wal.Write{{Key: "b", Tombstone: true}, {Key: "a", Value: []byte("1")}}},
		{"600-keys", big, bigWant},
	} {
		for _, p := range allProtocols() {
			t.Run(c.name+"/"+p.String(), func(t *testing.T) {
				recs := runLogged(t, p, filepath.Join(t.TempDir(), "commit.log"), c.ops)
				if len(recs) != 1 {
					t.Fatalf("%d log records, want 1", len(recs))
				}
				got := recs[0].Writes
				if len(got) != len(c.want) {
					t.Fatalf("logged %d writes, want %d", len(got), len(c.want))
				}
				for i := range got {
					if !reflect.DeepEqual(got[i], c.want[i]) {
						t.Fatalf("logged write %d = %+v, want %+v", i, got[i], c.want[i])
					}
				}
			})
		}
	}
}

// TestLogIsDeterministic: a single client's program, run twice against
// fresh logs, writes the same bytes — records list their writes in
// program order, not in an order the runtime picks.
func TestLogIsDeterministic(t *testing.T) {
	program := [][]wsOp{puts(12), puts(40), {{key: "k003", del: true}, {key: "z", val: "1"}, {key: "k001", val: "2"}}}
	for _, p := range allProtocols() {
		t.Run(p.String(), func(t *testing.T) {
			var logs [2][]byte
			for i := range logs {
				path := filepath.Join(t.TempDir(), "commit.log")
				runLogged(t, p, path, program...)
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				logs[i] = b
			}
			if len(logs[0]) == 0 || !bytes.Equal(logs[0], logs[1]) {
				t.Fatalf("two runs of one program wrote different logs (%d and %d bytes)", len(logs[0]), len(logs[1]))
			}
		})
	}
}
