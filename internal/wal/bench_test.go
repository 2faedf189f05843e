package wal

import (
	"fmt"
	"path/filepath"
	"testing"

	"mvdb/internal/faultfs"
)

func BenchmarkAppendNoSync(b *testing.B) {
	w, err := CreateWith(filepath.Join(b.TempDir(), "bench.log"), Options{Policy: SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	rec := Record{TN: 1, Writes: []Write{{Key: "some/key", Value: make([]byte, 64)}}}
	b.ReportAllocs()
	b.SetBytes(int64(8 + len(encodePayload(nil, rec))))
	for i := 0; i < b.N; i++ {
		rec.TN = uint64(i + 1)
		if err := w.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplay replays a log of one-write records, and one of
// 500-write records — a bulk load's batches.
func BenchmarkReplay(b *testing.B) {
	for _, bc := range []struct {
		name            string
		records, writes int
	}{
		{"1-write", 10000, 1},
		{"500-writes", 8, 500},
	} {
		b.Run(bc.name, func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "bench.log")
			w, _ := CreateWith(path, Options{Policy: SyncNever})
			rec := Record{Writes: make([]Write, bc.writes)}
			for i := 0; i < bc.records; i++ {
				rec.TN = uint64(i + 1)
				for j := range rec.Writes {
					rec.Writes[j] = Write{Key: fmt.Sprintf("k%04d", i*bc.writes+j), Value: make([]byte, 64)}
				}
				if err := w.Append(rec); err != nil {
					b.Fatal(err)
				}
			}
			w.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				if _, err := ReplayFS(faultfs.OS, path, func(Record) error { n++; return nil }); err != nil {
					b.Fatal(err)
				}
				if n != bc.records {
					b.Fatalf("replayed %d", n)
				}
			}
		})
	}
}
