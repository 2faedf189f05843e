package wal

import (
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

func BenchmarkReplay(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.log")
	w, _ := CreateWith(path, Options{Policy: SyncNever})
	rec := Record{Writes: []Write{{Key: "some/key", Value: make([]byte, 64)}}}
	const nRecords = 10000
	for i := 0; i < nRecords; i++ {
		rec.TN = uint64(i + 1)
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
		if n != nRecords {
			b.Fatalf("replayed %d", n)
		}
	}
}
