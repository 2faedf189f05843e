package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"mvdb/internal/faultfs"
)

func tmpLog(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "commit.log")
}

func TestRoundTrip(t *testing.T) {
	path := tmpLog(t)
	w, err := CreateWith(path, Options{Policy: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{TN: 1, Writes: []Write{{Key: "a", Value: []byte("x")}}},
		{TN: 2, Writes: []Write{{Key: "b", Value: nil, Tombstone: true}, {Key: "c", Value: []byte("yy")}}},
		{TN: 3, Writes: nil},
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var got []Record
	n, err := ReplayFS(faultfs.OS, path, func(r Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fi, _ := os.Stat(path)
	if n != fi.Size() {
		t.Fatalf("validLen = %d, file size = %d", n, fi.Size())
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].TN != recs[i].TN || len(got[i].Writes) != len(recs[i].Writes) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, got[i], recs[i])
		}
		for j := range recs[i].Writes {
			a, b := got[i].Writes[j], recs[i].Writes[j]
			if a.Key != b.Key || a.Tombstone != b.Tombstone || !bytes.Equal(a.Value, b.Value) {
				t.Fatalf("write %d/%d mismatch: %+v vs %+v", i, j, a, b)
			}
		}
	}
}

// Rotate under group-commit load: every record appended lands in
// exactly one file — a retired one or the live one — while committers
// race the flusher and the rotations; the counters stay lifetime totals
// and Size is the live file's length.
func TestRotateUnderLoad(t *testing.T) {
	const clients, per, rotations = 4, 200, 5
	path := tmpLog(t)
	w, err := CreateWith(path, Options{Policy: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := w.Append(Record{TN: uint64(c*per + i + 1)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	files := []string{path}
	for r := 0; r < rotations; r++ {
		for a, _, _ := w.Counters(); a < uint64((r+1)*clients*per/(rotations+1)) && !t.Failed(); a, _, _ = w.Counters() {
			runtime.Gosched()
		}
		retired := fmt.Sprintf("%s.%d", path, r)
		if err := w.Rotate(retired); err != nil {
			t.Fatal(err)
		}
		files = append(files, retired)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, _ := os.Stat(path); w.Size() != fi.Size() {
		t.Fatalf("Size = %d, live file holds %d bytes", w.Size(), fi.Size())
	}
	if appends, _, _ := w.Counters(); appends != clients*per {
		t.Fatalf("appends = %d, want the lifetime %d", appends, clients*per)
	}
	seen := map[uint64]int{}
	for _, f := range files {
		if _, err := ReplayFS(faultfs.OS, f, func(r Record) error { seen[r.TN]++; return nil }); err != nil {
			t.Fatal(err)
		}
	}
	for tn := uint64(1); tn <= clients*per; tn++ {
		if seen[tn] != 1 {
			t.Fatalf("record %d is in %d files, want 1", tn, seen[tn])
		}
	}
}

func TestReplayMissingFile(t *testing.T) {
	n, err := ReplayFS(faultfs.OS, filepath.Join(t.TempDir(), "absent.log"), func(Record) error {
		t.Fatal("callback invoked")
		return nil
	})
	if err != nil || n != 0 {
		t.Fatalf("got (%d,%v), want (0,nil)", n, err)
	}
}

func TestTornTailStopsReplay(t *testing.T) {
	path := tmpLog(t)
	w, _ := CreateWith(path, Options{Policy: SyncBatch})
	for tn := uint64(1); tn <= 5; tn++ {
		if err := w.Append(Record{TN: tn, Writes: []Write{{Key: "k", Value: []byte("v")}}}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	fi, _ := os.Stat(path)
	// Chop 3 bytes off the last record: a torn write.
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	var tns []uint64
	validLen, err := ReplayFS(faultfs.OS, path, func(r Record) error {
		tns = append(tns, r.TN)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tns) != 4 {
		t.Fatalf("replayed %d records, want 4", len(tns))
	}
	// Resume appending after truncating the tail.
	w2, err := OpenAppendWith(path, Options{Policy: SyncBatch}, replayed(validLen))
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(Record{TN: 6, Writes: []Write{{Key: "k", Value: []byte("post")}}}); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	tns = nil
	if _, err := ReplayFS(faultfs.OS, path, func(r Record) error { tns = append(tns, r.TN); return nil }); err != nil {
		t.Fatal(err)
	}
	want := []uint64{1, 2, 3, 4, 5: 0}
	_ = want
	if !reflect.DeepEqual(tns, []uint64{1, 2, 3, 4, 6}) {
		t.Fatalf("tns = %v, want [1 2 3 4 6]", tns)
	}
}

func TestCorruptMiddleRecordStopsReplay(t *testing.T) {
	path := tmpLog(t)
	w, _ := CreateWith(path, Options{Policy: SyncBatch})
	w.Append(Record{TN: 1, Writes: []Write{{Key: "aaaa", Value: []byte("1111")}}})
	w.Append(Record{TN: 2, Writes: []Write{{Key: "bbbb", Value: []byte("2222")}}})
	w.Close()

	data, _ := os.ReadFile(path)
	// Flip a byte inside the first record's payload.
	data[12] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	count := 0
	n, err := ReplayFS(faultfs.OS, path, func(Record) error { count++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if count != 0 || n != 0 {
		t.Fatalf("replayed %d records from offset %d; corruption must stop replay", count, n)
	}
}

func TestAppendAfterClose(t *testing.T) {
	path := tmpLog(t)
	w, _ := CreateWith(path, Options{Policy: SyncNever})
	w.Close()
	if err := w.Append(Record{TN: 1}); err == nil {
		t.Fatal("Append after Close succeeded")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

func TestPropertyEncodeDecode(t *testing.T) {
	f := func(tn uint64, keys [][]byte, vals [][]byte, tombs []bool) bool {
		var r Record
		r.TN = tn
		for i, k := range keys {
			w := Write{Key: string(k)}
			if i < len(vals) {
				w.Value = vals[i]
			}
			if i < len(tombs) {
				w.Tombstone = tombs[i]
			}
			r.Writes = append(r.Writes, w)
		}
		dec, err := decodePayload(encodePayload(nil, r))
		if err != nil {
			return false
		}
		if dec.TN != r.TN || len(dec.Writes) != len(r.Writes) {
			return false
		}
		for i := range r.Writes {
			a, b := dec.Writes[i], r.Writes[i]
			if a.Key != b.Key || a.Tombstone != b.Tombstone {
				return false
			}
			if len(a.Value) != len(b.Value) || (len(a.Value) > 0 && !bytes.Equal(a.Value, b.Value)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Enqueue hands out tickets in log order without waiting; one fsync
// covers every ticket up to the one waited on, as one batch.
func TestEnqueueThenWait(t *testing.T) {
	w, first, open := openHeld(t)
	var tickets [3]Ticket
	prev := first
	for i := range tickets {
		tickets[i] = enqueue(t, w, uint64(10+i))
		if tickets[i] <= prev {
			t.Fatalf("tickets %v after %d not in log order", tickets, first)
		}
		prev = tickets[i]
	}
	if _, fsyncs, _ := w.Counters(); fsyncs != 0 {
		t.Fatalf("Enqueue fsynced (%d)", fsyncs)
	}
	open()
	rode(t, w, tickets[2], 2, 3)
	_, before, _ := w.Counters()
	for _, tk := range tickets[:2] {
		if err := w.Wait(tk); err != nil {
			t.Fatal(err)
		}
	}
	if _, after, _ := w.Counters(); after != before {
		t.Fatalf("waiting on covered tickets fsynced again (%d -> %d)", before, after)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// replayAll replays the log at path and returns every record.
func replayAll(t *testing.T, path string) []Record {
	t.Helper()
	var got []Record
	validLen, err := ReplayFS(faultfs.OS, path, func(r Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fi, _ := os.Stat(path); validLen != fi.Size() {
		t.Fatalf("validLen %d, file size %d", validLen, fi.Size())
	}
	return got
}

// TestReplayRecordLargerThanBuffer: a record larger than the replay
// reader's 64 KiB buffer — here 2 000 writes of 64 B, ≈ 150 KiB — is
// read into a buffer of its own and replays byte-exactly between two
// small records that are decoded in place.
func TestReplayRecordLargerThanBuffer(t *testing.T) {
	big := Record{TN: 2, Writes: make([]Write, 2000)}
	for i := range big.Writes {
		v := make([]byte, 64)
		for j := range v {
			v[j] = byte(i + j)
		}
		big.Writes[i] = Write{Key: fmt.Sprintf("key-%05d", i), Value: v, Tombstone: i%7 == 0}
	}
	recs := []Record{rec(1, "a", "small"), big, rec(3, "b", "small")}
	path := tmpLog(t)
	w, err := CreateWith(path, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if _, err := w.Enqueue(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if n := 8 + payloadLen(big); n <= 1<<16 {
		t.Fatalf("the big record is %d bytes, not larger than the reader's buffer", n)
	}
	if got := replayAll(t, path); !reflect.DeepEqual(got, recs) {
		t.Fatalf("replayed %d records, not byte-exactly the %d written", len(got), len(recs))
	}
}

// TestReplayValuesDoNotAlias: what replay hands to fn is the caller's to
// keep. Record 1's values, kept while record 2 is read — which refills
// the reader's buffer over the bytes record 1 was decoded from — are
// unchanged afterwards.
func TestReplayValuesDoNotAlias(t *testing.T) {
	path := tmpLog(t)
	w, err := CreateWith(path, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	// Two 40 KiB records: each fits the 64 KiB reader buffer alone, so
	// both are decoded in place, but not both at once.
	fill := func(b byte) string { return string(bytes.Repeat([]byte{b}, 40<<10)) }
	for i, b := range []byte{'a', 'b'} {
		if _, err := w.Enqueue(rec(uint64(i+1), "k", fill(b))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, path)
	if len(got) != 2 {
		t.Fatalf("replayed %d records, want 2", len(got))
	}
	for i, b := range []byte{'a', 'b'} {
		if v := got[i].Writes[0].Value; string(v) != fill(b) {
			t.Fatalf("record %d's value changed after replay: it aliases the reader's buffer", i+1)
		}
	}
}
