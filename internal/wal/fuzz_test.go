package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"mvdb/internal/faultfs"
)

// FuzzDecodePayload: arbitrary bytes must never panic the decoder, and a
// successfully decoded record must re-encode to a decodable payload with
// identical content.
func FuzzDecodePayload(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodePayload(nil, Record{TN: 7, Writes: []Write{{Key: "k", Value: []byte("v")}}}))
	f.Add(encodePayload(nil, Record{TN: 1, Writes: []Write{{Key: "", Tombstone: true}}}))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodePayload(data)
		if err != nil {
			return
		}
		re := encodePayload(nil, rec)
		rec2, err := decodePayload(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if rec2.TN != rec.TN || len(rec2.Writes) != len(rec.Writes) {
			t.Fatalf("round trip mismatch: %+v vs %+v", rec, rec2)
		}
		for i := range rec.Writes {
			if rec.Writes[i].Key != rec2.Writes[i].Key ||
				rec.Writes[i].Tombstone != rec2.Writes[i].Tombstone ||
				!bytes.Equal(rec.Writes[i].Value, rec2.Writes[i].Value) {
				t.Fatalf("write %d mismatch", i)
			}
		}
	})
}

// FuzzReplay: an arbitrary log file must never panic Replay; the reported
// valid length is bounded by the file size and every delivered record has
// a valid CRC by construction.
func FuzzReplay(f *testing.F) {
	good := func(recs ...Record) []byte {
		var out []byte
		for _, r := range recs {
			p := encodePayload(nil, r)
			var hdr [8]byte
			binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(p)))
			binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(p))
			out = append(out, hdr[:]...)
			out = append(out, p...)
		}
		return out
	}
	f.Add([]byte{})
	f.Add(good(Record{TN: 1, Writes: []Write{{Key: "a", Value: []byte("x")}}}))
	f.Add(append(good(Record{TN: 2}), 0xDE, 0xAD))
	f.Add([]byte{255, 255, 255, 255, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		n := 0
		validLen, err := ReplayFS(faultfs.OS, path, func(Record) error { n++; return nil })
		if err != nil {
			t.Fatalf("Replay errored on corrupt input: %v", err)
		}
		if validLen < 0 || validLen > int64(len(data)) {
			t.Fatalf("validLen %d out of range [0,%d]", validLen, len(data))
		}
	})
}
