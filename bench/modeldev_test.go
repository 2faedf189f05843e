package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestModelDevKeepsBytes: what is written through the device is what a
// reopen reads, because recovery replays the real file.
func TestModelDevKeepsBytes(t *testing.T) {
	dev := &modelDev{}
	path := filepath.Join(t.TempDir(), "log")
	want := []byte("forty-two bytes of log that must survive!!")
	f, err := dev.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(want); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := dev.Stat(path); err != nil || fi.Size() != int64(len(want)) {
		t.Fatalf("Stat = %v, %v; want size %d", fi, err, len(want))
	}
	r, err := dev.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("read back %q, wrote %q", got, want)
	}
	if n := dev.syncs.Load(); n != 1 {
		t.Errorf("device counted %d syncs, want 1", n)
	}
}

// TestModelDevSyncIsNotFsync: a real fsync on a closed file fails with
// os.ErrClosed; the model's Sync never reaches the file, so it succeeds.
func TestModelDevSyncIsNotFsync(t *testing.T) {
	dev := &modelDev{}
	f, err := dev.OpenFile(filepath.Join(t.TempDir(), "log"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.(modelFile).File.Sync(); err == nil {
		t.Fatal("a real fsync on a closed file succeeded; the test proves nothing")
	}
	if err := f.Sync(); err != nil {
		t.Errorf("model Sync touched the file: %v", err)
	}
	if err := dev.SyncDir(t.TempDir()); err != nil {
		t.Errorf("SyncDir: %v", err)
	}
}
