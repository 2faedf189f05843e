package main

import (
	"os"
	"sync/atomic"
	"time"

	"mvdb/internal/faultfs"
)

// syncStall is what one Sync costs on the modelled device, before the
// timer's overshoot (host.sleep_1ms_p50_us says what it really takes).
const syncStall = time.Millisecond

// modelDev is the log device the durable workloads write to: real files,
// so bytes are written, read back and replayed exactly as in production,
// but Sync is a fixed stall and never a real fsync. The shared virtual
// disk under this sandbox drifts by more than ten percent between
// consecutive runs; a timer does not, and the engine's policy (how many
// syncs it issues and what it holds while it waits) is what the rig is
// here to judge.
type modelDev struct {
	syncs atomic.Int64
}

type modelFile struct {
	*os.File
	dev *modelDev
}

// Sync stalls for syncStall and reports success without touching the file.
// (Spinning out the tail of the stall to hit the deadline exactly was
// tried: commits got slower, not steadier, because the spinning flusher
// held one of the two Ps its own waiters needed to wake on.)
func (f modelFile) Sync() error {
	f.dev.syncs.Add(1)
	time.Sleep(syncStall)
	return nil
}

func (d *modelDev) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return modelFile{f, d}, nil
}

func (d *modelDev) Open(name string) (faultfs.File, error) {
	return d.OpenFile(name, os.O_RDONLY, 0)
}

func (d *modelDev) Rename(oldpath, newpath string) error  { return os.Rename(oldpath, newpath) }
func (d *modelDev) Remove(name string) error              { return os.Remove(name) }
func (d *modelDev) Stat(name string) (os.FileInfo, error) { return os.Stat(name) }

// SyncDir is free: directory entries on the model are durable at once.
func (d *modelDev) SyncDir(string) error { return nil }
