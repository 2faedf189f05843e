package main

import (
	"strings"
	"testing"
)

// flat is n samples of a healthy steady state.
func flat(n int) []sample {
	ss := make([]sample, n)
	for i := range ss {
		ss[i] = sample{HeapBytes: 8 << 20, Versions: 1000, MaxVersionChain: 4, CommitP99NS: 2e6, AbortFrac: 0.01, VisibilityLag: 3, LogBytes: 2 << 20}
	}
	return ss
}

func wantReasons(t *testing.T, ss []sample, want ...string) {
	t.Helper()
	got := judge(ss)
	if len(got) != len(want) {
		t.Fatalf("judge = %q, want %d reasons naming %q", got, len(want), want)
	}
	for i, w := range want {
		if !strings.Contains(got[i], w) {
			t.Errorf("reason %d = %q, want it to name %q", i, got[i], w)
		}
	}
}

func TestJudgeFlatSeriesPasses(t *testing.T) {
	wantReasons(t, flat(60))
}

func TestJudgeCreepingHeapFailsDrift(t *testing.T) {
	ss := flat(60)
	for i := range ss {
		ss[i].HeapBytes = uint64(8<<20) * uint64(1+i) // 8 MB -> 480 MB
	}
	wantReasons(t, ss, "drift: heap_bytes")
}

func TestJudgeCreepingChainsFailDrift(t *testing.T) {
	ss := flat(30)
	for i := range ss {
		ss[i].MaxVersionChain = 4 + i*i
		ss[i].Versions = 1000 + 500*int64(i*i)
	}
	wantReasons(t, ss, "drift: max_version_chain", "drift: versions")
}

// A log that only grows fails; one that checkpoints cut back to a
// sawtooth, every other cut retiring the prefix, passes.
func TestJudgeLogBytes(t *testing.T) {
	ss := flat(40)
	for i := range ss {
		ss[i].LogBytes = int64(750<<10) * int64(1+i)
	}
	wantReasons(t, ss, "drift: log_bytes")
	for i := range ss {
		ss[i].LogBytes = int64(750<<10) * int64(1+i%8)
	}
	wantReasons(t, ss)
}

func TestJudgeSingleSpikePasses(t *testing.T) {
	ss := flat(40)
	ss[20].CommitP99NS = 2e9
	ss[21].AbortFrac = 0.9
	ss[22].VisibilityLag = 1e6
	wantReasons(t, ss)
}

// Six breaches scattered over twelve consecutive samples fail; five, or
// six spread wider than any twelve, do not.
func TestJudgeBurnWindow(t *testing.T) {
	breach := func(idx ...int) []sample {
		ss := flat(40)
		for _, i := range idx {
			ss[i].CommitP99NS = 300e6
		}
		return ss
	}
	wantReasons(t, breach(10, 12, 14, 16, 18, 21), "commit_p99_ns above")
	wantReasons(t, breach(10, 12, 14, 16, 18))
	wantReasons(t, breach(0, 4, 8, 12, 16, 20))

	ss := flat(40)
	for i := 5; i < 11; i++ {
		ss[i].AbortFrac = 0.6
		ss[i+20].VisibilityLag = 5000
	}
	wantReasons(t, ss, "abort_frac above", "visibility_lag above")
}

// Under six samples there is no trend to read and no window can fill.
func TestJudgeShortSeriesPassesVacuously(t *testing.T) {
	ss := flat(5)
	for i := range ss {
		ss[i].HeapBytes = uint64(1) << (20 + 2*i)
		ss[i].CommitP99NS = 1e9
	}
	wantReasons(t, ss)
	wantReasons(t, nil)
}
