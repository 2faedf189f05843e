package crashtest

import (
	"path/filepath"
	"strings"
	"testing"

	"mvdb/internal/core"
	"mvdb/internal/faultfs"
)

// TestSweepExhaustive crashes the scripted scenario at every mutating
// filesystem operation — WAL appends, batch fsyncs, log rotations and
// retires, checkpoint temp writes and renames, directory fsyncs — for
// every engine configuration, and audits every recovery against the dual
// oracle.
func TestSweepExhaustive(t *testing.T) {
	for _, cfg := range Configs() {
		cfg := cfg
		t.Run(cfg.String(), func(t *testing.T) {
			t.Parallel()
			points, err := Sweep(t.TempDir(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			// The scenario performs well over 40 mutating operations
			// (13 commits with their fsyncs, two checkpoints, three
			// opens); a collapse of this count means the sweep
			// silently stopped covering the crash windows.
			if points < 40 {
				t.Fatalf("sweep exercised only %d crash points", points)
			}
			t.Logf("%s: %d crash points, zero violations", cfg, points)
		})
	}
}

// The sweep's crash points include each checkpoint's log rotation (the
// rename to OldPath, the fresh log's create and its directory fsync)
// and its retire (the removal of OldPath and the directory fsync after
// it). The script checkpoints twice. Under 2PL both retire what they
// rotated at their start; under T/O the first keeps its rotated log (a
// held transaction's horizon is below its bound), and the second
// retires it and rotates after.
func TestScriptRotatesAndRetires(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		// The first create is the log's own, at the first open.
		{Configs()[0], "create rename create remove rename create remove"},
		{Config{Protocol: core.TimestampOrdering}, "create rename create remove rename create"},
	} {
		t.Run(tc.cfg.String(), func(t *testing.T) {
			tracer := faultfs.New(faultfs.Plan{})
			tracer.EnableTrace()
			walPath := filepath.Join(t.TempDir(), "commit.log")
			if err := runScript(tracer, walPath, tc.cfg, NewOracle()); err != nil {
				t.Fatal(err)
			}
			var seq []string
			for _, op := range tracer.Trace() {
				switch {
				case op.Op == faultfs.OpRename && op.Path == core.OldPath(walPath),
					op.Op == faultfs.OpCreate && op.Path == walPath,
					op.Op == faultfs.OpRemove && op.Path == core.OldPath(walPath):
					seq = append(seq, op.Op.String())
				}
			}
			if got := strings.Join(seq, " "); got != tc.want {
				t.Fatalf("rotate/retire operations = %q, want %q", got, tc.want)
			}
		})
	}
}

// TestTortureQuick is the CI-sized randomized run: a fixed seed matrix
// of short multi-client torture loops over the full engine matrix. The
// long version is `mvdb torture`.
func TestTortureQuick(t *testing.T) {
	seeds := []int64{1, 2, 3}
	for _, cfg := range Configs() {
		cfg := cfg
		t.Run(cfg.String(), func(t *testing.T) {
			t.Parallel()
			for _, seed := range seeds {
				rep, err := Torture(t.TempDir(), TortureOptions{
					Seed:    seed,
					Config:  cfg,
					Rounds:  5,
					Clients: 3,
				})
				if err != nil {
					t.Fatalf("seed %d: %v (after %d rounds, %d/%d acked)",
						seed, err, rep.Rounds, rep.Acked, rep.Attempts)
				}
				if rep.Acked == 0 {
					t.Fatalf("seed %d: torture acknowledged zero commits — workload never ran", seed)
				}
				t.Logf("seed %d: %d rounds (%d crashes), %d/%d commits acked, zero violations",
					seed, rep.Rounds, rep.Crashes, rep.Acked, rep.Attempts)
			}
		})
	}
}
