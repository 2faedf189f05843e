package crashtest

import (
	"testing"
)

// TestSweepExhaustive crashes the scripted scenario at every mutating
// filesystem operation — WAL appends, batch fsyncs, checkpoint temp
// writes and renames, compaction, directory fsyncs — for every engine
// configuration, and audits every recovery against the dual oracle.
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
			// (13 commits with their fsyncs, checkpoint, compaction,
			// three opens); a collapse of this count means the sweep
			// silently stopped covering the crash windows.
			if points < 40 {
				t.Fatalf("sweep exercised only %d crash points", points)
			}
			t.Logf("%s: %d crash points, zero violations", cfg, points)
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
