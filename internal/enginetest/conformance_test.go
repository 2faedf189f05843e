package enginetest

import (
	"testing"
	"time"

	"mvdb/internal/baseline"
	"mvdb/internal/core"
	"mvdb/internal/dist"
	"mvdb/internal/engine"
	"mvdb/internal/lock"
	"mvdb/internal/vc"
)

// TestConformance runs the battery against every engine configuration in
// the repository.
func TestConformance(t *testing.T) {
	factories := map[string]Factory{
		"vc+2pl": func(rec engine.Recorder) Instance {
			return core.New(core.Options{Protocol: core.TwoPhaseLocking, Recorder: rec})
		},
		"vc+2pl/timeout": func(rec engine.Recorder) Instance {
			return core.New(core.Options{Protocol: core.TwoPhaseLocking, LockPolicy: lock.TimeoutPolicy,
				LockTimeout: 5 * time.Millisecond, Recorder: rec})
		},
		"vc+to": func(rec engine.Recorder) Instance {
			return core.New(core.Options{Protocol: core.TimestampOrdering, Recorder: rec})
		},
		"vc+occ": func(rec engine.Recorder) Instance {
			return core.New(core.Options{Protocol: core.Optimistic, Recorder: rec})
		},
		// The three protocols again under epoch visibility: the
		// decentralized watermark must be behaviorally indistinguishable
		// from the strict drain across the whole battery.
		"vc+2pl/epoch": func(rec engine.Recorder) Instance {
			return core.New(core.Options{Protocol: core.TwoPhaseLocking, Visibility: vc.ModeEpoch, Recorder: rec})
		},
		"vc+to/epoch": func(rec engine.Recorder) Instance {
			return core.New(core.Options{Protocol: core.TimestampOrdering, Visibility: vc.ModeEpoch, Recorder: rec})
		},
		"vc+occ/epoch": func(rec engine.Recorder) Instance {
			return core.New(core.Options{Protocol: core.Optimistic, Visibility: vc.ModeEpoch, Recorder: rec})
		},
		"mvto": func(rec engine.Recorder) Instance {
			return baseline.NewMVTO(rec)
		},
		"mv2plctl": func(rec engine.Recorder) Instance {
			return baseline.NewMV2PLCTL(rec)
		},
		"sv2pl": func(rec engine.Recorder) Instance {
			return baseline.NewSV2PL(rec)
		},
		"dist-1site": func(rec engine.Recorder) Instance {
			c, err := dist.New(dist.Options{Sites: 1, Recorder: rec, LockTimeout: 10 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			return c
		},
		"dist-3site": func(rec engine.Recorder) Instance {
			c, err := dist.New(dist.Options{Sites: 3, Recorder: rec, LockTimeout: 10 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			return c
		},
	}
	for name, mk := range factories {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			Run(t, mk)
		})
	}
}
