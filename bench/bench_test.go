package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestManifestMatchesTables holds BENCHMARK.json to the tables in
// metrics.go and workload.go, and the tables to the driver's limits.
func TestManifestMatchesTables(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables; regenerate it with: bash bench/run.sh -manifest > BENCHMARK.json")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the driver's limits", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m.Name)
		isSetup := m.Name == "setup_s" && m.Unit == "s" && m.Better == lower
		hasSetup = hasSetup || isSetup
		// The issue caps bounds at 10 %; set-up, which the driver exempts
		// from its spread check and wants given the largest bound, at 25 %.
		limit := 0.10
		if isSetup {
			limit = 0.25
		}
		if m.Bound <= 0 || m.Bound > limit {
			t.Errorf("%s: bound %v is outside (0, %v]", m.Name, m.Bound, limit)
		}
	}
	if !hasSetup {
		t.Error("end_to_end has no setup_s in s, lower is better")
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the driver takes 128", len(perLayer))
	}
	for _, m := range perLayer {
		check(m.Name)
	}
	for _, m := range slices.Concat(endToEnd, perLayer) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the driver's limits", m.Name, m.Unit)
		}
		if m.Better != higher && m.Better != lower {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
}

// TestQuickRuns makes a small run of both kinds on every workload and
// checks what the driver would: the answer check passes, no operation
// fails, and every metric of the table is printed exactly once, finite,
// with its unit, and again in the result line.
func TestQuickRuns(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(clients))
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			table := endToEnd
			if traced {
				table = perLayer
			}
			t.Run(w.name+"/trace="+strconv.FormatBool(traced), func(t *testing.T) {
				var buf bytes.Buffer
				cfg := config{w: &w, seed: 1, seconds: defaultSeconds, quick: true, dir: t.TempDir()}
				if err := runOne(&buf, cfg, traced); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%t failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				printed := map[string]int{}
				for _, line := range lines[:len(lines)-1] {
					f := strings.Fields(line)
					if len(f) != 4 || f[0] != w.name {
						continue
					}
					printed[f[1]]++
					x, err := strconv.ParseFloat(f[2], 64)
					if err != nil || math.IsNaN(x) || math.IsInf(x, 0) {
						t.Errorf("%s printed as %q", f[1], f[2])
					}
					if got, ok := res.Metrics[f[1]]; !ok || got.Unit != f[3] {
						t.Errorf("%s printed with unit %q, result line has %+v", f[1], f[3], got)
					}
				}
				for _, m := range table {
					if printed[m.Name] != 1 {
						t.Errorf("%s printed %d times", m.Name, printed[m.Name])
					}
					if res.Metrics[m.Name].Unit != m.Unit {
						t.Errorf("%s has unit %q in the result line, %q in the table", m.Name, res.Metrics[m.Name].Unit, m.Unit)
					}
				}
				if len(res.Metrics) != len(table) {
					t.Errorf("result line has %d metrics, the table %d", len(res.Metrics), len(table))
				}
				if !traced {
					for _, m := range table {
						if res.Metrics[m.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s is %v; it must never be 0", m.Name, res.Metrics[m.Name].Value)
						}
					}
				}
			})
		}
	}
}

// TestAnswerCheckCatchesLostUpdate makes sure the oracle is not vacuous:
// an increment booked but never written must fail it.
func TestAnswerCheckCatchesLostUpdate(t *testing.T) {
	r := newRunner(config{w: &workloads[0], seed: 1, seconds: 1, quick: true, dir: t.TempDir()})
	if _, err := r.setup(false); err != nil {
		t.Fatal(err)
	}
	defer r.closeDB()
	r.start()
	r.slice()
	if err := r.check(r.db); err != nil {
		t.Fatalf("honest run: %v", err)
	}
	r.cs[0].increments++
	if err := r.check(r.db); err == nil {
		t.Error("a booked increment that was never written passed the answer check")
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
