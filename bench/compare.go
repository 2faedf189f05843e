package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// aaFile is a set of end-to-end runs: what -aa writes and -compare reads.
type aaFile struct {
	Seconds int     `json:"seconds"`
	Runs    []aaRun `json:"runs"`
}

type aaRun struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	result
}

// aaSet makes n end-to-end runs of each workload, each in a process of
// its own with a seed of its own as the driver does, and writes them to
// path. Workloads alternate so that a slow minute lands on all of them.
func aaSet(todo []*spec, n int, seed uint64, seconds int, path string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := aaFile{Seconds: seconds}
	for i := 0; i < n; i++ {
		for _, w := range todo {
			s := seed + uint64(i)
			cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatUint(s, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, s, err)
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			run := aaRun{Workload: w.name, Seed: s}
			if err := json.Unmarshal(lines[len(lines)-1], &run.result); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", w.name, s, err)
			}
			if !run.Correct || run.Failed != 0 {
				return fmt.Errorf("%s seed %d: correct=%t failed=%d", w.name, s, run.Correct, run.Failed)
			}
			fmt.Fprintf(os.Stderr, "%s seed %d done\n", w.name, s)
			set.Runs = append(set.Runs, run)
		}
	}
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readSet(path string) (aaFile, error) {
	var set aaFile
	b, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	return set, json.Unmarshal(b, &set)
}

// series collects one metric of one workload across a set's runs.
func (f aaFile) series(workload, name string) []float64 {
	var xs []float64
	for _, r := range f.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// compareFiles prints, for every workload and end-to-end metric, both
// sets' medians and spreads, how much worse the second median is than
// the first, and the bound. It returns 1 if any is worse by more than its
// bound: run on two sets of one commit, that is the A/A acceptance check.
func compareFiles(pathA, pathB string) int {
	a, err := readSet(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := readSet(pathB)
	if err != nil {
		return fail(err)
	}
	code := 0
	fmt.Printf("%-18s %-15s %13s %13s %8s %8s %8s %6s\n", "workload", "metric", "median A", "median B", "spread A", "spread B", "worse", "bound")
	for _, w := range workloads {
		for _, m := range endToEnd {
			xa, xb := a.series(w.name, m.Name), b.series(w.name, m.Name)
			if len(xa) == 0 && len(xb) == 0 {
				continue // a workload neither set ran
			}
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Printf("%-18s %-15s missing from a set\n", w.name, m.Name)
				code = 1
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := ratio(mb-ma, ma)
			if m.Better == higher {
				worse = -worse
			}
			verdict := ""
			if worse > m.Bound {
				verdict = "  EXCEEDS"
				code = 1
			}
			fmt.Printf("%-18s %-15s %13.4f %13.4f %7.2f%% %7.2f%% %+7.2f%% %5.0f%%%s\n",
				w.name, m.Name, ma, mb, 100*spread(xa), 100*spread(xb), 100*worse, 100*m.Bound, verdict)
		}
	}
	return code
}
