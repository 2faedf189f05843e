// Command mvdb is the operator's and tester's command line for the
// database, one subcommand per job:
//
//	mvdb torture  crash-fault-injection torture of the durable engines
//	mvdb soak     long-horizon soak with a sampled health oracle
//	mvdb sim      the paper's figures replayed as annotated executions
//	mvdb inspect  a commit log, a flight bundle, or a live database
//
// torture and soak run the protocol × visibility matrix that -protocol
// (2pl, to, occ or all) and -vc (strict, epoch or all) select, each
// configuration in its own directory under -dir (a fresh temporary
// directory by default, removed when every configuration passes), and
// with -json write one machine-readable verdict document for the run.
// `mvdb <subcommand> -h` lists a subcommand's flags. A bad invocation
// exits 2.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mvdb/internal/crashtest"
)

var subcommands = []struct {
	name, what string
	run        func(args []string) int
}{
	{"torture", "crash-fault-injection torture: recover, audit, commit under faults, power cut", torture},
	{"soak", "steady durable load judged by its own sampled series", soak},
	{"sim", "replay the paper's figures against the real engines", sim},
	{"inspect", "decode a commit log, render a flight bundle, or poll a live database", inspect},
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	if len(args) > 0 {
		for _, c := range subcommands {
			if c.name == args[0] {
				return c.run(args[1:])
			}
		}
		fmt.Fprintf(os.Stderr, "mvdb: unknown subcommand %q\n", args[0])
	}
	fmt.Fprintln(os.Stderr, "usage: mvdb <subcommand> [flags]\n\nsubcommands:")
	for _, c := range subcommands {
		fmt.Fprintf(os.Stderr, "  %-8s %s\n", c.name, c.what)
	}
	return 2
}

// flags returns the flag set of a subcommand; its usage message starts
// with the synopsis.
func flags(name, synopsis string) *flag.FlagSet {
	fs := flag.NewFlagSet("mvdb "+name, flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: %s %s\n", fs.Name(), synopsis)
		fs.PrintDefaults()
	}
	return fs
}

// usage says why an invocation is wrong, prints the subcommand's usage,
// and returns the exit status of a bad invocation.
func usage(fs *flag.FlagSet, format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "%s: %s\n", fs.Name(), fmt.Sprintf(format, args...))
	fs.Usage()
	return 2
}

// matrix is the -protocol × -vc selection from the crash-test
// configurations.
type matrix struct {
	fs           *flag.FlagSet
	protocol, vc *string
}

func matrixFlags(fs *flag.FlagSet) matrix {
	return matrix{fs,
		fs.String("protocol", "all", "2pl, to, occ, or all"),
		fs.String("vc", "all", "visibility mode: strict, epoch, or all (both)")}
}

// configs returns the selected configurations, protocol-major. If a flag
// names no protocol or mode, it prints the usage and returns none.
func (m matrix) configs() []crashtest.Config {
	var out []crashtest.Config
	for _, c := range crashtest.Configs() {
		if selects(*m.protocol, shortName(c)) && selects(*m.vc, c.Visibility.String()) {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		usage(m.fs, "no configuration matches -protocol %q -vc %q", *m.protocol, *m.vc)
	}
	return out
}

func selects(sel, value string) bool { return sel == "all" || sel == "" || sel == value }

// shortName is the -protocol vocabulary: 2pl, to or occ.
func shortName(c crashtest.Config) string { return strings.TrimPrefix(c.Protocol.String(), "vc+") }

// verdict is the -json document of torture and soak.
type verdict[R any] struct {
	Schema  string        `json:"schema"`
	Seed    int64         `json:"seed"`
	Elapsed time.Duration `json:"elapsed_ns"`
	Passed  bool          `json:"passed"`
	Configs []R           `json:"configs"`
}

// runMatrix runs each configuration against the work directory dir (a
// fresh temporary one if empty, removed only if every configuration
// passes), prints the total, writes the verdict to jsonOut if set, and
// returns the exit status: 0 only if every configuration passed.
func runMatrix[R any](schema, dir, jsonOut string, seed int64, configs []crashtest.Config,
	one func(i int, c crashtest.Config, base string) (R, bool)) (status int) {

	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "mvdb"); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer func() {
			if status == 0 {
				os.RemoveAll(dir)
			}
		}()
	}
	start := time.Now()
	v := verdict[R]{Schema: schema, Seed: seed, Passed: true}
	for i, c := range configs {
		res, pass := one(i, c, dir)
		v.Configs = append(v.Configs, res)
		v.Passed = v.Passed && pass
	}
	v.Elapsed = time.Since(start)
	fmt.Printf("total: %d configurations in %v\n", len(v.Configs), v.Elapsed.Round(time.Millisecond))
	if !v.Passed {
		status = 1
	}
	if jsonOut != "" {
		data, err := json.MarshalIndent(v, "", "  ")
		if err == nil {
			err = os.WriteFile(jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "writing -json verdict: %v\n", err)
			status = 1
		}
	}
	return status
}

// subdir creates and returns base/name.
func subdir(base, name string) (string, error) {
	d := filepath.Join(base, name)
	return d, os.MkdirAll(d, 0o755)
}
