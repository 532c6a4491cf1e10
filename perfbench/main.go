// Command perfbench is the repository's host-time benchmark. It measures
// what users of the simulator wait for, with the simulated results held
// fixed by reference checks:
//
//   - paper: the whole paper reproduction, as `experiments -fig all` runs it;
//   - explore: a tiered (analytic screen, exact confirmation) frontier query
//     over synthetic profiles and the frontend axes;
//   - serve: labd on a loopback listener under a closed loop of two clients.
//
// One invocation measures one workload for -seconds. It runs the workload
// as a series of passes, each in a fresh child process, so that every pass
// starts cold (empty memo, trace and snapshot caches) and its peak RSS is
// its own. It reports medians over the passes. With -trace 1 it alternates
// untraced and traced passes; a traced pass records spans around the
// benchmark's calls into each layer, then probes each layer's public
// functions, and yields the per-layer metrics and the tracing overhead.
//
// Usage, from the repository root, which is also the root of the code under
// test (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 36 --trace 0
//	bash perfbench/run.sh -compare old.out new.out
//	(cd perfbench && go run . -write-refs testdata)
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The first line is the run header
// ({"header": ...}); the lines between are a human-readable report that
// gives every ratio with its base.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

// Workload budgets. They are part of the run header: two runs with
// different budgets are not comparable.
const (
	workers = 2 // lab workers (paper, explore) and closed-loop clients (serve)

	paperInsts   = 300_000
	exploreInsts = 50_000
	serveInsts   = 20_000

	// serveRequests per pass puts 40 samples beyond the pass's p99.
	serveRequests = 4000

	// maxSetups bounds the set-up-only processes of a run.
	maxSetups = 15

	// hardStopS bounds a run: no pass beyond the first of each kind (two
	// for traced passes) starts after it, so a run ends well inside three
	// minutes even when -seconds is large.
	hardStopS = 100
)

var workloads = []string{"paper", "explore", "serve"}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		wl      = fs.String("workload", "", "workload: paper, explore or serve")
		seed    = fs.Uint64("seed", 1, "input seed (serve Zipf draw, explore audit sample)")
		seconds = fs.Int("seconds", 36, "measurement time; a pass starts while it would be at least half done within it")
		traced  = fs.Int("trace", 0, "1 = alternate untraced and traced passes and report per-layer metrics")

		compare   = fs.Bool("compare", false, "compare two saved outputs: perfbench -compare OLD NEW")
		writeRefs = fs.String("write-refs", "", "regenerate the correctness references into this directory")

		// Set only by the parent for its child processes.
		pass    = fs.String("pass", "", "internal: run one pass of this workload")
		mode    = fs.String("mode", "untraced", "internal: untraced, traced or setup (stop when set up)")
		tmp     = fs.String("tmp", "", "internal: scratch directory for the pass")
		spawned = fs.Int64("spawned", 0, "internal: parent's spawn time in Unix nanoseconds")
	)
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench: -compare takes two saved outputs")
			os.Exit(2)
		}
		os.Exit(compareRuns(os.Stdout, fs.Arg(0), fs.Arg(1)))
	case *writeRefs != "":
		if err := writeReferences(*writeRefs); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	case *pass != "":
		start := time.Unix(0, *spawned)
		if *spawned == 0 {
			start = time.Now()
		}
		os.Exit(childMain(*pass, *seed, *mode, *tmp, start))
	default:
		if !known(*wl) {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want paper, explore or serve)\n", *wl)
			os.Exit(2)
		}
		if *seconds < 1 || *traced < 0 || *traced > 1 {
			fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
			os.Exit(2)
		}
		h, err := newHeader(*wl, *seed, *seconds, *traced == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		os.Exit(parentMain(h))
	}
}

func known(wl string) bool {
	for _, w := range workloads {
		if w == wl {
			return true
		}
	}
	return false
}
