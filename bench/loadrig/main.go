// Command loadrig is the repository's benchmark: a single-process load rig
// that assembles real master / mid-tier / leaf topologies over loopback TCP
// from the public constructors, releases seeded load behind a READY/START
// barrier, checks convergence, and prints every metric by name and unit.
// See ../README.md and /BENCHMARK.json.
//
//	loadrig -workload fanout-shared -seed 1 -seconds 12 -trace 0
//	loadrig -workload all -seed 1            # every workload, untraced then traced
//	loadrig -check-repeat 5 -seed 1          # repeatability of the gated metrics
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

func main() {
	var (
		workload    = flag.String("workload", "all", "workload name, or \"all\"")
		seed        = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds     = flag.Float64("seconds", 0, "measured seconds per run (0 = run_seconds of BENCHMARK.json)")
		trace       = flag.Int("trace", 0, "0 = untraced run reporting the end-to-end metrics; 1 = traced run reporting the per-layer metrics")
		outDir      = flag.String("out", "bench/out", "directory for trace files and temporary state")
		checkRepeat = flag.Int("check-repeat", 0, "run the suite N times on one seed and fail if a gated metric's spread exceeds its bound")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *outDir, *checkRepeat); err != nil {
		fmt.Fprintln(os.Stderr, "loadrig:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace int, outDir string, checkRepeat int) error {
	// The contract sits at the root of the checkout, where run.sh starts
	// the rig from.
	bf, err := loadBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = float64(bf.RunSeconds)
	}
	defs := workloads(fullSizes)
	names := workloadNames
	if workload != "all" {
		if _, ok := defs[workload]; !ok {
			return fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(workloadNames, ", "))
		}
		names = []string{workload}
	}
	printHost()

	if checkRepeat > 0 {
		return repeatCheck(bf, defs, names, seed, seconds, outDir, checkRepeat)
	}
	single := workload != "all"
	for _, name := range names {
		modes := []bool{trace == 1}
		if !single {
			modes = []bool{false, true}
		}
		for _, traced := range modes {
			out, res, err := measure(runConfig{def: defs[name], seed: seed, seconds: seconds,
				traced: traced, outDir: outDir, ladderBudget: rungBudget})
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			report(os.Stderr, name, traced, out, res)
			line, err := json.Marshal(out)
			if err != nil {
				return err
			}
			// The result line is the last line of standard output.
			fmt.Println(string(line))
		}
	}
	return nil
}

// measure runs one configuration and turns a gate violation into an error:
// a run that did not converge prints no metrics.
func measure(cfg runConfig) (*output, *runResult, error) {
	res, err := runWorkload(cfg)
	if err != nil {
		return nil, nil, err
	}
	if len(res.violations) > 0 {
		return nil, nil, fmt.Errorf("correctness gate: %s", strings.Join(res.violations, "; "))
	}
	out := &output{Correct: true, Attempted: res.attempted, Failed: res.failed}
	if cfg.traced {
		out.Metrics = perLayer(res)
	} else {
		out.Metrics = endToEnd(res)
	}
	if out.Attempted < 1 {
		return nil, nil, fmt.Errorf("no operation was attempted")
	}
	return out, res, nil
}

// printHost records what the numbers were measured on.
func printHost() {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				commit = s.Value[:12]
			}
		}
	}
	fmt.Fprintf(os.Stderr, "host: GOMAXPROCS=%d nproc=%d %s %s/%s commit=%s\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit)
}
