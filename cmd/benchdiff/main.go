// Command benchdiff is the continuous performance-regression harness:
// it loads a committed trajectory (BENCH_trajectory.json), re-runs
// in-process every registered suite (bench.Suites) that the baseline
// holds, and compares.
//
// Deterministic modeled metrics (virtual-clock makespans, modeled MPI
// fractions) are bit-reproducible, so they gate tightly (-threshold).
// Wall-clock metrics are noisy and host-dependent; by default they are
// report-only, and with -wall-threshold they gate using repetition-based
// confidence bounds (-reps). When a regression is found on a scenario
// whose runs carry critical-path summaries, benchdiff prints a blame
// diff — which rank/phase bucket of the critical path grew. A baseline
// scenario the fresh run no longer produces fails the gate too.
//
//	benchdiff BENCH_trajectory.json
//	benchdiff -record BENCH_trajectory.json   # run every suite, write the baseline
//	benchdiff -hot 16 BENCH_trajectory.json   # inject a skew, watch it fail
//
// Exit status: 0 clean, 1 regressions or missing scenarios, 2 error.
package main

import (
	"flag"
	"fmt"
	"log"
	"maps"
	"os"
	"runtime"
	"strings"

	"repro/internal/bench"
	"repro/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchdiff: ")

	record := flag.String("record", "", "run all suites and write a fresh trajectory to this file instead of comparing")
	threshold := flag.Float64("threshold", 0.02, "relative worsening tolerated on deterministic (modeled) metrics")
	wallThreshold := flag.Float64("wall-threshold", 0, "gate wall-clock metrics beyond this relative worsening (0 = report-only)")
	reps := flag.Int("reps", 3, "kernel-sweep repetitions for wall-clock confidence bounds")
	topBlame := flag.Int("top", 3, "critical-path blame lines per regression")
	critOut := flag.String("critpath", "", "write the fresh run's full critical-path reports to this file")
	hot := flag.Float64("hot", 0, "inject a hot-rank compute skew of this factor into the fresh loadbal study (regression demo)")
	verbose := flag.Bool("v", false, "list bit-identical metrics and unmatched scenarios too")
	// Positional arguments are the baseline files, so plain flag.Parse
	// (not cli.Parse, which rejects positionals).
	flag.Parse()

	var base *report.Trajectory
	if *record == "" {
		paths := flag.Args()
		if len(paths) == 0 {
			log.Print("no baselines given; usage: benchdiff [flags] BENCH_trajectory.json...")
			flag.PrintDefaults()
			os.Exit(2)
		}
		base = &report.Trajectory{SchemaVersion: report.SchemaVersion}
		for _, p := range paths {
			t, err := report.ReadTrajectory(p)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("baseline %s: schema v%d, %d results\n", p, t.SchemaVersion, len(t.Results))
			base.Results = append(base.Results, t.Results...)
			if base.Host.NumCPU == 0 {
				base.Host = t.Host
			}
		}
	}

	fresh := report.New(nil)
	wallCI := map[string]float64{}
	var crit strings.Builder
	for _, s := range bench.Suites {
		if base != nil && !hasSuite(base, s.Name) {
			continue
		}
		fmt.Printf("running %s...\n", s.Name)
		out, err := s.Run(bench.RunOptions{Reps: *reps, Hot: *hot})
		if err != nil {
			log.Fatalf("%s: %v", s.Name, err)
		}
		fresh.Results = append(fresh.Results, out.Results...)
		crit.WriteString(out.Critpath)
		maps.Copy(wallCI, out.WallCI)
	}
	if *critOut != "" && crit.Len() > 0 {
		if err := os.WriteFile(*critOut, []byte(crit.String()), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote critical-path report to %s\n", *critOut)
	}

	if *record != "" {
		if err := fresh.WriteFile(*record); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("recorded %d results to %s\n", len(fresh.Results), *record)
		return
	}

	opts := bench.CompareOptions{
		Threshold:     *threshold,
		WallThreshold: *wallThreshold,
		WallCI:        wallCI,
		TopBlame:      *topBlame,
	}
	if base.Host.NumCPU != 0 && base.Host.NumCPU != runtime.NumCPU() && *wallThreshold > 0 {
		fmt.Printf("note: baseline host had %d CPUs, this host %d — wall-clock comparisons are cross-machine\n",
			base.Host.NumCPU, runtime.NumCPU())
	}
	cmp := bench.Compare(base, fresh, opts)
	fmt.Println()
	fmt.Print(cmp.Format(*verbose))
	if cmp.Failed() {
		os.Exit(1)
	}
}

// hasSuite reports whether any result of t belongs to the named suite.
func hasSuite(t *report.Trajectory, name string) bool {
	for i := range t.Results {
		if t.Results[i].Suite == name {
			return true
		}
	}
	return false
}
