// Command perfbench is the repository's wall-clock benchmark. It drives
// the CMT-bone Euler solver and Nekbone through their public packages
// on four seeded workloads, checks every result, and prints each
// metric by name and unit, with one JSON result object as the last
// line of standard output.
//
//	go run . --workload all --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate
// traced run that reports the per-layer metrics and writes its spans
// to a file. See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// watchdog ends a run that has not finished in this time, reporting
// every op failed: a hung op is a failed op.
const watchdog = 170 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := fs.Float64("seconds", 10, "seconds of timed ops per workload")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	spans := fs.String("spans", "", "span file of a traced run (default .bench_build/spans/<workload>-seed<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if !(*seconds > 0) {
		fmt.Fprintf(os.Stderr, "perfbench: --seconds must be positive\n")
		return 2
	}
	if *name == "all" {
		return runAll(out, args)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	if *spans == "" {
		*spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", w.name, *seed))
	}
	dog := time.AfterFunc(watchdog, func() {
		res := result{Attempted: 1, Failed: 1, Metrics: map[string]metricValue{}}
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %v\n", w.name, watchdog)
		printResult(out, res)
		os.Exit(1)
	})
	defer dog.Stop()
	res := runOne(out, w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *spans)
	if !res.Correct {
		return 1
	}
	return 0
}

// runOne measures one workload, prints the host record and a readable
// table, then the result line.
func runOne(out io.Writer, w workload, seed int64, seconds time.Duration, traced bool, spansPath string) result {
	h := host()
	hb, _ := json.Marshal(h) // plain struct of strings and numbers
	fmt.Fprintf(out, "host %s\n", hb)
	in := genInputs(seed, w)
	fmt.Fprintf(out, "inputs %s\n", in.bytes())
	m := measure(w, in, seconds, traced)
	res := summarize(w, m, traced)
	if traced && m.tr != nil {
		if err := m.tr.write(spansPath, h); err != nil {
			m.problem("%v", err)
			res.Correct = false
		} else {
			fmt.Fprintf(out, "spans: %d written to %s; self time per span name:\n%s",
				len(m.tr.spans), spansPath, selfTable(m.tr.selfTimes()))
		}
	}
	fmt.Fprintf(out, "workload %s seed %d: %d ops attempted, %d failed (first %d checked bit for bit against the plain-path reference); %d timed ops\n",
		w.name, seed, res.Attempted, res.Failed, refOps, len(m.opTimes)+len(m.tracedTimes))
	for _, p := range m.problems {
		fmt.Fprintf(out, "  FAILED: %s\n", p)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		if v, ok := res.Metrics[d.name]; ok {
			fmt.Fprintf(out, "  %-28s %-14.6g %s (%s is better)\n", d.name, v.Value, d.unit, d.better)
		}
	}
	if !traced {
		fmt.Fprintf(out, "  %-28s %-14.6g %s\n", "failed_frac", float64(res.Failed)/float64(res.Attempted), "ratio")
	}
	for _, n := range m.notes {
		fmt.Fprintf(out, "  (%s)\n", n)
	}
	printResult(out, res)
	return res
}

func printResult(out io.Writer, res result) {
	b, err := json.Marshal(res)
	if err != nil {
		// Only a non-finite metric value fails to marshal.
		b, _ = json.Marshal(result{Attempted: max(res.Attempted, 1), Failed: max(res.Attempted, 1),
			Metrics: map[string]metricValue{}})
	}
	fmt.Fprintf(out, "%s\n", b)
}

// runAll runs every workload, each in a child process of its own so
// that its peak memory holds no other workload's, and prints one
// combined result whose metric names are prefixed by the workload.
func runAll(out io.Writer, args []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	// Each child gets the flags given here, except the workload and the
	// span file, which are per workload.
	var rest []string
	for i := 0; i < len(args); i++ {
		name, _, hasValue := strings.Cut(strings.TrimLeft(args[i], "-"), "=")
		if name == "workload" || name == "spans" {
			if !hasValue {
				i++
			}
			continue
		}
		rest = append(rest, args[i])
	}
	all := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range workloads {
		res, err := runChild(out, self, append([]string{"--workload", w.name}, rest...))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			res = result{Attempted: 1, Failed: 1}
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[w.name+"/"+k] = v
		}
	}
	printResult(out, all)
	if !all.Correct {
		return 1
	}
	return 0
}

// runChild runs one workload in a child process, copies its output and
// parses its last line.
func runChild(out io.Writer, self string, args []string) (result, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return result{}, err
	}
	if err := cmd.Start(); err != nil {
		return result{}, err
	}
	var last string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		last = sc.Text()
		fmt.Fprintln(out, last)
	}
	scanErr := sc.Err()
	waitErr := cmd.Wait()
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, errors.Join(fmt.Errorf("parse result line: %w", err), scanErr, waitErr)
	}
	return res, nil
}
