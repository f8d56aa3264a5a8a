// Package cli holds the small flag-parsing helpers the command-line
// tools share: grid triples ("8x8x4"), kernel variants, machine names,
// and per-rank output paths.
package cli

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/hw"
	"repro/internal/sem"
)

// Parse parses the command line like flag.Parse, then rejects stray
// positional arguments: every tool here is flag-driven, so a leftover
// argument is almost always a mistyped flag. On failure it prints the
// offending argument plus the usage text and exits with status 2 — the
// same contract as flag's own parse errors.
func Parse() {
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(flag.CommandLine.Output(), "unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
}

// ParseTriple parses "AxBxC" into three positive ints.
func ParseTriple(s string) ([3]int, error) {
	var out [3]int
	parts := strings.Split(s, "x")
	if len(parts) != 3 {
		return out, fmt.Errorf("want AxBxC, got %q", s)
	}
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return out, fmt.Errorf("bad component %q in %q", p, s)
		}
		if v < 1 {
			return out, fmt.Errorf("component %d must be positive in %q", v, s)
		}
		out[i] = v
	}
	return out, nil
}

// ParseVariant maps a flag value to a kernel variant.
func ParseVariant(s string) (sem.KernelVariant, error) {
	switch s {
	case "optimized":
		return sem.Optimized, nil
	case "basic":
		return sem.Basic, nil
	}
	return 0, fmt.Errorf("want optimized or basic, got %q", s)
}

// ParseMachine maps a flag value to an hw machine preset.
func ParseMachine(s string) (hw.Machine, error) {
	for _, m := range []hw.Machine{hw.Opteron6378, hw.I52500, hw.Generic} {
		if m.Name == s {
			return m, nil
		}
	}
	return hw.Machine{}, fmt.Errorf("unknown machine %q (want %s, %s, or %s)",
		s, hw.Opteron6378.Name, hw.I52500.Name, hw.Generic.Name)
}

// RankPath names one rank's shard of a per-process output file:
// "t.json" becomes "t.rank2.json" for rank 2. A multi-process run hands
// every process the same -trace/-metrics path, so each process writes
// its own shard instead of all of them truncating one file.
func RankPath(path string, rank int) string {
	ext := filepath.Ext(path)
	return fmt.Sprintf("%s.rank%d%s", path[:len(path)-len(ext)], rank, ext)
}
