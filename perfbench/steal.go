package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
)

// cpuSample is the machine's cumulative CPU time in clock ticks: all of
// it, and the part the hypervisor gave to other guests while this
// machine's CPUs wanted to run (steal).
type cpuSample struct {
	steal, total uint64
	ok           bool
}

// readCPU reads the aggregate line of /proc/stat. Where it is absent or
// unreadable the sample is marked not ok and no window is told apart.
func readCPU() cpuSample {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuSample{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuSample{}
	}
	fields := strings.Fields(sc.Text())
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuSample{}
	}
	var s cpuSample
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuSample{}
		}
		s.total += v
		if i == 7 {
			s.steal = v
		}
	}
	s.ok = true
	return s
}

// stealShare is the share of CPU time stolen between two samples (0
// when either is missing or no time passed).
func stealShare(from, to cpuSample) float64 {
	if !from.ok || !to.ok || to.total <= from.total {
		return 0
	}
	return float64(to.steal-from.steal) / float64(to.total-from.total)
}
