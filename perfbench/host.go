package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"repro/internal/sem"
)

// hostInfo identifies the machine and build a result came from, so two
// results can be told apart by host and by kernel backend (the AVX2
// build versus the semnoasm pure-Go build).
type hostInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	SIMD       bool   `json:"sem_simd"`
	Tags       string `json:"build_tags"`
}

func host() hostInfo {
	h := hostInfo{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		SIMD:       sem.HasSIMD(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-tags" {
				h.Tags = s.Value
			}
		}
	}
	return h
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown"
// where that file is absent).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
