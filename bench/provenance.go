package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"time"
)

// provenance stamps a result with what produced it, so two result files
// taken on different hosts or commits are never compared unawares.
type provenance struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func currentProvenance(seed int64) provenance {
	return provenance{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Commit:     buildCommit(),
		Seed:       seed,
	}
}

// buildCommit reads the VCS revision the toolchain stamped into the
// binary; a build outside a git checkout has none.
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// calibMS times a fixed, stdlib-only CPU probe (sorting 2^20 pseudo-random
// words) and returns the median of three runs in milliseconds. Run before
// and after a workload, it lets compare tell a slower host from a slower
// commit.
func calibMS() float64 {
	xs := make([]uint64, 1<<20)
	runs := make([]float64, 3)
	for r := range runs {
		h := uint64(0x9e3779b97f4a7c15)
		for i := range xs {
			h += 0x9e3779b97f4a7c15
			z := h
			z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
			z = (z ^ z>>27) * 0x94d049bb133111eb
			xs[i] = z ^ z>>31
		}
		t := time.Now()
		slices.Sort(xs)
		runs[r] = millis(time.Since(t))
	}
	return median(runs)
}

// selfMaxRSSMB returns this process's peak resident set size in MB.
func selfMaxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
