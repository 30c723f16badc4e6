package main

import (
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// host is the context every result is recorded with, so that results from
// different hosts are not compared silently.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	LoadAvg    string `json:"loadavg_1m"`
}

func readHost() host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		LoadAvg:    "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			h.LoadAvg = f[0]
		}
	}
	return h
}

// cpuTime is the user+system CPU time of this process plus that of every
// child process it has waited for (the campaign workers).
func cpuTime() time.Duration {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self) // cannot fail for these arguments
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	return time.Duration(self.Utime.Nano() + self.Stime.Nano() + kids.Utime.Nano() + kids.Stime.Nano())
}

// peakRSSMB is the largest peak resident set of this process and of any child
// it has waited for, in MiB (Linux reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	return float64(max(self.Maxrss, kids.Maxrss)) / 1024
}
