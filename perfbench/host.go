package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostStamp identifies the machine and toolchain a result was measured
// on. Host times are only comparable between runs with equal stamps.
type hostStamp struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
}

func stampHost() hostStamp {
	return hostStamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown"
// where there is none).
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

// processCPU returns the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak-RSS (VmHWM) tracking of this
// process, so peakRSSMB can report one repetition's peak. Where the
// kernel refuses, peakRSSMB reports the peak over the process's life.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's peak resident set in MB (10^6 bytes):
// since the last resetPeakRSS, or over the process's life when the
// kernel's VmHWM cannot be read.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// stolenCPU returns the CPU time the hypervisor has taken from this
// machine's CPUs, summed over CPUs (the steal column of /proc/stat,
// which counts in USER_HZ = 100 ticks per second). It is 0 where the
// kernel does not report steal.
func stolenCPU() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseUint(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * (time.Second / 100)
}

// heapCounters are the Go runtime's cumulative allocation and GC
// counters; deltas over an iteration give its runtime-layer cost.
type heapCounters struct {
	allocBytes uint64
	gcCycles   uint32
	pauseNS    uint64
}

func readHeap() heapCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return heapCounters{allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC, pauseNS: ms.PauseTotalNs}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
