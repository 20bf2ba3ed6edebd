package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostSample is the host-side cost of one repetition.
type hostSample struct {
	wallS    float64
	cpuS     float64 // user+sys, whole process: GC work on the second core counts
	sysS     float64
	allocMB  float64 // MemStats.TotalAlloc delta
	mallocsK float64 // MemStats.Mallocs delta
	gcCycles uint32
	heapMB   float64 // HeapSys at the end of the rep
	peakMB   float64 // resident-set high-water mark of the rep
}

func rusage() (user, sys float64, maxRSSKB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime), tv(ru.Stime), ru.Maxrss
}

// resetPeakRSS returns the freed heap to the OS and restarts the kernel's
// resident-set high-water mark (clear_refs 5, Linux 4.0) at what is left, so
// the next reading is this repetition's own peak and not the largest of all
// repetitions so far, which no median could steady. Where the reset is not
// possible the mark stays the process's, as ru_maxrss is.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSKB is VmHWM of /proc/self/status, ru_maxrss where that is not
// readable.
func peakRSSKB() int64 {
	status, _ := os.ReadFile("/proc/self/status")
	if _, rest, ok := strings.Cut(string(status), "VmHWM:"); ok {
		if f := strings.Fields(rest); len(f) > 0 {
			if kb, err := strconv.ParseInt(f[0], 10, 64); err == nil {
				return kb
			}
		}
	}
	_, _, kb := rusage()
	return kb
}

// measure times fn. The collection before the clock starts (FreeOSMemory
// forces one) keeps the previous repetition's garbage out of this one's wall
// and CPU time.
func measure(fn func() error) (hostSample, error) {
	resetPeakRSS()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	u0, s0, _ := rusage()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0).Seconds()
	u1, s1, _ := rusage()
	runtime.ReadMemStats(&m1)
	return hostSample{
		wallS:    wall,
		cpuS:     (u1 - u0) + (s1 - s0),
		sysS:     s1 - s0,
		allocMB:  float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
		mallocsK: float64(m1.Mallocs-m0.Mallocs) / 1e3,
		gcCycles: m1.NumGC - m0.NumGC,
		heapMB:   float64(m1.HeapSys) / 1e6,
		peakMB:   float64(peakRSSKB()) / 1e3,
	}, err
}

// mainStart is when this package initialised, and ageAtStart how long the
// OS process had already existed by then, so runtime start-up and the
// package initialisation of every imported layer count towards setup_s.
var (
	mainStart  = time.Now()
	ageAtStart = procAge()
)

// sinceProcessStart is the wall time since the OS started this process.
func sinceProcessStart() float64 { return ageAtStart + time.Since(mainStart).Seconds() }

// procAge reads the process's age from /proc: field 22 of /proc/self/stat is
// the start time in clock ticks since boot (USER_HZ, 100 on Linux) and
// /proc/uptime is seconds since boot. 0 where /proc is not readable.
func procAge() float64 {
	stat, err1 := os.ReadFile("/proc/self/stat")
	up, err2 := os.ReadFile("/proc/uptime")
	if err1 != nil || err2 != nil {
		return 0
	}
	// The command name (field 2) may contain spaces; the fields after its
	// closing parenthesis are well formed.
	i := strings.LastIndexByte(string(stat), ')')
	if i < 0 {
		return 0
	}
	f, uf := strings.Fields(string(stat)[i+1:]), strings.Fields(string(up))
	if len(f) < 20 || len(uf) == 0 {
		return 0
	}
	ticks, e1 := strconv.ParseFloat(f[19], 64)
	uptime, e2 := strconv.ParseFloat(uf[0], 64)
	if age := uptime - ticks/100; e1 == nil && e2 == nil && age > 0 {
		return age
	}
	return 0
}
