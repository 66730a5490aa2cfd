package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// usage is a point-in-time reading of the process's resource counters.
type usage struct {
	cpu      time.Duration // user + system CPU
	alloc    uint64        // runtime.MemStats.TotalAlloc
	numGC    uint32
	gcCPU    float64 // runtime/metrics GC CPU seconds (estimate)
	totalCPU float64 // runtime/metrics total CPU seconds (estimate)
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuSamples)
	return usage{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:    ms.TotalAlloc,
		numGC:    ms.NumGC,
		gcCPU:    cpuSamples[0].Value.Float64(),
		totalCPU: cpuSamples[1].Value.Float64(),
	}
}

// sub returns the usage accumulated between b and u.
func (u usage) sub(b usage) usage {
	return usage{
		cpu:      u.cpu - b.cpu,
		alloc:    u.alloc - b.alloc,
		numGC:    u.numGC - b.numGC,
		gcCPU:    u.gcCPU - b.gcCPU,
		totalCPU: u.totalCPU - b.totalCPU,
	}
}

func (u *usage) add(d usage) {
	u.cpu += d.cpu
	u.alloc += d.alloc
	u.numGC += d.numGC
	u.gcCPU += d.gcCPU
	u.totalCPU += d.totalCPU
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentile returns the highest of the reported percentiles that has at
// least ten samples beyond it among n samples, or 0 when none has.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 90, 95, 99, 99.9} {
		if float64(n)*(1-p/100) >= 10 {
			best = p
		}
	}
	return best
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
