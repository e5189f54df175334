package main

import (
	"math"
	"math/bits"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// hist is a log-linear histogram of non-negative nanosecond values:
// exact below 64, then 64 buckets per power of two (under 1.6%
// relative error), with quantiles interpolated inside a bucket. It
// never grows, so a run of any length records every sample.
type hist struct {
	n       uint64
	buckets [64 + 58*64]uint64
}

func histIndex(v int64) int {
	if v < 64 {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 7
	return 64 + e*64 + int(uint64(v)>>uint(e)) - 64
}

// histBounds returns the lower bound and width of bucket i >= 64.
func histBounds(i int) (lo, width float64) {
	e := (i - 64) / 64
	return float64(uint64(64+(i-64)%64) << uint(e)), float64(uint64(1) << uint(e))
}

func (h *hist) observe(v int64) {
	h.n++
	h.buckets[histIndex(v)]++
}

// quantile returns the q-quantile by nearest rank and whether it may be
// reported: a percentile is reported only when at least ten samples
// lie beyond its rank.
func (h *hist) quantile(q float64) (float64, bool) {
	rank, ok := quantileRank(h.n, q)
	if rank == 0 {
		return 0, false
	}
	var seen uint64
	for i, c := range h.buckets {
		if seen+c >= rank {
			if i < 64 {
				return float64(i), ok
			}
			// Spread the bucket's samples evenly across its width.
			lo, width := histBounds(i)
			return lo + width*(float64(rank-seen)-0.5)/float64(c), ok
		}
		seen += c
	}
	return 0, false
}

// quantileRank returns the 1-based nearest rank of the q-quantile of n
// samples, and whether at least ten samples lie beyond it.
func quantileRank(n uint64, q float64) (uint64, bool) {
	if n == 0 {
		return 0, false
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank, n-rank >= 10
}

// processCPUTime returns the process's user+system CPU time
// (getrusage(RUSAGE_SELF), exact to the microsecond).
func processCPUTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error()) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3

// threadCPUTime returns the calling OS thread's CPU time. It reads
// CLOCK_THREAD_CPUTIME_ID, which is exact: getrusage(RUSAGE_THREAD)
// reports the same quantity, but on kernels with tick-based accounting
// only in whole scheduler ticks (4 ms on the 2-vCPU VM the benchmark
// was tuned on), coarser than an open-loop window's generator CPU.
func threadCPUTime() time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("clock_gettime: " + e.Error()) // a fixed, always-present clock
	}
	return time.Duration(ts.Nano())
}

// peakRSSMB returns the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// interquartileMean returns the mean of the middle half of xs, the
// values from the first to the third quartile (xs is reordered). It
// keeps a capture cost steady against the few calls a shared host
// preempts or interrupts, which would otherwise move the mean by more
// than any change in the capture path.
func interquartileMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	mid := xs[len(xs)/4 : len(xs)-len(xs)/4]
	sum := 0.0
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
