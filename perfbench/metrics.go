package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// metric is one reported figure: its value, unit and the number of
// samples behind it.
type metric struct {
	Value float64
	Unit  string
	N     int
}

// metricSet maps metric names to values.
type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64, n int) {
	m[name] = metric{Value: v, Unit: unit, N: n}
}

// merge copies every metric of o into m.
func (m metricSet) merge(o metricSet) {
	for k, v := range o {
		m[k] = v
	}
}

// dist sets name.p50 and name.p90 from samples.
func (m metricSet) dist(name, unit string, xs []float64) {
	m.set(name+".p50", unit, quantile(xs, 0.5), len(xs))
	m.set(name+".p90", unit, quantile(xs, 0.9), len(xs))
}

// ratio sets name to num/den, or 0 when den is 0.
func (m metricSet) ratio(name string, num, den float64, n int) {
	m.per(name, "ratio", num, den, n)
}

// per sets name to num/den in unit, or 0 when den is 0.
func (m metricSet) per(name, unit string, num, den float64, n int) {
	v := 0.0
	if den > 0 {
		v = num / den
	}
	m.set(name, unit, v, n)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// sliceQuantile is the median over subWindows equal slices of xs, taken
// in completion order, of each slice's q-quantile: a run's latency that a
// stall of the host confined to part of the run moves less than the
// quantile over all samples. With fewer than 3 samples per slice it is
// the plain quantile.
func sliceQuantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n < 3*subWindows {
		return quantile(xs, q)
	}
	qs := make([]float64, subWindows)
	for i := range qs {
		qs[i] = quantile(xs[i*n/subWindows:(i+1)*n/subWindows], q)
	}
	return quantile(qs, 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// liveHeapMB is the heap still reachable after a forced collection, in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// checker counts correctness checks and their failures.
type checker struct {
	mu     sync.Mutex
	run    int
	failed int
	first  []string
}

// check records one check; msg describes a failure.
func (c *checker) check(ok bool, format string, args ...any) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.run++
	if !ok {
		c.failed++
		if len(c.first) < 5 {
			c.first = append(c.first, fmt.Sprintf(format, args...))
		}
	}
	return ok
}
