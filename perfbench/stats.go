package main

import (
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

// samples keeps every observation of one quantity, so percentiles and the
// maximum are exact rather than bucket edges.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

func (s *samples) addDur(d time.Duration, unit time.Duration) {
	*s = append(*s, float64(d)/float64(unit))
}

// summary is the sorted view of a sample set.
type summary struct {
	sorted []float64
}

func summarize(s samples) summary {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return summary{sorted: c}
}

// n is the sample count.
func (s summary) n() int { return len(s.sorted) }

// q returns the q-quantile by the nearest-rank rule: the smallest sample
// with at least a q share of the samples at or below it. It returns 0 for
// an empty set.
func (s summary) q(q float64) float64 {
	n := len(s.sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s.sorted[rank-1]
}

func (s summary) max() float64 {
	if len(s.sorted) == 0 {
		return 0
	}
	return s.sorted[len(s.sorted)-1]
}

// median is the mean of the two middle values for an even count, which
// keeps a two-sample median from reading as one of the two.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	m := len(c) / 2
	if len(c)%2 == 1 {
		return c[m]
	}
	return (c[m-1] + c[m]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// goSnap is the Go runtime's cumulative cost: CPU time of the process,
// bytes allocated and GC pause time.
type goSnap struct {
	cpu, alloc, pause float64 // µs, bytes, ms
}

func readGo() goSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return goSnap{
		cpu:   float64(cpu) / float64(time.Microsecond),
		alloc: float64(ms.TotalAlloc),
		pause: float64(ms.PauseTotalNs) / 1e6,
	}
}

func (s goSnap) sub(o goSnap) goSnap {
	return goSnap{cpu: s.cpu - o.cpu, alloc: s.alloc - o.alloc, pause: s.pause - o.pause}
}

// report sets the go layer's metrics for a phase that completed ops
// operations.
func (s goSnap) report(rep *report, ops float64) {
	rep.set("go.cpu_us_per_op", ratio(s.cpu, ops))
	rep.set("go.alloc_bytes_per_op", ratio(s.alloc, ops))
	rep.set("go.gc_pause_ms", s.pause)
}

// fmtList formats each value with format, space-separated.
func fmtList(v []float64, format string) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}

// cpuTicks is the machine's CPU time from the first line of /proc/stat, in
// clock ticks summed over all CPUs.
type cpuTicks struct{ total, steal float64 }

// readCPUTicks returns zero ticks when /proc/stat cannot be read, which
// makes every steal share 0.
func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var t cpuTicks
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice],
	// where guest time is already counted in user.
	for i, f := range strings.Fields(line) {
		x, err := strconv.ParseFloat(f, 64)
		if err != nil || i < 1 || i > 8 {
			continue
		}
		t.total += x
		if i == 8 {
			t.steal = x
		}
	}
	return t
}

// stealFrac is the share of the CPU time since prev that the hypervisor
// gave to other guests.
func (t cpuTicks) stealFrac(prev cpuTicks) float64 {
	return ratio(t.steal-prev.steal, t.total-prev.total)
}

// quiet reports whether window i is among the less stolen half of the
// windows: its steal share is at most the median window's. When steal is
// even, every window is quiet.
func quiet(steal []float64, i int) bool { return steal[i] <= median(steal) }
