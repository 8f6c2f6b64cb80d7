package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted,
// which must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle of xs (mean of the two middles when even).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// perWindow cuts the phase into windows by each sample's due time and
// returns every full window's p-quantile latency. With fewer than two full
// windows the whole phase is one window.
func perWindow(dueNs []int64, lat []float64, p float64, windowNs, phaseNs int64) []float64 {
	full := int(phaseNs / windowNs)
	if full < 2 {
		return []float64{percentile(sortedCopy(lat), p)}
	}
	buckets := make([][]float64, full)
	for i, d := range dueNs {
		if w := int(d / windowNs); w >= 0 && w < full {
			buckets[w] = append(buckets[w], lat[i])
		}
	}
	var qs []float64
	for _, b := range buckets {
		if len(b) > 0 {
			sort.Float64s(b)
			qs = append(qs, percentile(b, p))
		}
	}
	return qs
}

// lowerQuartile returns the nearest-rank first quartile of xs. Tail latency
// is summarised with it across windows: a stall of the shared host lifts the
// p99 of the seconds it hits, a slow code path lifts the p99 of every
// second, so the quieter quarter of windows shows the code and not the host.
func lowerQuartile(xs []float64) float64 {
	return percentile(sortedCopy(xs), 0.25)
}

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(xs, n=4)
// does (exclusive method); the driver judges spread with the same formula.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	m := len(s)
	if m < 2 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// procCPU parses the contents of /proc/<pid>/stat into the process's CPU
// time (utime+stime) in clock ticks. The command name may hold spaces and
// parentheses, so fields are counted from the last ')'.
func procCPU(stat []byte) (ticks int64, err error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	f := bytes.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command, want >= 13", len(f))
	}
	u, err := strconv.ParseInt(string(f[11]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	s, err := strconv.ParseInt(string(f[12]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return u + s, nil
}

// procPeakRSS parses the contents of /proc/<pid>/status into the peak
// resident set (VmHWM) in megabytes.
func procPeakRSS(status []byte) (mb float64, err error) {
	for _, line := range bytes.Split(status, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := bytes.Fields(rest)
			if len(f) != 2 || string(f[1]) != "kB" {
				return 0, fmt.Errorf("proc status: malformed VmHWM line %q", line)
			}
			kb, err := strconv.ParseInt(string(f[0]), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("proc status VmHWM: %w", err)
			}
			return float64(kb) / 1024, nil
		}
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// clockTick is Linux's USER_HZ: /proc reports CPU time in 10 ms ticks on
// every supported architecture.
const clockTick = 10 * 1000 // microseconds

// cpuMicros reads pid's CPU time so far in microseconds.
func cpuMicros(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	t, err := procCPU(b)
	return t * clockTick, err
}

// peakRSSMB reads pid's peak resident set in megabytes.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return procPeakRSS(b)
}
