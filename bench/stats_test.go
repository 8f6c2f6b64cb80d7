package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileAndMedian(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.99, 99}, {0.999, 100}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median(5,1,3) = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
}

func TestPerWindowIgnoresOneBadWindow(t *testing.T) {
	// Five one-second windows of 100 samples at 10 us; the third window has
	// a stall that lifts its tail to 5000 us.
	var due []int64
	var lat []float64
	for w := 0; w < 5; w++ {
		for i := 0; i < 100; i++ {
			due = append(due, int64(w)*int64(time.Second)+int64(i)*int64(10*time.Millisecond))
			v := 10.0
			if w == 2 && i >= 90 {
				v = 5000
			}
			lat = append(lat, v)
		}
	}
	p99s := perWindow(due, lat, 0.99, int64(time.Second), 5*int64(time.Second))
	if len(p99s) != 5 || p99s[2] != 5000 || p99s[0] != 10 {
		t.Fatalf("per-window p99 = %v, want 10 everywhere but 5000 in the third", p99s)
	}
	if median(p99s) != 10 || lowerQuartile(p99s) != 10 {
		t.Errorf("median %v, lower quartile %v: one stalled window must not move either", median(p99s), lowerQuartile(p99s))
	}
	// The whole-phase p99 does see the stall: that is the difference.
	if got := percentile(sortedCopy(lat), 0.99); got != 5000 {
		t.Errorf("whole-phase p99 = %v, want 5000", got)
	}
	// Samples due in the partial last window are left out.
	due = append(due, 5*int64(time.Second)+1)
	lat = append(lat, 1e9)
	if got := perWindow(due, lat, 0.99, int64(time.Second), 5*int64(time.Second)+2); len(got) != 5 || got[4] != 10 {
		t.Errorf("partial window leaked into the result: %v", got)
	}
	// Under two full windows the whole phase is one window.
	if got := perWindow(due[:100], lat[:100], 0.5, int64(time.Second), int64(time.Second)); len(got) != 1 || got[0] != 10 {
		t.Errorf("single-window fallback = %v, want [10]", got)
	}
	// A slow code path lifts every window, and then the lower quartile moves.
	if got := lowerQuartile([]float64{900, 800, 1000, 850, 5000, 870}); got != 850 {
		t.Errorf("lowerQuartile = %v, want 850", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q3 != 4.5 {
		t.Errorf("quartiles(3,1,4,1,5) = %v, %v, want 1, 4.5", q1, q3)
	}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestProcParsing(t *testing.T) {
	// A command name with spaces and a ')' must not shift the fields.
	stat := []byte("4242 (querc d) x) S 1 4242 4242 0 -1 4194560 1500 0 0 0 731 269 0 0 20 0 9 0 123456 1000000 2000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n")
	ticks, err := procCPU(stat)
	if err != nil || ticks != 1000 {
		t.Errorf("procCPU = %d, %v, want utime 731 + stime 269 = 1000", ticks, err)
	}
	if _, err := procCPU([]byte("4242 quercd S 1")); err == nil {
		t.Error("procCPU accepted a stat line without a command field")
	}
	if _, err := procCPU([]byte("4242 (quercd) S 1 2 3")); err == nil {
		t.Error("procCPU accepted a truncated stat line")
	}
	status := []byte("Name:\tquercd\nVmPeak:\t 2000000 kB\nVmHWM:\t  663552 kB\nVmRSS:\t  600000 kB\n")
	mb, err := procPeakRSS(status)
	if err != nil || mb != 648 {
		t.Errorf("procPeakRSS = %v, %v, want 648", mb, err)
	}
	if _, err := procPeakRSS([]byte("Name:\tquercd\n")); err == nil {
		t.Error("procPeakRSS accepted a status file without VmHWM")
	}
	if _, err := procPeakRSS([]byte("VmHWM:\t12 MB\n")); err == nil {
		t.Error("procPeakRSS accepted a VmHWM line that is not in kB")
	}
}

func TestSliceMedians(t *testing.T) {
	slices := []slice{
		{seconds: 0.5, queries: 1000, cpuUs: 300000, speed: 1},
		{seconds: 1.0, queries: 1000, cpuUs: 600000, speed: 0.5}, // the box at half speed
		{seconds: 0.5, queries: 100, cpuUs: 60000, speed: 1},     // a stall no burst saw
		{seconds: 0.5, queries: 1100, cpuUs: 330000, speed: 1},
		{seconds: 0.5, queries: 0, cpuUs: 0, speed: 1}, // nothing completed: left out
	}
	qps, cpu, speed := sliceMedians(slices)
	// Scaled to reference speed the half-speed slice reads 2000 q/s, 300 us.
	if qps != 2000 || cpu != 300 || speed != 1 {
		t.Errorf("sliceMedians = %v q/s, %v us, speed %v, want 2000, 300, 1", qps, cpu, speed)
	}
}

func TestMeasureSlices(t *testing.T) {
	var cpu int64
	var got [][2]int
	slices := measureSlices(10, 4, func(first, k int) int64 {
		got = append(got, [2]int{first, k})
		cpu += int64(100 * k)
		return int64(2 * k)
	}, func() int64 { return cpu })
	if len(got) != 3 || got[0] != [2]int{0, 4} || got[1] != [2]int{4, 4} || got[2] != [2]int{8, 2} {
		t.Fatalf("slices ran as %v, want [0,4) [4,8) [8,10)", got)
	}
	for i, s := range slices {
		if s.queries != int64(2*got[i][1]) || s.cpuUs != int64(100*got[i][1]) || s.speed <= 0 || s.seconds <= 0 {
			t.Errorf("slice %d = %+v", i, s)
		}
	}
}
