package main

import (
	"testing"
	"time"
)

// fakeClock is a clock whose sleeps overshoot by a fixed amount.
type fakeClock struct {
	t         time.Time
	overshoot time.Duration
	slept     []time.Duration
}

func (c *fakeClock) now() time.Time { return c.t }
func (c *fakeClock) sleep(d time.Duration) {
	c.slept = append(c.slept, d)
	c.t = c.t.Add(d + c.overshoot)
}

func TestPacerDueTimesAndLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{t: start, overshoot: 30 * time.Microsecond}
	p := &pacer{start: start, interval: time.Millisecond, now: clk.now, sleep: clk.sleep}

	// Request 0 is due at once: no sleep, no lateness.
	due, late, slept := p.wait(0)
	if !due.Equal(start) || late != 0 || slept {
		t.Errorf("wait(0) = %v, %v, %v, want due at start, on time, no sleep", due.Sub(start), late, slept)
	}
	// Request 3 is due 3 ms in: the pacer sleeps the full gap and reports
	// the timer's overshoot as its own lateness.
	due, late, slept = p.wait(3)
	if due.Sub(start) != 3*time.Millisecond || late != 30*time.Microsecond || !slept {
		t.Errorf("wait(3) = %v, %v, %v, want 3ms, 30us late, slept", due.Sub(start), late, slept)
	}
	if len(clk.slept) != 1 || clk.slept[0] != 3*time.Millisecond {
		t.Errorf("slept %v, want one 3ms sleep", clk.slept)
	}
	// The sender then spends 5 ms on a slow request. Request 4 fell due
	// meanwhile: it goes out at once, its due time unchanged, and the wait
	// it suffered counts as latency (no coordinated omission) but not as the
	// generator's lateness.
	clk.t = clk.t.Add(5 * time.Millisecond)
	due, late, slept = p.wait(4)
	if due.Sub(start) != 4*time.Millisecond || slept {
		t.Errorf("wait(4) = due %v, slept %v, want due 4ms and no sleep", due.Sub(start), slept)
	}
	if want := clk.t.Sub(due); late != want || late < 4*time.Millisecond {
		t.Errorf("wait(4) lateness = %v, want %v", late, want)
	}
	if len(clk.slept) != 1 {
		t.Errorf("pacer slept for an overdue request: %v", clk.slept)
	}
}

func TestSummariseSeparatesGeneratorLateness(t *testing.T) {
	sec := int64(time.Second)
	var samples []sample
	for w := int64(0); w < 3; w++ {
		for i := int64(0); i < 100; i++ {
			due := w*sec + i*sec/100
			samples = append(samples,
				// a send the generator slept for, 40 us late, answered in 500 us
				sample{due: due, sent: due + 40_000, done: due + 540_000, slept: true},
				// a send that queued 3 ms behind a busy connection
				sample{due: due, sent: due + 3_000_000, done: due + 3_500_000},
			)
		}
	}
	st := summarise(samples, 200, 3*sec)
	if st.lateP99 != 40 {
		t.Errorf("generator lateness p99 = %v us, want 40 (queued sends are the system's backlog)", st.lateP99)
	}
	if st.p50 != 540 || st.p90 != 3500 || st.p99 != 3500 {
		t.Errorf("p50, p90, p99 = %v, %v, %v us, want 540, 3500, 3500 (latency counts from the due time)", st.p50, st.p90, st.p99)
	}
	if st.lateP50 != 40 {
		t.Errorf("generator lateness median = %v us, want 40", st.lateP50)
	}
	if st.maxMs != 3.5 {
		t.Errorf("max = %v ms, want 3.5", st.maxMs)
	}
}
