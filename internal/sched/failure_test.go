package sched

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"querc/internal/core"
)

// runAndDrain enqueues qs, closes, drains, and returns the final stats.
func runAndDrain(t *testing.T, d *Dispatcher, qs []*core.LabeledQuery) Snapshot {
	t.Helper()
	for _, q := range qs {
		if err := d.Enqueue(q); err != nil {
			t.Fatalf("Enqueue(%s): %v", q.SQL, err)
		}
	}
	d.Close()
	if err := d.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	return d.Stats()
}

// TestRetryRecoversTransientFailure: an executor that fails every first
// attempt succeeds on retry — queries complete, none fail, and the retried
// task reaches OnDone with its cumulative attempt count and original
// Submitted timestamp.
func TestRetryRecoversTransientFailure(t *testing.T) {
	transient := errors.New("transient")
	exec := func(task *Task) error {
		if task.Attempt == 1 {
			return transient
		}
		return nil
	}
	col := &doneCollector{}
	d, err := New(Config{
		Backends: []Backend{{Name: "b1", Slots: 1, Exec: exec}},
		Retry: &RetryConfig{
			MaxRetries:  2,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  2 * time.Millisecond,
			BudgetFloor: 100, // every query may retry in this test
		},
		OnDone: col.hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	var qs []*core.LabeledQuery
	for i := 0; i < 20; i++ {
		qs = append(qs, labeled(fmt.Sprintf("q%02d", i), "", ""))
	}
	st := runAndDrain(t, d, qs)
	if st.Completed != 20 || st.Failed != 0 {
		t.Fatalf("Completed=%d Failed=%d, want 20/0", st.Completed, st.Failed)
	}
	if st.Retries != 20 {
		t.Errorf("Retries = %d, want 20 (one per query)", st.Retries)
	}
	col.mu.Lock()
	defer col.mu.Unlock()
	for _, task := range col.tasks {
		if task.Err != nil {
			t.Errorf("%s delivered with error %v", task.Query.SQL, task.Err)
		}
		if task.Attempt != 2 {
			t.Errorf("%s delivered on attempt %d, want 2", task.Query.SQL, task.Attempt)
		}
		if task.Submitted.IsZero() || task.Latency() <= 0 {
			t.Errorf("%s lost its original Submitted timestamp across the retry", task.Query.SQL)
		}
	}
}

// TestPermanentErrorNeverRetries: Permanent fails terminally without
// consuming retry budget.
func TestPermanentErrorNeverRetries(t *testing.T) {
	var attempts atomic.Int64
	exec := func(task *Task) error {
		attempts.Add(1)
		return Permanent(errors.New("bad query"))
	}
	d, err := New(Config{
		Backends: []Backend{{Name: "b1", Slots: 1, Exec: exec}},
		Retry:    &RetryConfig{MaxRetries: 3, BaseBackoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := runAndDrain(t, d, []*core.LabeledQuery{labeled("q1", "", "")})
	if st.Failed != 1 || st.Retries != 0 {
		t.Fatalf("Failed=%d Retries=%d, want 1/0", st.Failed, st.Retries)
	}
	if attempts.Load() != 1 {
		t.Fatalf("executor ran %d times, want 1", attempts.Load())
	}
}

// TestRetryBudgetExhaustion: a class that burns past Budget×admitted +
// BudgetFloor stops retrying and fails terminally, counted in RetryStarved.
func TestRetryBudgetExhaustion(t *testing.T) {
	exec := func(task *Task) error { return errors.New("always down") }
	d, err := New(Config{
		Backends: []Backend{{Name: "b1", Slots: 2, Exec: exec}},
		Retry: &RetryConfig{
			MaxRetries:  5,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  2 * time.Millisecond,
			Budget:      0.1,
			BudgetFloor: 3,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var qs []*core.LabeledQuery
	for i := 0; i < 30; i++ {
		qs = append(qs, labeled(fmt.Sprintf("q%02d", i), "", ""))
	}
	st := runAndDrain(t, d, qs)
	if st.Failed != 30 {
		t.Fatalf("Failed = %d, want 30", st.Failed)
	}
	// Budget: 0.1×30 + 3 = 6 retries total, nowhere near 30×5.
	if st.Retries > 6 {
		t.Errorf("Retries = %d, want <= 6 (budget cap)", st.Retries)
	}
	if st.RetryStarved == 0 {
		t.Error("RetryStarved = 0, want > 0 once the budget ran dry")
	}
}

// TestDeadlineCancelsAttempt: an executor that honors Task.Context is cut
// off at the execution deadline and the task fails terminally (no retry past
// the deadline) with DeadlineExceeded accounted.
func TestDeadlineCancelsAttempt(t *testing.T) {
	exec := func(task *Task) error {
		select {
		case <-task.Context().Done():
			return task.Context().Err()
		case <-time.After(5 * time.Second):
			return nil
		}
	}
	d, err := New(Config{
		Backends: []Backend{{Name: "b1", Slots: 1, Exec: exec}},
		Deadline: 20 * time.Millisecond,
		Retry:    &RetryConfig{MaxRetries: 3, BaseBackoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	st := runAndDrain(t, d, []*core.LabeledQuery{labeled("q1", "", "")})
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("deadline did not cut the attempt short (took %v)", took)
	}
	if st.Failed != 1 {
		t.Fatalf("Failed = %d, want 1", st.Failed)
	}
	if st.DeadlineExceeded == 0 {
		t.Error("DeadlineExceeded = 0, want > 0")
	}
	if st.Retries != 0 {
		t.Errorf("Retries = %d, want 0 — a deadline-expired failure must not retry", st.Retries)
	}
}

// TestAttemptTimeoutRetriesHang: AttemptTimeout converts a hang into a
// retriable failure while deadline budget remains — the second attempt lands
// on time and the query completes.
func TestAttemptTimeoutRetriesHang(t *testing.T) {
	exec := func(task *Task) error {
		if task.Attempt == 1 {
			<-task.Context().Done() // hang until cancelled
			return task.Context().Err()
		}
		return nil
	}
	d, err := New(Config{
		Backends: []Backend{{Name: "b1", Slots: 1, Exec: exec}},
		Deadline: 10 * time.Second,
		Retry: &RetryConfig{
			MaxRetries:     2,
			BaseBackoff:    time.Millisecond,
			MaxBackoff:     2 * time.Millisecond,
			AttemptTimeout: 20 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := runAndDrain(t, d, []*core.LabeledQuery{labeled("q1", "", "")})
	if st.Completed != 1 || st.Failed != 0 {
		t.Fatalf("Completed=%d Failed=%d, want 1/0", st.Completed, st.Failed)
	}
	if st.Retries != 1 {
		t.Errorf("Retries = %d, want 1", st.Retries)
	}
}

// TestHedgeWinsStraggler: whichever backend runs the original straggles;
// the hedge clone is steered to the other backend and delivers first —
// exactly one OnDone for the query, hedge win accounted, the straggler
// cancelled and discarded.
func TestHedgeWinsStraggler(t *testing.T) {
	// Originals straggle on any backend; hedge clones finish instantly. This
	// keeps the test independent of which worker picks the original first.
	exec := func(task *Task) error {
		if task.Hedge {
			return nil
		}
		select {
		case <-task.Context().Done():
			return task.Context().Err()
		case <-time.After(2 * time.Second):
			return nil
		}
	}
	var done atomic.Int64
	var hedgeDelivered atomic.Int64
	d, err := New(Config{
		Backends: []Backend{
			{Name: "b1", Slots: 1, Exec: exec},
			{Name: "b2", Slots: 1, Exec: exec},
		},
		Hedge: &HedgeConfig{After: 5 * time.Millisecond, Budget: 1, BudgetFloor: 8},
		OnDone: func(task *Task) {
			done.Add(1)
			if task.Hedge {
				hedgeDelivered.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Close would cancel the pending hedge timer, so wait for the hedge to
	// win before shutting down.
	if err := d.Enqueue(labeled("q1", "", "")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for d.Counters().Completed < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("query never completed: %+v", d.Counters())
		}
		time.Sleep(time.Millisecond)
	}
	d.Close()
	if err := d.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Completed != 1 || st.Failed != 0 {
		t.Fatalf("Completed=%d Failed=%d, want 1/0", st.Completed, st.Failed)
	}
	if done.Load() != 1 {
		t.Fatalf("OnDone fired %d times, want exactly 1", done.Load())
	}
	if st.Hedges == 0 || st.HedgeWins == 0 || hedgeDelivered.Load() == 0 {
		t.Errorf("Hedges=%d HedgeWins=%d delivered-by-hedge=%d, want all > 0",
			st.Hedges, st.HedgeWins, hedgeDelivered.Load())
	}
	if st.HedgeWaste == 0 {
		t.Error("HedgeWaste = 0, want the cancelled original accounted as waste")
	}
}

// TestBreakerOpensAndSteersAway: a backend that starts failing everything
// trips its breaker; subsequent work runs on the healthy backend while the
// sick one sits open.
func TestBreakerOpensAndSteersAway(t *testing.T) {
	var sickMode atomic.Bool
	sickMode.Store(true)
	sick := func(task *Task) error {
		if sickMode.Load() {
			return errors.New("backend down")
		}
		return nil
	}
	// A touch of service time keeps the healthy worker from spin-stealing
	// every sick-affinity task before the sick worker ever runs one.
	healthy := func(task *Task) error { return sleepCtx(task, 2*time.Millisecond) }
	d, err := New(Config{
		Policy: &LabelPolicy{},
		Backends: []Backend{
			{Name: "sick", Slots: 1, Exec: sick},
			{Name: "ok", Slots: 1, Exec: healthy},
		},
		Retry:   &RetryConfig{MaxRetries: 2, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond, BudgetFloor: 1000},
		Breaker: &BreakerConfig{Alpha: 0.5, ErrThreshold: 0.5, MinSamples: 3, OpenFor: 10 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Pin enough work to the sick backend to trip its breaker (the healthy
	// backend steals some of it, so oversubscribe).
	for i := 0; i < 20; i++ {
		if err := d.Enqueue(labeled(fmt.Sprintf("sick%02d", i), "", "sick")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st := d.Stats(); st.BreakerOpen >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never opened: %+v", d.Counters())
		}
		time.Sleep(2 * time.Millisecond)
	}
	// With the breaker open, unaffined work must run on the healthy backend.
	for i := 0; i < 10; i++ {
		if err := d.Enqueue(labeled(fmt.Sprintf("after%02d", i), "", "")); err != nil {
			t.Fatal(err)
		}
	}
	// Let the steering finish before Close: Close bypasses the breaker gate
	// (so drains cannot wedge on an open backend), which would let the sick
	// worker eat whatever is still queued.
	deadline = time.Now().Add(10 * time.Second)
	for {
		if st := d.Stats(); st.Completed+st.Failed == 30 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("work never finished: %+v", d.Counters())
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.Close()
	if err := d.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	var okDone uint64
	for _, b := range st.Backends {
		if b.Name == "ok" {
			okDone = b.Completed
		}
		if b.Name == "sick" && b.BreakerOpens == 0 {
			t.Error("sick backend's breaker never opened")
		}
	}
	if okDone < 10 {
		t.Errorf("healthy backend completed %d, want >= the 10 post-open tasks", okDone)
	}
}

// TestBreakerHalfOpenRecovery: after OpenFor, probes on a healed backend
// close the breaker and regular dispatch resumes.
func TestBreakerHalfOpenRecovery(t *testing.T) {
	var sickMode atomic.Bool
	sickMode.Store(true)
	exec := func(task *Task) error {
		if sickMode.Load() {
			return errors.New("backend down")
		}
		return nil
	}
	d, err := New(Config{
		Backends: []Backend{{Name: "b1", Slots: 1, Exec: exec}},
		Breaker: &BreakerConfig{
			ErrThreshold:    0.5,
			MinSamples:      4,
			OpenFor:         10 * time.Millisecond,
			Probes:          1,
			ProbeSuccesses:  2,
			QuarantineAfter: 100, // keep flapping out of this test
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := d.Enqueue(labeled(fmt.Sprintf("q%02d", i), "", "")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st := d.Stats(); st.BreakerOpen >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never opened: %+v", d.Counters())
		}
		time.Sleep(2 * time.Millisecond)
	}
	sickMode.Store(false) // the backend heals while the breaker is open
	// Feed probe fodder until the half-open probes close the breaker.
	deadline = time.Now().Add(10 * time.Second)
	for i := 0; ; i++ {
		if st := d.Stats(); st.Backends[0].Breaker == BreakerClosed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never closed after healing: %+v", d.Stats().Backends[0])
		}
		if err := d.Enqueue(labeled(fmt.Sprintf("heal%03d", i), "", "")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.Close()
	if err := d.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Backends[0].Breaker != BreakerClosed {
		t.Errorf("breaker = %s after healthy probes, want closed", st.Backends[0].Breaker)
	}
	if st.Completed < 2 {
		t.Errorf("Completed = %d, want >= the recovery probes", st.Completed)
	}
}

// TestBreakerQuarantinesFlapper: a backend that keeps re-tripping within the
// flap window lands in quarantine.
func TestBreakerQuarantinesFlapper(t *testing.T) {
	exec := func(task *Task) error { return errors.New("permanently sick") }
	d, err := New(Config{
		Backends: []Backend{{Name: "b1", Slots: 1, Exec: exec}},
		Breaker: &BreakerConfig{
			ErrThreshold:    0.5,
			MinSamples:      2,
			OpenFor:         2 * time.Millisecond,
			Probes:          1,
			ProbeSuccesses:  1,
			QuarantineAfter: 2,
			QuarantineFor:   10 * time.Second,
			FlapWindow:      time.Minute,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var qs []*core.LabeledQuery
	for i := 0; i < 20; i++ {
		qs = append(qs, labeled(fmt.Sprintf("q%02d", i), "", ""))
	}
	for _, q := range qs {
		if err := d.Enqueue(q); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := d.Stats()
		if st.Quarantined >= 1 {
			if st.Backends[0].Breaker != BreakerQuarantined {
				t.Errorf("breaker state = %s, want quarantined", st.Backends[0].Breaker)
			}
			if st.Backends[0].Quarantines == 0 {
				t.Error("quarantine counter never moved")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("backend never quarantined: %+v", d.Counters())
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.Close()
	if err := d.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestCloseDrainsPendingRetries: a retry parked in a long backoff at Close
// collapses to an immediate requeue and completes during Drain — no retry
// fires after Drain returns, and none is lost.
func TestCloseDrainsPendingRetries(t *testing.T) {
	transient := errors.New("transient")
	started := make(chan struct{}, 1)
	exec := func(task *Task) error {
		if task.Attempt == 1 {
			select {
			case started <- struct{}{}:
			default:
			}
			return transient
		}
		return nil
	}
	var done atomic.Int64
	d, err := New(Config{
		Backends: []Backend{{Name: "b1", Slots: 1, Exec: exec}},
		// A backoff far longer than the test: only Close's collapse can
		// requeue it in time.
		Retry:  &RetryConfig{MaxRetries: 1, BaseBackoff: time.Hour, MaxBackoff: time.Hour},
		OnDone: func(*Task) { done.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Enqueue(labeled("q1", "", "")); err != nil {
		t.Fatal(err)
	}
	<-started // first attempt has failed or is about to
	// Give the failure path a moment to park the retry.
	deadline := time.Now().Add(5 * time.Second)
	for d.Counters().PendingRetries == 0 {
		if time.Now().After(deadline) {
			t.Fatal("retry never parked")
		}
		time.Sleep(time.Millisecond)
	}
	d.Close()
	if err := d.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.PendingRetries != 0 {
		t.Fatalf("PendingRetries = %d after Drain, want 0", st.PendingRetries)
	}
	if st.Completed != 1 || done.Load() != 1 {
		t.Fatalf("Completed=%d OnDone=%d, want 1/1 — the parked retry must finish during Drain",
			st.Completed, done.Load())
	}
}

// TestFailurePlaneOffKeepsOldSemantics: without retry/hedge/deadline config,
// an errored execution is a terminal failure and nothing allocates
// completion state — the plain plane's ledger splits errors into Failed.
func TestFailurePlaneOffKeepsOldSemantics(t *testing.T) {
	execErr := errors.New("boom")
	exec := func(task *Task) error {
		if task.Query.SQL == "bad" {
			return execErr
		}
		return nil
	}
	col := &doneCollector{}
	d, err := New(Config{
		Backends: []Backend{{Name: "b1", Slots: 1, Exec: exec}},
		OnDone:   col.hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := runAndDrain(t, d, []*core.LabeledQuery{
		labeled("good", "", ""),
		labeled("bad", "", ""),
	})
	if st.Completed != 1 || st.Failed != 1 {
		t.Fatalf("Completed=%d Failed=%d, want 1/1", st.Completed, st.Failed)
	}
	col.mu.Lock()
	defer col.mu.Unlock()
	var sawErr bool
	for _, task := range col.tasks {
		if task.state != nil {
			t.Errorf("%s carries taskState with the failure plane off", task.Query.SQL)
		}
		if task.Err != nil {
			sawErr = true
			if !errors.Is(task.Err, execErr) {
				t.Errorf("failed task delivered with %v, want the executor error", task.Err)
			}
		}
	}
	if !sawErr {
		t.Error("OnDone never saw the failed task")
	}
}

// TestAttemptContext pins the lazy attempt context: its deadline is
// reported and enforced by Err without anyone watching Done, Done closes at
// the deadline once watched, a context cancelled before Done is first called
// hands back a closed channel, and a hedge winner cancels the losing attempt
// with context.Canceled.
func TestAttemptContext(t *testing.T) {
	t.Run("deadline", func(t *testing.T) {
		dl := time.Now().Add(time.Hour)
		c := &attemptCtx{deadline: dl}
		if got, ok := c.Deadline(); !ok || !got.Equal(dl) {
			t.Fatalf("Deadline() = %v, %v; want %v, true", got, ok, dl)
		}
		if _, ok := (&attemptCtx{}).Deadline(); ok {
			t.Fatal("a context with no deadline reports one")
		}
		if err := c.Err(); err != nil {
			t.Fatalf("Err() before the deadline = %v, want nil", err)
		}
	})
	t.Run("err past deadline, Done never called", func(t *testing.T) {
		c := &attemptCtx{deadline: time.Now().Add(-time.Millisecond)}
		if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Err() past the deadline = %v, want DeadlineExceeded", err)
		}
		select {
		case <-c.Done():
		default:
			t.Fatal("Done() after an expired Err() is open")
		}
	})
	t.Run("done closes at deadline once watched", func(t *testing.T) {
		c := &attemptCtx{deadline: time.Now().Add(20 * time.Millisecond)}
		done := c.Done()
		if c.Done() != done {
			t.Fatal("Done() returned a different channel on the second call")
		}
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("Done() never closed at the deadline")
		}
		if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Err() after Done closed = %v, want DeadlineExceeded", err)
		}
		c.cancel(context.Canceled) // releases nothing twice, keeps the first cause
		if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Err() after a late cancel = %v, want DeadlineExceeded kept", err)
		}
	})
	t.Run("cancelled before Done", func(t *testing.T) {
		c := &attemptCtx{deadline: time.Now().Add(time.Hour)}
		c.cancel(context.Canceled)
		select {
		case <-c.Done():
		default:
			t.Fatal("Done() of a cancelled context is open")
		}
		if err := c.Err(); !errors.Is(err, context.Canceled) {
			t.Fatalf("Err() = %v, want Canceled", err)
		}
	})
	t.Run("derived context sees cancellation", func(t *testing.T) {
		c := &attemptCtx{}
		child, stop := context.WithCancel(c)
		defer stop()
		c.cancel(context.Canceled)
		select {
		case <-child.Done():
		case <-time.After(10 * time.Second):
			t.Fatal("a context derived from the attempt never saw its cancel")
		}
	})
	t.Run("hedge winner cancels loser", func(t *testing.T) {
		loserErr := make(chan error, 1)
		exec := func(task *Task) error {
			if task.Hedge {
				return nil
			}
			<-task.Context().Done() // straggle until the hedge wins
			loserErr <- task.Context().Err()
			return task.Context().Err()
		}
		d, err := New(Config{
			Backends: []Backend{{Name: "b1", Slots: 1, Exec: exec}, {Name: "b2", Slots: 1, Exec: exec}},
			Deadline: time.Minute,
			Hedge:    &HedgeConfig{After: 5 * time.Millisecond, Budget: 1, BudgetFloor: 8},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Enqueue(labeled("q1", "", "")); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-loserErr:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("losing attempt's context ended with %v, want Canceled", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("the straggling original was never cancelled")
		}
		d.Close()
		if err := d.Drain(30 * time.Second); err != nil {
			t.Fatal(err)
		}
		if st := d.Counters(); st.Completed != 1 || st.HedgeWins != 1 {
			t.Fatalf("Completed=%d HedgeWins=%d, want 1/1", st.Completed, st.HedgeWins)
		}
	})
}
