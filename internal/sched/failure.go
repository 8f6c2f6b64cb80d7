package sched

import (
	"context"
	"sync"
	"time"
)

// This file holds the retry/hedge half of the failure plane: the
// configuration surface, the per-query completion state shared by every
// attempt of one admitted query, and the timer bookkeeping entries. The
// dispatcher integration (scheduling retries, firing hedges, terminal
// accounting) lives in dispatcher.go; deterministic fault injection lives in
// fault.go; backend health and the circuit breaker live in breaker.go.

// RetryConfig enables retry-on-failure dispatch: an attempt that fails with a
// retriable error is re-admitted into its original queue after a capped
// exponential backoff with full jitter. A retried task keeps its ORIGINAL
// Submitted timestamp and deadlines — retrying never buys a query more SLA.
//
// Errors wrapped by Permanent, attempts that outlive the per-query execution
// deadline, and tasks whose class has spent its retry budget all fail
// terminally instead of retrying.
type RetryConfig struct {
	// MaxRetries bounds re-dispatches per query after the first attempt
	// (<= 0 means 2).
	MaxRetries int
	// BaseBackoff is the first retry's backoff ceiling (<= 0 means 10ms).
	// Retry n backs off uniformly in [0, min(BaseBackoff<<(n-1), MaxBackoff))
	// — full jitter, so synchronized failures don't re-converge.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (<= 0 means 500ms).
	MaxBackoff time.Duration
	// AttemptTimeout bounds one attempt's execution via context cancellation
	// (0 disables). It is clipped to the per-query deadline, so a hung
	// attempt turns into a retriable timeout while deadline budget remains.
	AttemptTimeout time.Duration
	// Budget caps each SLA class's retries at Budget × (tasks admitted in
	// the class) + BudgetFloor — a retry storm from one sick class cannot
	// amplify offered load without bound (<= 0 means 0.2).
	Budget float64
	// BudgetFloor is the number of retries every class may always spend,
	// keeping low-volume classes retriable before Budget×admitted rounds up
	// to anything (<= 0 means 8).
	BudgetFloor int
	// Seed seeds the jitter RNG (0 means 1), keeping test schedules
	// deterministic.
	Seed int64
}

func (c RetryConfig) withDefaults() RetryConfig {
	if c.MaxRetries <= 0 {
		c.MaxRetries = 2
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 10 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 500 * time.Millisecond
	}
	if c.Budget <= 0 {
		c.Budget = 0.2
	}
	if c.BudgetFloor <= 0 {
		c.BudgetFloor = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// HedgeConfig enables hedged re-dispatch for stragglers: when an attempt has
// been executing for After without finishing, a clone of the task is queued
// for a DIFFERENT backend; the first finisher delivers the result and the
// loser is cancelled and discarded. Exactly one OnDone fires per query no
// matter how the race resolves. Hedges bypass QueueCap (they are bounded by
// the budget instead) and each query hedges at most once.
type HedgeConfig struct {
	// After is how long an attempt may run before a hedge is queued
	// (<= 0 means 100ms).
	After time.Duration
	// Budget caps total hedges at Budget × submitted + BudgetFloor
	// (<= 0 means 0.1).
	Budget float64
	// BudgetFloor is the number of hedges always allowed (<= 0 means 4).
	BudgetFloor int
}

func (c HedgeConfig) withDefaults() HedgeConfig {
	if c.After <= 0 {
		c.After = 100 * time.Millisecond
	}
	if c.Budget <= 0 {
		c.Budget = 0.1
	}
	if c.BudgetFloor <= 0 {
		c.BudgetFloor = 4
	}
	return c
}

// Permanent marks err as non-retriable: the dispatcher fails the task
// terminally instead of consuming retry budget on it. Executors return
// Permanent for errors where re-execution cannot help (malformed query,
// authorization failure) as opposed to transient backend trouble.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

type permanentError struct{ err error }

func (p *permanentError) Error() string { return p.err.Error() }
func (p *permanentError) Unwrap() error { return p.err }

// isPermanent reports whether err (or anything it wraps) was marked by
// Permanent.
func isPermanent(err error) bool {
	for err != nil {
		if _, ok := err.(*permanentError); ok {
			return true
		}
		switch x := err.(type) {
		case interface{ Unwrap() error }:
			err = x.Unwrap()
		default:
			return false
		}
	}
	return false
}

// taskState is the completion state shared by every attempt of one admitted
// query — the original, its retries, and its hedge clone all point at the
// same instance, which lives inline in the original Task. All fields are
// guarded by the dispatcher mutex.
type taskState struct {
	// outstanding counts live attempts: queued, executing, or parked in a
	// retry backoff. The attempt that drops it to zero without a success
	// delivers the terminal failure.
	outstanding int
	// done flips when the terminal outcome (success or failure) has been
	// delivered; late siblings see it and retire silently.
	done bool
	// retries counts re-dispatches consumed by this query.
	retries int
	// hedged is set once a hedge has been armed, bounding each query to a
	// single hedge.
	hedged bool
	// hedge is the armed-but-unfired hedge timer, cleared on completion.
	hedge *hedgeEntry
	// cancels holds the contexts of currently-executing attempts so the
	// winner can cancel the losers. At most the original and its one hedge
	// execute at once, so cancelBuf backs it without allocating.
	cancels   []*attemptCtx
	cancelBuf [2]*attemptCtx
}

// addCancel registers a running attempt's context.
func (st *taskState) addCancel(c *attemptCtx) {
	if st.cancels == nil {
		st.cancels = st.cancelBuf[:0]
	}
	st.cancels = append(st.cancels, c)
}

// dropCancel removes the given attempt's registration (a no-op when a
// cancelAll already consumed it).
func (st *taskState) dropCancel(c *attemptCtx) {
	for i, x := range st.cancels {
		if x == c {
			last := len(st.cancels) - 1
			st.cancels[i] = st.cancels[last]
			st.cancels[last] = nil
			st.cancels = st.cancels[:last]
			return
		}
	}
}

// cancelAll cancels every still-registered attempt — the winner telling the
// losers to stop burning a slot.
func (st *taskState) cancelAll() {
	for i, c := range st.cancels {
		c.cancel(context.Canceled)
		st.cancels[i] = nil
	}
	st.cancels = st.cancels[:0]
}

// attemptCtx is one attempt's execution context: cancelled at its deadline
// (min of the query's ExecDeadline and the attempt timeout, zero for none) or
// by the winning sibling of a hedge race. Unlike context.WithDeadline it arms
// no runtime timer until an executor actually watches Done, so the common
// attempt that finishes without looking costs one small allocation; Err
// still reports DeadlineExceeded once the deadline has passed.
type attemptCtx struct {
	deadline time.Time

	mu    sync.Mutex
	done  chan struct{} // made by the first Done call
	timer *time.Timer   // deadline timer, armed by the first Done call
	err   error
}

func (c *attemptCtx) Deadline() (time.Time, bool) { return c.deadline, !c.deadline.IsZero() }

func (c *attemptCtx) Value(any) any { return nil }

// Done returns the cancellation channel, making it (and arming the deadline
// timer) on the first call.
func (c *attemptCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done != nil {
		return c.done
	}
	c.done = make(chan struct{})
	c.expireLocked()
	if c.err != nil {
		close(c.done)
	} else if !c.deadline.IsZero() {
		c.timer = time.AfterFunc(time.Until(c.deadline), func() { c.cancel(context.DeadlineExceeded) })
	}
	return c.done
}

// Err returns nil until the context is cancelled or its deadline passes.
func (c *attemptCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.expireLocked()
		if c.err != nil && c.done != nil {
			c.closeLocked()
		}
	}
	return c.err
}

// expireLocked records DeadlineExceeded once the deadline has passed.
func (c *attemptCtx) expireLocked() {
	if c.err == nil && !c.deadline.IsZero() && !time.Now().Before(c.deadline) {
		c.err = context.DeadlineExceeded
	}
}

// cancel ends the context with err (the first cause wins), closing Done and
// releasing the deadline timer if anyone watches it. Idempotent.
func (c *attemptCtx) cancel(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
		if c.done != nil {
			c.closeLocked()
		}
	}
	c.mu.Unlock()
}

// closeLocked closes the watched Done channel and stops its timer; callers
// have just set err, so the channel is closed exactly once.
func (c *attemptCtx) closeLocked() {
	close(c.done)
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
}

// retryEntry is one parked retry: the task plus the backoff timer that will
// requeue it. Map membership in Dispatcher.retryTimers decides the
// timer-vs-Close race — whoever deletes the entry owns the requeue.
type retryEntry struct {
	t     *Task
	timer *time.Timer
}

// hedgeEntry is one armed hedge timer; backend names the attempt's executor
// so the clone can prefer anywhere else.
type hedgeEntry struct {
	t       *Task
	backend string
	timer   *time.Timer
}
