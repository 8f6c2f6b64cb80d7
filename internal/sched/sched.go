// Package sched implements the scheduling plane: the layer downstream of the
// Qworkers that turns predicted labels into actions. The paper's §4
// applications (resource allocation, routing) stop at annotation — a query
// leaves a Qworker carrying a predicted resource class and cluster but
// nothing consumes them. This package closes that loop the way WiSeDB
// (Marcus & Papaemmanouil) and Tempo (Tan & Babu) frame workload management:
// learned per-query hints drive SLA-aware admission and dispatch across a
// pool of backends.
//
// A Dispatcher owns bounded per-class queues fed by Qworker forwards
// (core.Service.AttachScheduler) or direct Submit calls. A pluggable Policy
// decides which queue a query enters (its resource class), which Backend it
// prefers (routing affinity), and how tasks order within a queue
// (deadline-aware for the label-driven policy). Each Backend executes tasks
// on a fixed number of concurrency slots through a pluggable Executor — a
// simulated executor for experiments (driven by snowgen runtime labels or
// internal/engine cost estimates), a real function hook for deployments.
// Per-class SLA targets are accounted on completion (violations, penalty,
// latency percentiles), and overload surfaces as backpressure on Submit or,
// optionally, as shedding from the lowest-priority backlog.
package sched

import (
	"context"
	"strconv"
	"time"

	"querc/internal/core"
)

// Task is one scheduled unit of work: an annotated query plus the scheduling
// state the dispatcher attaches to it. Fields up to CostMS are filled at
// admission; Started/Finished/RanOn when a backend slot executes it.
type Task struct {
	// Query is the annotated query being scheduled (labels carry the
	// predictions the policy acts on).
	Query *core.LabeledQuery
	// Class is the queue the policy admitted the task into.
	Class string
	// SLAClass keys the task's latency target (Config.SLAKey label value),
	// independent of the queue the policy chose — so FIFO and label-driven
	// runs account violations against identical per-query targets.
	SLAClass string
	// Affinity is the backend the policy prefers (""= any). Affinity is a
	// hint: an idle backend steals foreign-affinity work rather than idling.
	Affinity string
	// CostMS is the service-time estimate in workload milliseconds, consumed
	// by SimExecutor (parsed from the Config.CostKey label when present).
	CostMS float64
	// MemMB is the predicted working-set estimate in megabytes (parsed from
	// the Config.MemKey label — the memory label task's prediction). The
	// dispatcher admits tasks onto a budgeted backend until the aggregate
	// MemMB of its running tasks reaches Backend.MemoryMB.
	MemMB float64
	// ActualMemMB is the observed working set in megabytes (parsed from the
	// Config.ActualMemKey label — snowgen's ground-truth execution label in
	// replays, the engine's measurement in deployments; falls back to MemMB
	// when absent). Aggregate actual memory exceeding the backend budget at
	// dispatch is an OOM-class violation.
	ActualMemMB float64
	// Deadline is Submitted plus the SLAClass target (zero when the class
	// has no target). The label-driven policy orders queues by it.
	Deadline  time.Time
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
	// RanOn is the name of the backend that executed the task.
	RanOn string
	// Err is the executor's error, if any. With no retry policy the task
	// still completes; with one, a retriable error re-admits the task and Err
	// only survives on terminal failure.
	Err error
	// Attempt is the 1-based dispatch attempt executing (or last executed)
	// this task; retries and hedges increment it.
	Attempt int
	// Hedge marks a hedged clone racing the original attempt.
	Hedge bool
	// ExecDeadline is the hard per-query execution deadline (Submitted +
	// Config.Deadline; zero when deadlines are off). Attempts run under a
	// context cancelled at this deadline, and a task that fails after it
	// never retries — retrying never buys a query more time.
	ExecDeadline time.Time

	seq   uint64          // admission order, the FIFO and tie-break key
	ctx   context.Context // per-attempt execution context, set at dispatch
	state *taskState      // shared completion state across attempts (&own, or the original's for a hedge)
	avoid string          // backend this attempt prefers to avoid (hedge/retry steering)
	own   taskState       // the state itself, inline so arming the failure plane costs no allocation
}

// Context returns the execution context of the task's current attempt.
// Executors must observe its cancellation: it fires on deadline/attempt
// timeout and when a racing hedge wins. Background outside execution.
func (t *Task) Context() context.Context {
	if t.ctx == nil {
		return context.Background()
	}
	return t.ctx
}

// Latency returns the task's queue wait plus service time.
func (t *Task) Latency() time.Duration { return t.Finished.Sub(t.Submitted) }

// Executor runs one task on a backend slot and returns when it finishes.
// Implementations must be safe for concurrent use across slots.
type Executor func(*Task) error

// Backend is one execution target: a named pool of concurrency slots over an
// executor, optionally bounded by a working-set memory budget.
type Backend struct {
	Name  string
	Slots int // concurrent tasks (<= 0 means 1)
	// MemoryMB is the backend's working-set budget in megabytes (<= 0 means
	// unbounded). With Config.MemoryAware set, the dispatcher admits tasks
	// until the aggregate predicted working set (Task.MemMB) of running
	// tasks reaches the budget — slot count becomes the secondary cap.
	// Whether or not admission is memory-aware, a declared budget is the
	// reference line for OOM-class violation accounting.
	MemoryMB float64
	Exec     Executor
}

// SimExecutor returns an executor that simulates query execution by sleeping
// the task's CostMS — falling back to classMS[task.Class], then defaultMS —
// scaled by scale (scale 0.01 runs a 100ms query in 1ms of wall clock).
// Experiments drive it with snowgen ground-truth runtimes or internal/engine
// cost estimates; deployments replace it with a real Executor.
func SimExecutor(scale float64, classMS map[string]float64, defaultMS float64) Executor {
	return func(t *Task) error {
		ms := t.CostMS
		if ms <= 0 {
			ms = classMS[t.Class]
		}
		if ms <= 0 {
			ms = defaultMS
		}
		if ms > 0 && scale > 0 {
			return sleepCtx(t, time.Duration(ms*scale*float64(time.Millisecond)))
		}
		return nil
	}
}

// Policy decides how an annotated query is admitted: which class queue it
// joins, which backend it prefers, and how tasks order within one queue.
// Implementations must be safe for concurrent use.
type Policy interface {
	Name() string
	// Admit returns the queue class and backend affinity for q ("" affinity
	// means any backend).
	Admit(q *core.LabeledQuery) (class, affinity string)
	// Less reports whether a should dispatch before b within one queue.
	// Admission order is available as a tie-break via Before.
	Less(a, b *Task) bool
}

// Before reports whether a was admitted before b — the arrival-order
// tie-break for Policy.Less implementations.
func Before(a, b *Task) bool { return a.seq < b.seq }

// FIFO is the baseline policy: one queue, no affinity, arrival order. It
// ignores every label — the "predict but never act" status quo the
// scheduling plane exists to beat.
type FIFO struct{}

// Name implements Policy.
func (FIFO) Name() string { return "fifo" }

// Admit implements Policy: everything joins one queue, any backend.
func (FIFO) Admit(q *core.LabeledQuery) (string, string) { return "default", "" }

// Less implements Policy: arrival order.
func (FIFO) Less(a, b *Task) bool { return Before(a, b) }

// LabelPolicy is the label-driven policy: the predicted resource class picks
// the queue, the predicted routing cluster picks the backend affinity, and
// queues order deadline-first (earliest deadline first, arrival order among
// equal deadlines). Classes dispatch in Config.ClassOrder priority, so light
// work is never stuck behind heavy work it was predicted to be lighter than.
type LabelPolicy struct {
	// ClassKey is the label carrying the resource class (default "resource",
	// the apps.ResourceAllocator key).
	ClassKey string
	// DefaultClass admits queries missing the class label (default
	// "default").
	DefaultClass string
	// AffinityKey is the label carrying the routing hint (default "cluster",
	// the apps.RoutingChecker key).
	AffinityKey string
	// Route maps affinity label values to backend names. A nil map uses the
	// label value itself; values naming no configured backend are cleared at
	// admission.
	Route map[string]string
}

// Name implements Policy.
func (p *LabelPolicy) Name() string { return "label" }

// Admit implements Policy: class from ClassKey, affinity from AffinityKey
// through Route.
func (p *LabelPolicy) Admit(q *core.LabeledQuery) (string, string) {
	key := p.ClassKey
	if key == "" {
		key = "resource"
	}
	class := q.Label(key)
	if class == "" {
		class = p.DefaultClass
		if class == "" {
			class = "default"
		}
	}
	affKey := p.AffinityKey
	if affKey == "" {
		affKey = "cluster"
	}
	aff := q.Label(affKey)
	if p.Route != nil {
		aff = p.Route[aff]
	}
	return class, aff
}

// Less implements Policy: earliest deadline first; tasks without a deadline
// order after all deadlined tasks, in arrival order.
func (p *LabelPolicy) Less(a, b *Task) bool {
	switch {
	case a.Deadline.IsZero() && b.Deadline.IsZero():
		return Before(a, b)
	case a.Deadline.IsZero():
		return false
	case b.Deadline.IsZero():
		return true
	case !a.Deadline.Equal(b.Deadline):
		return a.Deadline.Before(b.Deadline)
	}
	return Before(a, b)
}

// floatFromLabel parses the label under key as a non-negative float
// (milliseconds for CostKey, megabytes for MemKey/ActualMemKey), returning 0
// when absent or malformed.
func floatFromLabel(q *core.LabeledQuery, key string) float64 {
	if key == "" {
		return 0
	}
	v := q.Label(key)
	if v == "" {
		return 0
	}
	ms, err := strconv.ParseFloat(v, 64)
	if err != nil || ms < 0 {
		return 0
	}
	return ms
}
