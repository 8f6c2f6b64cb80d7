package sched

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"querc/internal/core"
	"querc/internal/obs"
)

// Admission errors.
var (
	// ErrQueueFull is backpressure: the backlog bound is reached and
	// shedding is off. Callers own the retry policy (block, drop, divert).
	ErrQueueFull = errors.New("sched: queue full")
	// ErrShed reports that the submitted task itself was shed: the backlog
	// is full of work with equal or higher priority.
	ErrShed = errors.New("sched: task shed")
	// ErrClosed reports submission after Close.
	ErrClosed = errors.New("sched: dispatcher closed")
)

// Config configures a Dispatcher.
type Config struct {
	// Policy admits and orders tasks. Default: FIFO.
	Policy Policy
	// Backends is the execution pool (at least one, unique non-empty names).
	Backends []Backend
	// ClassOrder lists queue classes in dispatch priority, highest first.
	// Classes first seen at admission rank after all listed ones, in order
	// of appearance. Within this order dispatch is strict priority — a
	// listed class starves classes after it under sustained overload, which
	// is the intended degradation mode (shed or slow the cheap-to-miss
	// classes, protect the rest).
	ClassOrder []string
	// QueueCap bounds the total queued backlog across all classes
	// (<= 0 means 1024). Admission past the bound is backpressure
	// (ErrQueueFull) or, with Shed, eviction of lowest-priority work.
	QueueCap int
	// SLA maps an SLA class to its latency target. Completion later than
	// Submitted+target counts a violation and accrues penalty. Classes
	// without a target are tracked but never violate.
	SLA map[string]time.Duration
	// SLAKey is the label key naming a query's SLA class (default
	// "resource"; missing label means class "default"). It is deliberately
	// independent of Policy.Admit so FIFO and label-driven runs account
	// violations against identical per-query targets.
	SLAKey string
	// CostKey is the label key carrying a service-time estimate in
	// milliseconds for Task.CostMS (default "runtimeMS"; SimExecutor
	// consumes it).
	CostKey string
	// MemKey is the label key carrying the predicted working-set estimate in
	// megabytes for Task.MemMB (default "memMB", the memory label task's
	// key).
	MemKey string
	// ActualMemKey is the label key carrying the observed working set in
	// megabytes for Task.ActualMemMB (default "memoryMB", snowgen's
	// execution label; absent falls back to the prediction).
	ActualMemKey string
	// MemoryAware gates dispatch on memory: a backend with a MemoryMB
	// budget admits a task only while the aggregate predicted working set
	// of its running tasks stays within the budget (an idle backend always
	// admits, so an oversized task degrades to an accounted overrun rather
	// than wedging the queue). Off, slots alone cap concurrency — the
	// admission baseline the memory plane exists to beat — while declared
	// budgets still drive OOM-class violation accounting.
	MemoryAware bool
	// Shed switches overload behavior from backpressure to load shedding:
	// admission past QueueCap evicts the least-urgent task of the
	// lowest-priority backlogged class (or drops the incoming task when
	// nothing queued is lower priority than it).
	Shed bool
	// Deadline, when positive, gives every admitted query a hard execution
	// deadline of Submitted+Deadline (Task.ExecDeadline). Attempts run under
	// a context cancelled at the deadline, and a failure past it never
	// retries.
	Deadline time.Duration
	// Retry, when set, enables retry-on-failure dispatch (see RetryConfig).
	Retry *RetryConfig
	// Hedge, when set, enables hedged re-dispatch for stragglers (see
	// HedgeConfig). Hedging needs at least two backends to race.
	Hedge *HedgeConfig
	// Breaker, when set, enables per-backend health accounting and circuit
	// breaking (see BreakerConfig). When open breakers have shrunk the
	// healthy pool, a full backlog degrades to shed-lowest-class even
	// without Shed.
	Breaker *BreakerConfig
	// OnDone, when set, receives every executed task after SLA accounting
	// (outside the dispatcher lock). Experiments use it to collect
	// latencies.
	OnDone func(*Task)
	// OnEvict, when set, receives every admitted task later evicted by
	// load shedding (outside the dispatcher lock, with Err = ErrShed).
	// Callers holding per-task resources — a client waiting on the query,
	// say — release them here; evicted tasks never reach OnDone.
	OnEvict func(*Task)
	// Metrics, when set, is the observability-plane registry the dispatcher
	// publishes its counters on (querc_sched_*). nil still counts — every
	// instrument degrades to a standalone atomic — it just isn't scraped.
	Metrics *obs.Registry
	// Audit, when set, receives one structured event per query that reaches
	// a terminal outcome (completed, failed, rejected, shed, evicted).
	// Emit runs outside the dispatcher lock.
	Audit obs.AuditSink
}

// backend is the runtime state of one configured Backend.
type backend struct {
	name       string
	slots      int
	memoryMB   float64 // working-set budget (<= 0 unbounded)
	exec       Executor
	busy       int
	memUsed    float64      // aggregate predicted MemMB of running tasks
	actualUsed float64      // aggregate ActualMemMB of running tasks
	oomEvents  *obs.Counter // dispatches that pushed actualUsed past memoryMB
	completed  *obs.Counter
	failed     *obs.Counter // tasks that failed terminally on this backend
	br         *breaker
}

// classQueue is one class's pending tasks, bucketed by backend affinity so a
// backend's preferred work is O(1) to find. Buckets stay sorted by the
// dispatcher's policy ordering.
type classQueue struct {
	byAff map[string][]*Task
	n     int
}

// slaLatencyWindow bounds the per-class latency reservoir backing the
// p50/p99 snapshot metrics.
const slaLatencyWindow = 4096

// slaStats accumulates one SLA class's accounting. The counters are
// observability-plane instruments (registered as querc_sched_class_* when the
// dispatcher has a registry); writers increment them under the dispatcher
// lock, but snapshot readers may load them without it.
type slaStats struct {
	admitted      *obs.Counter // tasks admitted into the class (the retry-budget base)
	completed     *obs.Counter
	failed        *obs.Counter // tasks that failed terminally
	retries       *obs.Counter // re-dispatches consumed by the class
	violations    *obs.Counter
	dropped       *obs.Counter // shed under overload (evicted from the queue or refused at admission)
	oomViolations *obs.Counter // dispatches of this class that pushed a backend's actual memory past its budget
	hist          *obs.Histogram
	penaltyMS     float64
	lat           []float64 // ring of recent latencies (ms)
	latN          int       // valid entries
	latIdx        int       // next write position
}

// newSLAStats builds one class's accounting bucket with its registry series.
//
//querc:allow-alloc per-class series are created at most maxTrackedClasses times over the dispatcher's life
func newSLAStats(r *obs.Registry, class string) *slaStats {
	return &slaStats{
		admitted:      r.Counter("querc_sched_class_admitted_total", "Tasks admitted per SLA class.", "class", class),
		completed:     r.Counter("querc_sched_class_completed_total", "Tasks completed per SLA class.", "class", class),
		failed:        r.Counter("querc_sched_class_failed_total", "Tasks failed terminally per SLA class.", "class", class),
		retries:       r.Counter("querc_sched_class_retries_total", "Re-dispatches consumed per SLA class.", "class", class),
		violations:    r.Counter("querc_sched_class_violations_total", "SLA deadline violations per class.", "class", class),
		dropped:       r.Counter("querc_sched_class_dropped_total", "Tasks shed under overload per SLA class.", "class", class),
		oomViolations: r.Counter("querc_sched_class_oom_violations_total", "Memory-budget overruns per SLA class.", "class", class),
		hist:          r.Histogram("querc_sched_class_latency_seconds", "Submit-to-finish latency per SLA class.", "class", class),
	}
}

func (s *slaStats) record(latMS float64) {
	if s.lat == nil {
		s.lat = make([]float64, slaLatencyWindow)
	}
	s.lat[s.latIdx] = latMS
	s.latIdx = (s.latIdx + 1) % len(s.lat)
	if s.latN < len(s.lat) {
		s.latN++
	}
}

// percentiles returns (p50, p99) over a copied latency window, using
// nearest-rank (ceil) indices so p99 never ranks below p50 on small
// samples. It sorts xs in place, so callers pass a copy taken under the
// dispatcher lock and call this after releasing it — the sort never stalls
// admission or dispatch.
func percentiles(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	sort.Float64s(xs)
	p99 := (99*len(xs)+99)/100 - 1
	return xs[len(xs)/2], xs[p99]
}

// Dispatcher owns the scheduling plane's queues and backend pool. Create
// with New; it starts dispatching immediately. All methods are safe for
// concurrent use.
type Dispatcher struct {
	policy       Policy
	queueCap     int
	slaKey       string
	costKey      string
	memKey       string
	actualMemKey string
	memAware     bool
	shed         bool
	sla          map[string]time.Duration
	onDone       func(*Task)
	onEvict      func(*Task)

	deadline    time.Duration
	retry       *RetryConfig
	hedge       *HedgeConfig
	breakerCfg  *BreakerConfig
	planeOn     bool // retry, hedge, or deadline enabled: tasks carry taskState
	avoidActive bool // retry/hedge steering away from a backend is possible

	mu       sync.Mutex
	cond     *sync.Cond
	queues   map[string]*classQueue
	order    []string // realized dispatch priority
	listed   int      // first `listed` entries of order came from ClassOrder
	backends map[string]*backend
	names    []string // backend names, config order
	closed   bool
	waiting  int // goroutines parked in cond.Wait
	seq      uint64
	backlog  int
	inflight int
	// Terminal deliveries (audit event + OnDone) still running after the
	// counters dropped: Drain waits for these too, so the audit stream and
	// OnDone tallies are complete when it returns. The delivering goroutine
	// decrements without the lock and takes it to wake Drain only when the
	// count reaches zero while a Drain waits (drainers > 0, set under mu
	// before Drain reads the count).
	termPending atomic.Int64
	drainers    atomic.Int32

	retryRNG       *rand.Rand               // jitter source, guarded by mu
	retryTimers    map[*retryEntry]struct{} // parked retries; membership decides the timer-vs-Close race
	hedgeTimers    map[*hedgeEntry]struct{} // armed hedges; membership decides the timer-vs-finish race
	pendingRetries int                      // retries parked in a backoff (neither backlog nor inflight)

	// Plane counters live on observability-plane instruments (registered as
	// querc_sched_* when Config.Metrics is set): writers stay under d.mu —
	// which keeps seeded runs deterministic — while stats polls and registry
	// scrapes load them without racing the writers.
	metrics          *obs.Registry
	audit            obs.AuditSink
	submitted        *obs.Counter
	completed        *obs.Counter
	failed           *obs.Counter // tasks that failed terminally (error after retries exhausted)
	rejected         *obs.Counter
	shedCount        *obs.Counter // incoming tasks refused by shedding (never counted in submitted)
	evicted          *obs.Counter // queued tasks evicted by shedding (counted in submitted, never completed)
	stolen           *obs.Counter
	memWaits         *obs.Counter // class scans skipped because no queued task fit the remaining memory budget
	oomViolations    *obs.Counter // dispatches that pushed a backend's actual memory past its budget
	retries          *obs.Counter // re-dispatches after retriable failures
	retryStarved     *obs.Counter // retriable failures denied by an exhausted class budget
	hedges           *obs.Counter // hedge clones queued
	hedgeWins        *obs.Counter // queries whose hedge clone delivered the result
	hedgeWaste       *obs.Counter // attempts discarded because a racing sibling finished first
	deadlineExceeded *obs.Counter // attempts that failed past their execution deadline
	perSLA           map[string]*slaStats

	wg sync.WaitGroup
}

// New validates cfg, builds the dispatcher, and starts one goroutine per
// backend slot. Close stops intake; Drain waits for the backlog to finish.
func New(cfg Config) (*Dispatcher, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("sched: at least one backend required")
	}
	r := cfg.Metrics // nil-safe: instruments degrade to standalone atomics
	d := &Dispatcher{
		policy:       cfg.Policy,
		queueCap:     cfg.QueueCap,
		slaKey:       cfg.SLAKey,
		costKey:      cfg.CostKey,
		memKey:       cfg.MemKey,
		actualMemKey: cfg.ActualMemKey,
		memAware:     cfg.MemoryAware,
		shed:         cfg.Shed,
		sla:          make(map[string]time.Duration, len(cfg.SLA)),
		onDone:       cfg.OnDone,
		onEvict:      cfg.OnEvict,
		queues:       make(map[string]*classQueue),
		backends:     make(map[string]*backend, len(cfg.Backends)),
		perSLA:       make(map[string]*slaStats),
		retryTimers:  make(map[*retryEntry]struct{}),
		hedgeTimers:  make(map[*hedgeEntry]struct{}),

		metrics:          r,
		audit:            cfg.Audit,
		submitted:        r.Counter("querc_sched_submitted_total", "Queries admitted into the scheduling plane."),
		completed:        r.Counter("querc_sched_completed_total", "Queries that completed successfully."),
		failed:           r.Counter("querc_sched_failed_total", "Queries whose terminal outcome was an error."),
		rejected:         r.Counter("querc_sched_rejected_total", "Enqueue calls backpressured by a full queue."),
		shedCount:        r.Counter("querc_sched_shed_total", "Incoming tasks refused by load shedding."),
		evicted:          r.Counter("querc_sched_evicted_total", "Queued tasks evicted by load shedding."),
		stolen:           r.Counter("querc_sched_stolen_total", "Dispatches that ignored backend affinity."),
		memWaits:         r.Counter("querc_sched_mem_waits_total", "Class scans skipped because no queued task fit the memory budget."),
		oomViolations:    r.Counter("querc_sched_oom_violations_total", "Dispatches that pushed a backend past its memory budget."),
		retries:          r.Counter("querc_sched_retries_total", "Re-dispatches after retriable failures."),
		retryStarved:     r.Counter("querc_sched_retry_starved_total", "Retriable failures denied by an exhausted class budget."),
		hedges:           r.Counter("querc_sched_hedges_total", "Hedge clones queued."),
		hedgeWins:        r.Counter("querc_sched_hedge_wins_total", "Queries whose hedge clone delivered the result."),
		hedgeWaste:       r.Counter("querc_sched_hedge_waste_total", "Attempts discarded because a racing sibling finished first."),
		deadlineExceeded: r.Counter("querc_sched_deadline_exceeded_total", "Attempts that failed past their execution deadline."),
	}
	r.GaugeFunc("querc_sched_backlog", "Tasks queued across all classes.",
		func() float64 { d.mu.Lock(); defer d.mu.Unlock(); return float64(d.backlog) })
	r.GaugeFunc("querc_sched_inflight", "Tasks currently executing.",
		func() float64 { d.mu.Lock(); defer d.mu.Unlock(); return float64(d.inflight) })
	r.GaugeFunc("querc_sched_pending_retries", "Retries currently parked in a backoff.",
		func() float64 { d.mu.Lock(); defer d.mu.Unlock(); return float64(d.pendingRetries) })
	if cfg.Deadline > 0 {
		d.deadline = cfg.Deadline
	}
	if cfg.Retry != nil {
		r := cfg.Retry.withDefaults()
		d.retry = &r
		d.retryRNG = rand.New(rand.NewSource(r.Seed))
	}
	if cfg.Hedge != nil {
		h := cfg.Hedge.withDefaults()
		d.hedge = &h
	}
	if cfg.Breaker != nil {
		bc := cfg.Breaker.withDefaults()
		d.breakerCfg = &bc
	}
	d.planeOn = d.retry != nil || d.hedge != nil || d.deadline > 0
	if d.policy == nil {
		d.policy = FIFO{}
	}
	if d.queueCap <= 0 {
		d.queueCap = 1024
	}
	if d.slaKey == "" {
		d.slaKey = "resource"
	}
	if d.costKey == "" {
		d.costKey = "runtimeMS"
	}
	if d.memKey == "" {
		d.memKey = "memMB"
	}
	if d.actualMemKey == "" {
		d.actualMemKey = "memoryMB"
	}
	for class, target := range cfg.SLA {
		d.sla[class] = target
	}
	d.cond = sync.NewCond(&d.mu)
	for _, class := range cfg.ClassOrder {
		d.classIndexLocked(class)
	}
	d.listed = len(d.order)
	for _, b := range cfg.Backends {
		if b.Name == "" {
			return nil, fmt.Errorf("sched: backend with empty name")
		}
		if _, dup := d.backends[b.Name]; dup {
			return nil, fmt.Errorf("sched: duplicate backend %q", b.Name)
		}
		if b.Exec == nil {
			return nil, fmt.Errorf("sched: backend %q has no executor", b.Name)
		}
		slots := b.Slots
		if slots <= 0 {
			slots = 1
		}
		bk := &backend{
			name: b.Name, slots: slots, memoryMB: b.MemoryMB, exec: b.Exec,
			completed: r.Counter("querc_sched_backend_completed_total", "Tasks completed per backend.", "backend", b.Name),
			failed:    r.Counter("querc_sched_backend_failed_total", "Tasks failed terminally per backend.", "backend", b.Name),
			oomEvents: r.Counter("querc_sched_backend_oom_events_total", "Memory-budget overruns per backend.", "backend", b.Name),
		}
		if d.breakerCfg != nil {
			bk.br = &breaker{cfg: d.breakerCfg}
		}
		d.backends[b.Name] = bk
		d.names = append(d.names, b.Name)
	}
	d.avoidActive = (d.retry != nil || d.hedge != nil) && len(d.names) > 1
	for _, name := range d.names {
		bk := d.backends[name]
		for i := 0; i < bk.slots; i++ {
			d.wg.Add(1)
			go d.worker(bk)
		}
	}
	return d, nil
}

// Policy returns the admission policy in force.
func (d *Dispatcher) Policy() Policy { return d.policy }

// Enqueue admits one annotated query, implementing core.Scheduler (the
// Qworker Forward edge after Service.AttachScheduler). It classifies q
// through the policy, stamps deadline/cost, and queues it — returning
// ErrQueueFull (backpressure), ErrShed, or ErrClosed instead of blocking.
//
//querc:hotpath
func (d *Dispatcher) Enqueue(q *core.LabeledQuery) error {
	now := time.Now()
	tr := q.Trace() // nil for unsampled queries; every mark/settle is nil-safe
	class, aff := d.policy.Admit(q)
	t := &Task{
		Query:     q,
		Class:     class,
		Affinity:  aff,
		Submitted: now,
		CostMS:    floatFromLabel(q, d.costKey),
		MemMB:     floatFromLabel(q, d.memKey),
	}
	t.ActualMemMB = floatFromLabel(q, d.actualMemKey)
	if t.ActualMemMB <= 0 {
		t.ActualMemMB = t.MemMB // no observation: account the prediction
	}
	t.SLAClass = q.Label(d.slaKey)
	if t.SLAClass == "" {
		t.SLAClass = "default"
	}
	if target, ok := d.sla[t.SLAClass]; ok {
		t.Deadline = now.Add(target)
	}
	if d.deadline > 0 {
		t.ExecDeadline = now.Add(d.deadline)
	}
	if d.planeOn {
		t.own.outstanding = 1
		t.state = &t.own
	}

	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	if t.Affinity != "" {
		if _, ok := d.backends[t.Affinity]; !ok {
			t.Affinity = "" // unroutable hint: any backend
		}
	}
	t.seq = d.seq
	d.seq++
	var victim *Task
	if d.backlog >= d.queueCap {
		// Open breakers shrink the healthy pool; under that saturation a
		// full backlog degrades to shed-lowest-class even without Shed.
		if !d.shed && !d.breakerDegradeLocked() {
			d.rejected.Inc()
			d.mu.Unlock()
			tr.Settle(obs.OutcomeRejected, ErrQueueFull)
			d.auditTask(t, obs.OutcomeRejected, ErrQueueFull)
			return ErrQueueFull
		}
		if victim = d.shedForLocked(t); victim == nil {
			d.shedCount.Inc()
			d.slaStatsLocked(t.SLAClass).dropped.Inc()
			d.mu.Unlock()
			tr.Settle(obs.OutcomeShed, ErrShed)
			d.auditTask(t, obs.OutcomeShed, ErrShed)
			return ErrShed
		}
		if vst := victim.state; vst != nil && (vst.done || vst.outstanding > 1) {
			// The victim was a redundant attempt: a sibling either delivered
			// already (done) or still carries the query (outstanding > 1), so
			// the queue slot is freed but nothing is evicted.
			vst.outstanding--
			d.hedgeWaste.Inc()
			victim = nil
		} else {
			if vst := victim.state; vst != nil {
				vst.outstanding--
				d.retireStateLocked(vst)
			}
			d.evicted.Inc()
			d.slaStatsLocked(victim.SLAClass).dropped.Inc()
		}
	}
	d.pushLocked(t)
	d.backlog++
	d.submitted.Inc()
	d.slaStatsLocked(t.SLAClass).admitted.Inc()
	tr.MarkAdmit(t.Class, t.SLAClass)
	if d.waiting > 0 {
		d.cond.Broadcast()
	}
	onEvict := d.onEvict
	d.mu.Unlock()
	if victim != nil {
		victim.Err = ErrShed
		victim.Query.Trace().Settle(obs.OutcomeEvicted, ErrShed)
		d.auditTask(victim, obs.OutcomeEvicted, ErrShed)
		if onEvict != nil {
			onEvict(victim)
		}
	}
	return nil
}

// auditTask emits one terminal audit event for t on the configured sink.
// Called outside the dispatcher lock; the event is stack-built and the sink
// contract forbids retaining it.
func (d *Dispatcher) auditTask(t *Task, o obs.Outcome, err error) {
	if d.audit == nil {
		return
	}
	now := time.Now()
	ev := obs.AuditEvent{
		TimeUnixNano: now.UnixNano(),
		App:          t.Query.App,
		SQL:          t.Query.SQL,
		Outcome:      o.String(),
		Class:        t.Class,
		SLAClass:     t.SLAClass,
		Backend:      t.RanOn,
		Attempts:     t.Attempt,
		Hedged:       t.state != nil && t.state.hedged,
	}
	if !t.Finished.IsZero() {
		ev.LatencyMS = float64(t.Latency()) / float64(time.Millisecond)
	} else {
		ev.LatencyMS = float64(now.Sub(t.Submitted)) / float64(time.Millisecond)
	}
	if err != nil {
		ev.Err = err.Error()
	}
	d.audit.Emit(&ev)
}

// breakerDegradeLocked reports whether any backend's breaker currently
// refuses dispatch — the shrunken-pool condition under which overload
// degrades to shedding.
func (d *Dispatcher) breakerDegradeLocked() bool {
	if d.breakerCfg == nil {
		return false
	}
	now := time.Now()
	for _, name := range d.names {
		if d.backends[name].br.blocked(now) {
			return true
		}
	}
	return false
}

// retireStateLocked delivers a terminal outcome's side effects on the shared
// state: mark done, disarm the pending hedge, cancel running siblings.
func (d *Dispatcher) retireStateLocked(st *taskState) {
	st.done = true
	if he := st.hedge; he != nil {
		st.hedge = nil
		if _, ok := d.hedgeTimers[he]; ok {
			delete(d.hedgeTimers, he)
			he.timer.Stop()
		}
	}
	st.cancelAll()
}

// maxTrackedClasses bounds the number of distinct queue classes and SLA
// classes the dispatcher tracks. Every admitted class costs a permanent
// registry entry scanned per dispatch (and, for SLA classes, a latency
// reservoir), so a free-form or high-cardinality label must not be able to
// grow the dispatcher without bound; classes past the cap collapse into one
// catch-all at the lowest priority.
const maxTrackedClasses = 64

// overflowClass is the catch-all queue/SLA class for labels seen after
// maxTrackedClasses distinct ones.
const overflowClass = "~overflow"

// classIndexLocked returns the dispatch-priority index of class, registering
// it (after all configured classes) on first sight. The last registry slot
// is reserved for the overflow class, so once the cap is reached every
// unseen class collapses into it.
//
//querc:allow-alloc registry growth happens at most maxTrackedClasses times over the dispatcher's life
func (d *Dispatcher) classIndexLocked(class string) int {
	for i, c := range d.order {
		if c == class {
			return i
		}
	}
	if class != overflowClass && len(d.order) >= maxTrackedClasses-1 {
		return d.classIndexLocked(overflowClass)
	}
	d.order = append(d.order, class)
	d.queues[class] = &classQueue{byAff: make(map[string][]*Task)}
	return len(d.order) - 1
}

// pushLocked inserts t into its class queue (the overflow queue when the
// class registry is full), keeping the affinity bucket sorted by the policy
// ordering.
func (d *Dispatcher) pushLocked(t *Task) {
	q := d.queues[d.order[d.classIndexLocked(t.Class)]]
	bucket := q.byAff[t.Affinity]
	// Inline binary search: a sort.Search closure capturing t and bucket
	// escapes and allocates on every enqueue.
	lo, hi := 0, len(bucket)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if d.policy.Less(t, bucket[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if len(bucket) < cap(bucket) {
		bucket = bucket[:len(bucket)+1]
	} else {
		// Grow from len, not cap: pops reslice the front away, so cap
		// shrinks with them and a reallocation comes once per ~len pops.
		grown := make([]*Task, len(bucket)+1, 2*len(bucket)+8)
		copy(grown, bucket)
		bucket = grown
	}
	copy(bucket[lo+1:], bucket[lo:])
	bucket[lo] = t
	q.byAff[t.Affinity] = bucket
	q.n++
}

// removeLocked removes and returns the task at idx of the given affinity
// bucket. Popping the head — the common case — reslices in O(1); an empty
// bucket keeps its backing array from the current window start, so a queue
// that drains and refills reuses it. Empty buckets stay in the map: their
// keys are bounded by the backends plus "" (pushLocked never sees an
// unroutable affinity).
func (d *Dispatcher) removeLocked(q *classQueue, aff string, idx int) *Task {
	bucket := q.byAff[aff]
	t := bucket[idx]
	switch {
	case len(bucket) == 1:
		bucket[0] = nil
		bucket = bucket[:0]
	case idx == 0:
		bucket[0] = nil
		bucket = bucket[1:]
	default:
		copy(bucket[idx:], bucket[idx+1:])
		bucket[len(bucket)-1] = nil
		bucket = bucket[:len(bucket)-1]
	}
	q.byAff[aff] = bucket
	q.n--
	return t
}

// firstFitLocked returns the index of the least queued task in bucket that
// fits b's remaining memory budget (gate) and is not steering away from b
// (honorAvoid), or -1. With neither filter that is simply the bucket head
// (buckets stay sorted by the policy ordering), so the plain path stays
// O(1); a filtered scan walks past the unfit prefix only.
func (d *Dispatcher) firstFitLocked(bucket []*Task, b *backend, gate, honorAvoid bool) int {
	if !gate && !honorAvoid {
		if len(bucket) == 0 {
			return -1
		}
		return 0
	}
	for i, t := range bucket {
		if honorAvoid && t.avoid == b.name {
			continue
		}
		if gate && b.memUsed+t.MemMB > b.memoryMB {
			continue
		}
		return i
	}
	return -1
}

// pickLocked chooses the next task for backend b: strict class priority
// first (SLA dominates), then — within the chosen class — the policy-least
// task among the backend's own and unaffined buckets, stealing the class's
// overall least task only when neither holds work. Affinity is a
// preference, never a reason to idle.
//
// Under memory-aware admission a budgeted, busy backend only considers tasks
// whose predicted working set fits its remaining budget; a class whose
// queued work is all too big is skipped, letting smaller lower-priority work
// backfill the memory headroom instead of idling the slot. An idle backend
// always admits (an oversized task degrades to an accounted overrun, never a
// wedged queue), and every completion frees budget and re-wakes the pick, so
// a deferred task dispatches as soon as it fits.
func (d *Dispatcher) pickLocked(b *backend) *Task {
	// Breaker gate: an open breaker refuses dispatch outright; a half-open
	// one admits a bounded number of probes. Bypassed after Close so a sick
	// pool can never wedge a drain.
	if b.br != nil && !d.closed {
		if b.br.state == stateOpen {
			if time.Now().Before(b.br.openUntil) {
				return nil
			}
			b.br.state = stateHalfOpen
			b.br.probing = 0
			b.br.probeOK = 0
		}
		if b.br.state == stateHalfOpen && b.br.probing >= b.br.cfg.Probes {
			return nil
		}
	}
	gate := d.memAware && b.memoryMB > 0 && b.busy > 0
	honorAvoid := d.avoidActive && !d.closed
	for _, class := range d.order {
		q := d.queues[class]
		if q == nil || q.n == 0 {
			continue
		}
		bestIdx := -1
		var bestAff string
		var best *Task
		for _, aff := range [2]string{b.name, ""} {
			bucket := q.byAff[aff]
			if i := d.firstFitLocked(bucket, b, gate, honorAvoid); i >= 0 {
				if best == nil || d.policy.Less(bucket[i], best) {
					best, bestAff, bestIdx = bucket[i], aff, i
				}
			}
		}
		if best == nil {
			// Only foreign-affinity work queued (or nothing preferred
			// fits): steal the class's least fitting task.
			for aff, bucket := range q.byAff {
				if i := d.firstFitLocked(bucket, b, gate, honorAvoid); i >= 0 {
					if best == nil || d.policy.Less(bucket[i], best) {
						best, bestAff, bestIdx = bucket[i], aff, i
					}
				}
			}
			if best == nil {
				if gate {
					// Queued work, but none of it fits the remaining budget.
					d.memWaits.Inc()
				}
				continue
			}
			d.stolen.Inc()
		}
		return d.removeLocked(q, bestAff, bestIdx)
	}
	return nil
}

// shedForLocked makes room for t by evicting the least-urgent task of the
// lowest-priority backlogged class at or below t's priority, returning the
// victim. It returns nil when t itself is the least-urgent candidate (the
// caller drops t instead).
func (d *Dispatcher) shedForLocked(t *Task) *Task {
	ti := d.classIndexLocked(t.Class)
	for i := len(d.order) - 1; i >= ti; i-- {
		q := d.queues[d.order[i]]
		if q == nil || q.n == 0 {
			continue
		}
		// Victim: the policy-greatest task in the class (max over bucket
		// tails; buckets are sorted ascending).
		var victimAff string
		var victim *Task
		for aff, bucket := range q.byAff {
			if len(bucket) == 0 {
				continue
			}
			if last := bucket[len(bucket)-1]; victim == nil || d.policy.Less(victim, last) {
				victim, victimAff = last, aff
			}
		}
		if i == ti && !d.policy.Less(t, victim) {
			return nil // incoming is least urgent in its own class
		}
		bucket := q.byAff[victimAff]
		bucket[len(bucket)-1] = nil
		q.byAff[victimAff] = bucket[:len(bucket)-1]
		q.n--
		d.backlog--
		return victim
	}
	return nil
}

// slaStatsLocked returns the accounting bucket for class, collapsing unseen
// classes into the overflow bucket once maxTrackedClasses are tracked (each
// bucket owns a latency reservoir, so cardinality must stay bounded).
func (d *Dispatcher) slaStatsLocked(class string) *slaStats {
	if st := d.perSLA[class]; st != nil {
		return st
	}
	if len(d.perSLA) >= maxTrackedClasses {
		if st := d.perSLA[overflowClass]; st != nil {
			return st
		}
		class = overflowClass
	}
	st := newSLAStats(d.metrics, class)
	d.perSLA[class] = st
	return st
}

// worker is one backend slot: pick, execute, account, repeat. It exits when
// the dispatcher is closed and the backlog is drained.
func (d *Dispatcher) worker(b *backend) {
	defer d.wg.Done()
	for {
		d.mu.Lock()
		var t *Task
		for {
			if t = d.pickLocked(b); t != nil || d.closed {
				break
			}
			d.waiting++
			d.cond.Wait()
			d.waiting--
		}
		if t == nil {
			d.mu.Unlock()
			return
		}
		d.backlog--
		if st := t.state; st != nil && st.done {
			// A racing sibling delivered the outcome while this attempt sat
			// queued: retire it without executing.
			st.outstanding--
			d.hedgeWaste.Inc()
			if d.waiting > 0 {
				d.cond.Broadcast()
			}
			d.mu.Unlock()
			continue
		}
		d.inflight++
		b.busy++
		b.memUsed += t.MemMB
		b.actualUsed += t.ActualMemMB
		if b.memoryMB > 0 && b.actualUsed > b.memoryMB {
			// The observed working set just overran the budget: with
			// memory-blind admission this is the OOM the plane exists to
			// prevent; with memory-aware admission it quantifies prediction
			// error. Either way it is an accounted violation, never a stall.
			b.oomEvents.Inc()
			d.oomViolations.Inc()
			d.slaStatsLocked(t.SLAClass).oomViolations.Inc()
		}
		t.Attempt++
		t.Query.Trace().MarkAttempt(b.name)
		probe := false
		if b.br != nil && b.br.state == stateHalfOpen {
			b.br.probing++
			probe = true
		}
		ctx := d.armAttemptLocked(t)
		d.maybeHedgeLocked(t, b)
		d.mu.Unlock()

		t.Started = time.Now()
		t.RanOn = b.name
		err := b.exec(t)
		d.completeAttempt(t, b, err, time.Now(), probe, ctx)
	}
}

// armAttemptLocked builds the attempt's execution context — cancelled at
// min(ExecDeadline, now+AttemptTimeout), or by the winning sibling of a
// hedge race — registers it on the shared state, and returns it (nil when no
// context is needed).
func (d *Dispatcher) armAttemptLocked(t *Task) *attemptCtx {
	st := t.state
	if st == nil {
		return nil
	}
	deadline := t.ExecDeadline
	if d.retry != nil && d.retry.AttemptTimeout > 0 {
		if at := time.Now().Add(d.retry.AttemptTimeout); deadline.IsZero() || at.Before(deadline) {
			deadline = at
		}
	}
	hedgeable := d.hedge != nil && len(d.names) > 1
	if deadline.IsZero() && !hedgeable {
		return nil
	}
	ctx := &attemptCtx{deadline: deadline}
	t.ctx = ctx
	st.addCancel(ctx)
	return ctx
}

// maybeHedgeLocked arms the hedge timer for a freshly dispatched attempt:
// if it is still executing After later, a clone is queued for another
// backend. One hedge per query, and never for the hedge itself.
func (d *Dispatcher) maybeHedgeLocked(t *Task, b *backend) {
	if d.hedge == nil || t.Hedge || len(d.names) < 2 {
		return
	}
	st := t.state
	if st == nil || st.hedged {
		return
	}
	st.hedged = true
	he := &hedgeEntry{t: t, backend: b.name}
	st.hedge = he
	d.hedgeTimers[he] = struct{}{}
	he.timer = time.AfterFunc(d.hedge.After, func() { d.fireHedge(he) })
}

// fireHedge runs when an attempt has straggled past HedgeConfig.After: it
// queues a clone of the task (sharing the original's completion state and
// deadlines) steered away from the straggling backend. Map membership in
// hedgeTimers decides the race against completion and Close.
func (d *Dispatcher) fireHedge(he *hedgeEntry) {
	d.mu.Lock()
	if _, ok := d.hedgeTimers[he]; !ok {
		d.mu.Unlock()
		return
	}
	delete(d.hedgeTimers, he)
	t := he.t
	st := t.state
	if st.hedge == he {
		st.hedge = nil
	}
	if d.closed || st.done ||
		float64(d.hedges.Load()+1) > d.hedge.Budget*float64(d.submitted.Load())+float64(d.hedge.BudgetFloor) {
		d.mu.Unlock()
		return
	}
	clone := &Task{
		Query:        t.Query,
		Class:        t.Class,
		SLAClass:     t.SLAClass,
		CostMS:       t.CostMS,
		MemMB:        t.MemMB,
		ActualMemMB:  t.ActualMemMB,
		Deadline:     t.Deadline,
		Submitted:    t.Submitted,
		ExecDeadline: t.ExecDeadline,
		Attempt:      t.Attempt,
		Hedge:        true,
		seq:          d.seq,
		state:        st,
		avoid:        he.backend,
	}
	d.seq++
	st.outstanding++
	d.hedges.Inc()
	t.Query.Trace().MarkHedge()
	// Hedges bypass QueueCap — they are bounded by the hedge budget.
	d.pushLocked(clone)
	d.backlog++
	if d.waiting > 0 {
		d.cond.Broadcast()
	}
	d.mu.Unlock()
}

// completeAttempt settles one executed attempt: release the slot, record
// backend health, then decide the outcome — deliver success, schedule a
// retry, wait on a live sibling, or fail terminally.
func (d *Dispatcher) completeAttempt(t *Task, b *backend, err error, finished time.Time, probe bool, ctx *attemptCtx) {
	t.Finished = finished
	attemptMS := float64(finished.Sub(t.Started)) / float64(time.Millisecond)
	d.mu.Lock()
	d.inflight--
	b.busy--
	b.memUsed -= t.MemMB
	b.actualUsed -= t.ActualMemMB
	st := t.state
	if ctx != nil {
		st.dropCancel(ctx)
		ctx.cancel(context.Canceled)
	}
	d.recordHealthLocked(b, err == nil, attemptMS, probe)
	if st != nil && st.done {
		// A racing sibling already delivered: this attempt's outcome is void.
		st.outstanding--
		d.hedgeWaste.Inc()
		if d.waiting > 0 {
			d.cond.Broadcast()
		}
		d.mu.Unlock()
		return
	}
	if err == nil {
		if st != nil {
			st.outstanding--
		}
		t.Err = nil
		d.finishLocked(t, b, nil) // unlocks
		return
	}
	expired := !t.ExecDeadline.IsZero() && !finished.Before(t.ExecDeadline)
	if expired {
		d.deadlineExceeded.Inc()
	}
	if st != nil && d.retry != nil && !expired && !isPermanent(err) && st.retries < d.retry.MaxRetries {
		cs := d.slaStatsLocked(t.SLAClass)
		if float64(cs.retries.Load()+1) <= d.retry.Budget*float64(cs.admitted.Load())+float64(d.retry.BudgetFloor) {
			st.retries++
			cs.retries.Inc()
			d.retries.Inc()
			t.Query.Trace().MarkRetry()
			t.avoid = b.name
			t.Err = nil
			d.scheduleRetryLocked(t, d.backoffLocked(st.retries))
			if d.waiting > 0 {
				d.cond.Broadcast()
			}
			d.mu.Unlock()
			return
		}
		d.retryStarved.Inc()
	}
	if st != nil {
		st.outstanding--
		if st.outstanding > 0 {
			// A sibling attempt is still live; it will deliver the outcome.
			if d.waiting > 0 {
				d.cond.Broadcast()
			}
			d.mu.Unlock()
			return
		}
	}
	t.Err = err
	d.finishLocked(t, b, err) // unlocks
}

// finishLocked delivers the terminal outcome for a query: accounting under
// the lock, then OnDone outside it. Exactly one terminal delivery happens
// per admitted query — the done flag retires every racing sibling. Called
// with mu held; unlocks.
func (d *Dispatcher) finishLocked(t *Task, b *backend, err error) {
	if st := t.state; st != nil {
		d.retireStateLocked(st)
	}
	cs := d.slaStatsLocked(t.SLAClass)
	outcome := obs.OutcomeCompleted
	if err == nil {
		b.completed.Inc()
		d.completed.Inc()
		cs.completed.Inc()
		cs.record(float64(t.Latency()) / float64(time.Millisecond))
		cs.hist.Observe(t.Latency())
		if !t.Deadline.IsZero() && t.Finished.After(t.Deadline) {
			cs.violations.Inc()
			cs.penaltyMS += float64(t.Finished.Sub(t.Deadline)) / float64(time.Millisecond)
		}
		if t.Hedge {
			d.hedgeWins.Inc()
		}
	} else {
		b.failed.Inc()
		d.failed.Inc()
		cs.failed.Inc()
		outcome = obs.OutcomeFailed
	}
	// Settle under the lock: the done flag set in retireStateLocked orders
	// racing siblings behind this terminal delivery, so no late mark can
	// touch the trace after its record is published.
	t.Query.Trace().Settle(outcome, err)
	if d.waiting > 0 {
		d.cond.Broadcast()
	}
	done := d.onDone
	deliver := done != nil || d.audit != nil
	if deliver {
		d.termPending.Add(1)
	}
	d.mu.Unlock()
	if !deliver {
		return
	}
	d.auditTask(t, outcome, err)
	if done != nil {
		done(t)
	}
	if d.termPending.Add(-1) == 0 && d.drainers.Load() > 0 {
		d.mu.Lock()
		d.cond.Broadcast()
		d.mu.Unlock()
	}
}

// recordHealthLocked folds one attempt's outcome into the backend's breaker:
// EWMA updates, probe verdicts (close on enough healthy probes, re-open on a
// sick one), and the closed-state trip check.
func (d *Dispatcher) recordHealthLocked(b *backend, ok bool, latMS float64, probe bool) {
	br := b.br
	if br == nil {
		return
	}
	br.observe(ok, latMS)
	if probe {
		br.probing--
		if br.state == stateHalfOpen {
			if br.probeHealthy(ok, latMS) {
				br.probeOK++
				if br.probeOK >= br.cfg.ProbeSuccesses {
					br.close()
				}
			} else {
				d.openBreakerLocked(b)
			}
		}
		return
	}
	if br.state == stateClosed && br.shouldTrip() {
		d.openBreakerLocked(b)
	}
}

// openBreakerLocked trips b's breaker and schedules a wake-up at the end of
// the open window so parked workers re-run pickLocked and start probing.
func (d *Dispatcher) openBreakerLocked(b *backend) {
	now := time.Now()
	until := b.br.open(now)
	time.AfterFunc(until.Sub(now)+time.Millisecond, func() {
		d.mu.Lock()
		d.cond.Broadcast()
		d.mu.Unlock()
	})
}

// backoffLocked draws retry n's backoff: uniform in
// [0, min(BaseBackoff<<(n-1), MaxBackoff)) — capped exponential, full jitter.
func (d *Dispatcher) backoffLocked(n int) time.Duration {
	max := d.retry.MaxBackoff
	if n-1 < 32 {
		if exp := d.retry.BaseBackoff << uint(n-1); exp > 0 && exp < max {
			max = exp
		}
	}
	if max <= 0 {
		return 0
	}
	return time.Duration(d.retryRNG.Int63n(int64(max)))
}

// scheduleRetryLocked parks t for delay before requeueing it. After Close
// (or with no delay) the requeue is immediate, so a draining dispatcher
// finishes its retries instead of leaking them.
func (d *Dispatcher) scheduleRetryLocked(t *Task, delay time.Duration) {
	if d.closed || delay <= 0 {
		d.requeueLocked(t)
		return
	}
	re := &retryEntry{t: t}
	d.pendingRetries++
	d.retryTimers[re] = struct{}{}
	re.timer = time.AfterFunc(delay, func() { d.fireRetry(re) })
}

// fireRetry runs when a backoff elapses; map membership decides the race
// against Close (whoever deletes the entry owns the requeue).
func (d *Dispatcher) fireRetry(re *retryEntry) {
	d.mu.Lock()
	if _, ok := d.retryTimers[re]; !ok {
		d.mu.Unlock()
		return
	}
	delete(d.retryTimers, re)
	d.pendingRetries--
	d.releaseRetryLocked(re.t)
	if d.waiting > 0 {
		d.cond.Broadcast()
	}
	d.mu.Unlock()
}

// releaseRetryLocked requeues a parked retry — or retires it when a racing
// sibling already delivered the outcome.
func (d *Dispatcher) releaseRetryLocked(t *Task) {
	if st := t.state; st != nil && st.done {
		st.outstanding--
		d.hedgeWaste.Inc()
		return
	}
	d.requeueLocked(t)
}

// requeueLocked re-admits an already-accounted task into its queue.
func (d *Dispatcher) requeueLocked(t *Task) {
	t.RanOn = ""
	t.ctx = nil
	d.pushLocked(t)
	d.backlog++
}

// Close stops intake: subsequent Enqueue calls return ErrClosed. Backend
// slots finish the queued backlog and exit; use Drain to wait for them.
// Pending hedges are cancelled and pending retries requeue immediately —
// their backoffs collapse so the drain finishes them rather than racing
// their timers. Close is idempotent.
func (d *Dispatcher) Close() {
	d.mu.Lock()
	d.closed = true
	for he := range d.hedgeTimers {
		he.timer.Stop()
		delete(d.hedgeTimers, he)
	}
	for re := range d.retryTimers {
		re.timer.Stop()
		delete(d.retryTimers, re)
		d.pendingRetries--
		d.releaseRetryLocked(re.t)
	}
	d.cond.Broadcast()
	d.mu.Unlock()
}

// Drain blocks until every queued and in-flight task has completed — hook
// and audit deliveries included, so OnDone tallies and the audit stream are
// settled when it returns — or until timeout (timeout <= 0 waits forever).
// It does not stop intake — callers wanting shutdown semantics Close first.
func (d *Dispatcher) Drain(timeout time.Duration) error {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
		timer := time.AfterFunc(timeout, func() {
			d.mu.Lock()
			d.cond.Broadcast()
			d.mu.Unlock()
		})
		defer timer.Stop()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	// Announce the wait before reading termPending: a delivery that drops it
	// to zero after this read then sees drainers > 0 and broadcasts.
	d.drainers.Add(1)
	defer d.drainers.Add(-1)
	for d.backlog > 0 || d.inflight > 0 || d.pendingRetries > 0 || d.termPending.Load() > 0 {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return fmt.Errorf("sched: drain timed out with %d queued, %d in flight, %d retries pending",
				d.backlog, d.inflight, d.pendingRetries)
		}
		d.waiting++
		d.cond.Wait()
		d.waiting--
	}
	return nil
}

// QueueSnapshot is one class queue's depth.
type QueueSnapshot struct {
	Class string `json:"class"`
	Depth int    `json:"depth"`
}

// SLASnapshot is one SLA class's accounting. Dropped counts the class's
// tasks shed under overload; they complete nowhere, so they appear in
// neither Completed nor Violations — a class can look violation-free while
// its work is being dropped, which is exactly what Dropped surfaces.
type SLASnapshot struct {
	Class      string  `json:"class"`
	TargetMS   float64 `json:"targetMS"` // 0 when the class has no target
	Admitted   uint64  `json:"admitted"`
	Completed  uint64  `json:"completed"`
	Failed     uint64  `json:"failed"`
	Retries    uint64  `json:"retries"`
	Violations uint64  `json:"violations"`
	Dropped    uint64  `json:"dropped"`
	// OOMViolations counts the class's dispatches that pushed a backend's
	// observed working set past its declared memory budget.
	OOMViolations uint64  `json:"oomViolations"`
	PenaltyMS     float64 `json:"penaltyMS"`
	P50MS         float64 `json:"p50MS"`
	P99MS         float64 `json:"p99MS"`
}

// BackendSnapshot is one backend's occupancy, memory pressure, and health.
type BackendSnapshot struct {
	Name      string `json:"name"`
	Slots     int    `json:"slots"`
	Busy      int    `json:"busy"`
	Completed uint64 `json:"completed"`
	// Failed counts tasks that failed terminally on this backend.
	Failed uint64 `json:"failed,omitempty"`
	// MemoryMB is the configured working-set budget (0 = unbounded).
	MemoryMB float64 `json:"memoryMB,omitempty"`
	// MemUsedMB is the aggregate predicted working set of running tasks.
	MemUsedMB float64 `json:"memUsedMB,omitempty"`
	// OOMEvents counts dispatches that pushed the backend's observed working
	// set past its budget.
	OOMEvents uint64 `json:"oomEvents,omitempty"`
	// Breaker is the circuit breaker's current state — closed, open,
	// half-open, or quarantined (empty when breakers are off).
	Breaker string `json:"breaker,omitempty"`
	// ErrEWMA and LatEWMAMS are the health signals the breaker trips on.
	ErrEWMA   float64 `json:"errEWMA,omitempty"`
	LatEWMAMS float64 `json:"latEWMAMS,omitempty"`
	// BreakerOpens and Quarantines count lifetime trips.
	BreakerOpens uint64 `json:"breakerOpens,omitempty"`
	Quarantines  uint64 `json:"quarantines,omitempty"`
}

// Snapshot is a point-in-time view of the scheduling plane — quercd's
// GET /v1/sched payload. Counter conservation: after a drain,
// Submitted == Completed + Failed + Evicted (every admitted query reaches
// exactly one terminal outcome, however many attempts it took); mid-flight
// the remainder is spread across Backlog, Inflight, and PendingRetries
// (hedge clones inflate Backlog/Inflight without touching Submitted).
// Rejected and Shed count Enqueue calls that never admitted.
type Snapshot struct {
	Policy    string `json:"policy"`
	Submitted uint64 `json:"submitted"`
	Completed uint64 `json:"completed"`
	// Failed counts queries whose terminal outcome was an error — retries
	// exhausted, retry budget spent, permanent error, or deadline exceeded.
	Failed   uint64 `json:"failed"`
	Rejected uint64 `json:"rejected"` // backpressured Enqueue calls
	Shed     uint64 `json:"shed"`     // incoming tasks refused by load shedding
	Evicted  uint64 `json:"evicted"`  // queued tasks evicted by load shedding
	Stolen   uint64 `json:"stolen"`   // dispatches ignoring affinity
	// OOMViolations counts dispatches that pushed a backend's observed
	// working set past its declared memory budget.
	OOMViolations uint64 `json:"oomViolations"`
	// MemWaits counts class scans skipped because no queued task fit the
	// picking backend's remaining memory budget.
	MemWaits uint64 `json:"memWaits"`
	// Retries counts re-dispatches after retriable failures; RetryStarved
	// counts retriable failures denied by an exhausted class budget;
	// PendingRetries is the number currently parked in a backoff.
	Retries        uint64 `json:"retries"`
	RetryStarved   uint64 `json:"retryStarved"`
	PendingRetries int    `json:"pendingRetries"`
	// Hedges counts hedge clones queued; HedgeWins, queries whose clone
	// delivered the result; HedgeWaste, attempts discarded because a racing
	// sibling finished first.
	Hedges     uint64 `json:"hedges"`
	HedgeWins  uint64 `json:"hedgeWins"`
	HedgeWaste uint64 `json:"hedgeWaste"`
	// DeadlineExceeded counts attempts that failed past their execution
	// deadline.
	DeadlineExceeded uint64 `json:"deadlineExceeded"`
	// BreakerOpen and Quarantined are the number of backends currently in
	// those states.
	BreakerOpen int               `json:"breakerOpen"`
	Quarantined int               `json:"quarantined"`
	Backlog     int               `json:"backlog"`
	Inflight    int               `json:"inflight"`
	Queues      []QueueSnapshot   `json:"queues"`
	Classes     []SLASnapshot     `json:"classes"`
	Backends    []BackendSnapshot `json:"backends"`
}

// Counters returns the scalar counters only — no queue listings and, more
// to the point, no latency-reservoir copies or sorts — for cheap
// high-frequency polling (quercd's /v1/stats rollup).
func (d *Dispatcher) Counters() Snapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.countersLocked()
}

// countersLocked assembles the scalar half of a Snapshot.
func (d *Dispatcher) countersLocked() Snapshot {
	s := Snapshot{
		Policy:           d.policy.Name(),
		Submitted:        d.submitted.Load(),
		Completed:        d.completed.Load(),
		Failed:           d.failed.Load(),
		Rejected:         d.rejected.Load(),
		Shed:             d.shedCount.Load(),
		Evicted:          d.evicted.Load(),
		Stolen:           d.stolen.Load(),
		OOMViolations:    d.oomViolations.Load(),
		MemWaits:         d.memWaits.Load(),
		Retries:          d.retries.Load(),
		RetryStarved:     d.retryStarved.Load(),
		PendingRetries:   d.pendingRetries,
		Hedges:           d.hedges.Load(),
		HedgeWins:        d.hedgeWins.Load(),
		HedgeWaste:       d.hedgeWaste.Load(),
		DeadlineExceeded: d.deadlineExceeded.Load(),
		Backlog:          d.backlog,
		Inflight:         d.inflight,
	}
	if d.breakerCfg != nil {
		now := time.Now()
		for _, name := range d.names {
			br := d.backends[name].br
			if br.blocked(now) {
				s.BreakerOpen++
				if br.quarantined {
					s.Quarantined++
				}
			}
		}
	}
	return s
}

// Stats returns a consistent snapshot of counters, queue depths, per-class
// SLA accounting, and backend occupancy. Latency reservoirs are copied
// under the lock but sorted for percentiles after releasing it, so a stats
// poll never stalls admission or dispatch on the sort; monitoring loops
// that only need the counters should call Counters instead.
func (d *Dispatcher) Stats() Snapshot {
	d.mu.Lock()
	s := d.countersLocked()
	for _, class := range d.order {
		s.Queues = append(s.Queues, QueueSnapshot{Class: class, Depth: d.queues[class].n})
	}
	classes := make([]string, 0, len(d.perSLA))
	for class := range d.perSLA {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	lats := make([][]float64, len(classes))
	for i, class := range classes {
		st := d.perSLA[class]
		lats[i] = append([]float64(nil), st.lat[:st.latN]...)
		s.Classes = append(s.Classes, SLASnapshot{
			Class:         class,
			TargetMS:      float64(d.sla[class]) / float64(time.Millisecond),
			Admitted:      st.admitted.Load(),
			Completed:     st.completed.Load(),
			Failed:        st.failed.Load(),
			Retries:       st.retries.Load(),
			Violations:    st.violations.Load(),
			Dropped:       st.dropped.Load(),
			OOMViolations: st.oomViolations.Load(),
			PenaltyMS:     st.penaltyMS,
		})
	}
	for _, name := range d.names {
		bk := d.backends[name]
		bs := BackendSnapshot{
			Name: bk.name, Slots: bk.slots, Busy: bk.busy,
			Completed: bk.completed.Load(), Failed: bk.failed.Load(),
			MemoryMB: bk.memoryMB, MemUsedMB: bk.memUsed, OOMEvents: bk.oomEvents.Load(),
		}
		if br := bk.br; br != nil {
			bs.Breaker = br.stateName()
			bs.ErrEWMA = br.errEWMA
			bs.LatEWMAMS = br.latEWMA
			bs.BreakerOpens = br.opens
			bs.Quarantines = br.quarantines
		}
		s.Backends = append(s.Backends, bs)
	}
	d.mu.Unlock()
	for i := range s.Classes {
		s.Classes[i].P50MS, s.Classes[i].P99MS = percentiles(lats[i])
	}
	return s
}
