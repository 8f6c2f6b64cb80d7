package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Outcome is the terminal state of a traced query — the same partition the
// dispatcher's conservation ledger accounts (every submitted query settles
// exactly once as completed, failed, or evicted; rejected and shed queries
// never enter the ledger but still settle their trace).
type Outcome uint8

const (
	// OutcomePending is the zero value: the trace has not settled.
	OutcomePending Outcome = iota
	// OutcomeAnnotated ends traces of queries that finish the labeling
	// pipeline with no scheduling plane attached (fork-only deployments).
	OutcomeAnnotated
	// OutcomeCompleted is successful dispatch.
	OutcomeCompleted
	// OutcomeFailed is terminal execution failure.
	OutcomeFailed
	// OutcomeRejected is queue-full backpressure at admission.
	OutcomeRejected
	// OutcomeShed is refusal at admission by the load shedder.
	OutcomeShed
	// OutcomeEvicted is a queued query displaced by a higher-value arrival.
	OutcomeEvicted
	numOutcomes
)

// String returns the lowercase outcome tag used in records, audit events,
// and the /v1/trace filter.
func (o Outcome) String() string {
	switch o {
	case OutcomeAnnotated:
		return "annotated"
	case OutcomeCompleted:
		return "completed"
	case OutcomeFailed:
		return "failed"
	case OutcomeRejected:
		return "rejected"
	case OutcomeShed:
		return "shed"
	case OutcomeEvicted:
		return "evicted"
	default:
		return "pending"
	}
}

// TraceRecord is the settled form of one query's lifecycle: span durations
// through the annotation pipeline (tokenize/embed/label), scheduling-plane
// timestamps (admit, queue wait, execution), attempt accounting
// (retries/hedges), and the terminal outcome. Records are plain values — the
// ring stores copies, so readers never alias a live trace.
type TraceRecord struct {
	App      string `json:"app,omitempty"`
	SQL      string `json:"sql"`
	Outcome  string `json:"outcome"`
	Class    string `json:"class,omitempty"`    // predicted resource class at admission
	SLAClass string `json:"slaClass,omitempty"` // SLA accounting class
	Backend  string `json:"backend,omitempty"`  // backend of the settling attempt
	Err      string `json:"err,omitempty"`

	SubmitUnixNano int64 `json:"submitUnixNano"`
	TokenizeNs     int64 `json:"tokenizeNs,omitempty"`
	EmbedNs        int64 `json:"embedNs,omitempty"`
	LabelNs        int64 `json:"labelNs,omitempty"`
	QueueNs        int64 `json:"queueNs,omitempty"` // admission → first dispatch
	ExecNs         int64 `json:"execNs,omitempty"`  // last attempt start → settle
	TotalNs        int64 `json:"totalNs"`           // submit → settle

	Attempts int  `json:"attempts,omitempty"`
	Retries  int  `json:"retries,omitempty"`
	Hedged   bool `json:"hedged,omitempty"`
	CacheHit bool `json:"cacheHit,omitempty"` // embedding served from the vector cache
}

// Trace is one sampled query's live lifecycle record. Traces come from
// Tracer.Begin (nil when the query is unsampled — every method is valid on a
// nil *Trace, so call sites mark unconditionally), ride the query through
// annotation and scheduling, and are settled exactly once at the terminal
// outcome, which publishes a copy of the record to the tracer's ring. Every
// Begin returns a fresh Trace, so a settled trace is never reused for
// another query.
//
// A Trace is not internally synchronized: the pipeline serializes marks by
// construction (the Qworker marks before handing the query on; the dispatcher
// marks under its own mutex and settles there too). The settled flag is
// atomic, so a late mark racing a settle degrades to a no-op instead of
// altering the published record, and a second settle is counted rather than
// honored — the exactly-once mirror of the dispatcher's conservation ledger.
type Trace struct {
	tr      *Tracer
	settled atomic.Uint32
	submit  time.Time // monotonic base for TotalNs
	admit   time.Time // monotonic base for QueueNs
	started time.Time // monotonic base for ExecNs
	rec     TraceRecord
}

// MarkTokenize adds one tokenization span.
//
//querc:hotpath
func (t *Trace) MarkTokenize(d time.Duration) {
	if t == nil || t.settled.Load() != 0 {
		return
	}
	t.rec.TokenizeNs += int64(d)
}

// MarkEmbed adds one embedding-inference span (cache misses only).
//
//querc:hotpath
func (t *Trace) MarkEmbed(d time.Duration) {
	if t == nil || t.settled.Load() != 0 {
		return
	}
	t.rec.EmbedNs += int64(d)
}

// MarkLabel adds one labeling span.
//
//querc:hotpath
func (t *Trace) MarkLabel(d time.Duration) {
	if t == nil || t.settled.Load() != 0 {
		return
	}
	t.rec.LabelNs += int64(d)
}

// MarkCacheHit tags the query as served by the embedding-plane vector cache.
//
//querc:hotpath
func (t *Trace) MarkCacheHit() {
	if t == nil || t.settled.Load() != 0 {
		return
	}
	t.rec.CacheHit = true
}

// MarkAdmit stamps admission into the scheduling plane with the classes the
// admission decision used.
//
//querc:hotpath
func (t *Trace) MarkAdmit(class, slaClass string) {
	if t == nil || t.settled.Load() != 0 {
		return
	}
	t.rec.Class = class
	t.rec.SLAClass = slaClass
	t.admit = time.Now()
}

// MarkAttempt stamps one dispatch attempt onto backend. The first attempt
// closes the queue-wait span.
//
//querc:hotpath
func (t *Trace) MarkAttempt(backend string) {
	if t == nil || t.settled.Load() != 0 {
		return
	}
	now := time.Now()
	if t.rec.Attempts == 0 && !t.admit.IsZero() {
		t.rec.QueueNs = int64(now.Sub(t.admit))
	}
	t.rec.Attempts++
	t.rec.Backend = backend
	t.started = now
}

// MarkRetry counts one retry reschedule.
//
//querc:hotpath
func (t *Trace) MarkRetry() {
	if t == nil || t.settled.Load() != 0 {
		return
	}
	t.rec.Retries++
}

// MarkHedge tags the query as hedged (a speculative clone was dispatched).
//
//querc:hotpath
func (t *Trace) MarkHedge() {
	if t == nil || t.settled.Load() != 0 {
		return
	}
	t.rec.Hedged = true
}

// Settle finalizes the trace with its terminal outcome and publishes the
// record to the tracer's ring; later marks on t are no-ops. Exactly one
// Settle wins; later calls are counted as double settles and dropped. Valid
// on a nil *Trace.
func (t *Trace) Settle(o Outcome, err error) {
	if t == nil {
		return
	}
	if !t.settled.CompareAndSwap(0, 1) {
		if t.tr != nil {
			t.tr.doubleSettles.Add(1)
		}
		return
	}
	t.rec.Outcome = o.String()
	t.rec.TotalNs = int64(time.Since(t.submit))
	if !t.started.IsZero() {
		t.rec.ExecNs = int64(time.Since(t.started))
	}
	if err != nil {
		t.rec.Err = err.Error()
	}
	if t.tr != nil {
		t.tr.settle(t, o)
	}
}

// Settled reports whether the trace has reached its terminal outcome. Valid
// on a nil *Trace (true: an absent trace needs no settling).
func (t *Trace) Settled() bool { return t == nil || t.settled.Load() != 0 }

// sampleDenom is the resolution of the sampling threshold.
const sampleDenom = 1 << 20

// defaultRing bounds the settled-record ring when TracerConfig.RingSize is
// unset.
const defaultRing = 1024

// TracerConfig configures a Tracer.
type TracerConfig struct {
	// SampleRate is the fraction of queries traced, decided by a
	// deterministic hash of the query text: 0 disables, 1 traces all.
	// Hashing (not counting) keeps the decision stable per query text
	// across runs and across processes.
	SampleRate float64
	// RingSize bounds the in-memory ring of settled records served by
	// GET /v1/trace (default 1024; the ring stores record values, so memory
	// is bounded by RingSize × record size, independent of load).
	RingSize int
}

// Tracer owns sampling, the settled-record ring, and the per-outcome settle
// ledger. All methods are valid on a nil *Tracer, so the pipeline threads an
// optional tracer without branching.
type Tracer struct {
	threshold uint64

	begun         atomic.Uint64
	sampledN      atomic.Uint64
	settledN      [numOutcomes]atomic.Uint64
	doubleSettles atomic.Uint64

	mu      sync.Mutex
	ring    []TraceRecord
	ringPos int // next write slot
	ringLen int // valid records (<= len(ring))
}

// NewTracer builds a tracer from cfg.
func NewTracer(cfg TracerConfig) *Tracer {
	rate := cfg.SampleRate
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	size := cfg.RingSize
	if size <= 0 {
		size = defaultRing
	}
	return &Tracer{
		threshold: uint64(rate * sampleDenom),
		ring:      make([]TraceRecord, size),
	}
}

// Begin starts a trace for one query, returning nil when the query is not
// sampled (or the tracer is nil) — callers mark through the nil unharmed.
//
//querc:hotpath
func (tr *Tracer) Begin(app, sql string) *Trace {
	if tr == nil {
		return nil
	}
	tr.begun.Add(1)
	if !tr.sampleHash(sql) {
		return nil
	}
	tr.sampledN.Add(1)
	now := time.Now()
	return &Trace{tr: tr, submit: now, rec: TraceRecord{App: app, SQL: sql, SubmitUnixNano: now.UnixNano()}}
}

// sampleHash decides sampling by FNV-1a over the query text against the
// configured threshold — deterministic, allocation-free, and stable across
// runs.
//
//querc:hotpath
func (tr *Tracer) sampleHash(sql string) bool {
	if tr.threshold >= sampleDenom {
		return true
	}
	if tr.threshold == 0 {
		return false
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(sql); i++ {
		h = (h ^ uint64(sql[i])) * 1099511628211
	}
	return h%sampleDenom < tr.threshold
}

// settle publishes a copy of a finalized record into the ring.
func (tr *Tracer) settle(t *Trace, o Outcome) {
	if o >= numOutcomes {
		o = OutcomePending
	}
	tr.settledN[o].Add(1)
	tr.mu.Lock()
	tr.ring[tr.ringPos] = t.rec
	tr.ringPos = (tr.ringPos + 1) % len(tr.ring)
	if tr.ringLen < len(tr.ring) {
		tr.ringLen++
	}
	tr.mu.Unlock()
}

// TraceQuery selects records from the settled ring.
type TraceQuery struct {
	// N caps the returned records (<=0 means 64).
	N int
	// Sort is "recent" (default: newest first) or "slowest" (TotalNs
	// descending).
	Sort string
	// Outcome filters by outcome tag ("completed", "shed", ...); empty
	// matches all.
	Outcome string
}

// Records returns settled trace records matching q, newest first unless
// q.Sort is "slowest". Valid on a nil *Tracer (returns nil).
func (tr *Tracer) Records(q TraceQuery) []TraceRecord {
	if tr == nil {
		return nil
	}
	limit := q.N
	if limit <= 0 {
		limit = 64
	}
	tr.mu.Lock()
	matched := make([]TraceRecord, 0, tr.ringLen)
	for i := 0; i < tr.ringLen; i++ {
		// Walk newest → oldest: the slot before ringPos is the last write.
		idx := (tr.ringPos - 1 - i + 2*len(tr.ring)) % len(tr.ring)
		rec := tr.ring[idx]
		if q.Outcome != "" && rec.Outcome != q.Outcome {
			continue
		}
		matched = append(matched, rec)
	}
	tr.mu.Unlock()
	if q.Sort == "slowest" {
		sort.SliceStable(matched, func(i, j int) bool { return matched[i].TotalNs > matched[j].TotalNs })
	}
	if len(matched) > limit {
		matched = matched[:limit]
	}
	return matched
}

// TracerStats is the tracer's own ledger: every sampled trace eventually
// lands in exactly one settled bucket, and DoubleSettles stays zero — the
// observable half of the exactly-once settle contract.
type TracerStats struct {
	Begun         uint64 `json:"begun"`   // queries offered to the sampler
	Sampled       uint64 `json:"sampled"` // traces actually begun
	Annotated     uint64 `json:"annotated"`
	Completed     uint64 `json:"completed"`
	Failed        uint64 `json:"failed"`
	Rejected      uint64 `json:"rejected"`
	Shed          uint64 `json:"shed"`
	Evicted       uint64 `json:"evicted"`
	DoubleSettles uint64 `json:"doubleSettles"`
	RingLen       int    `json:"ringLen"`
}

// Settled sums the per-outcome settle counts.
func (st TracerStats) Settled() uint64 {
	return st.Annotated + st.Completed + st.Failed + st.Rejected + st.Shed + st.Evicted
}

// Stats snapshots the tracer's counters. Valid on a nil *Tracer (zeros).
func (tr *Tracer) Stats() TracerStats {
	if tr == nil {
		return TracerStats{}
	}
	tr.mu.Lock()
	ringLen := tr.ringLen
	tr.mu.Unlock()
	return TracerStats{
		Begun:         tr.begun.Load(),
		Sampled:       tr.sampledN.Load(),
		Annotated:     tr.settledN[OutcomeAnnotated].Load(),
		Completed:     tr.settledN[OutcomeCompleted].Load(),
		Failed:        tr.settledN[OutcomeFailed].Load(),
		Rejected:      tr.settledN[OutcomeRejected].Load(),
		Shed:          tr.settledN[OutcomeShed].Load(),
		Evicted:       tr.settledN[OutcomeEvicted].Load(),
		DoubleSettles: tr.doubleSettles.Load(),
		RingLen:       ringLen,
	}
}

// Register exposes the tracer's ledger on a metrics registry:
// querc_trace_begun_total, querc_trace_sampled_total,
// querc_trace_settled_total{outcome=...}, querc_trace_double_settles_total.
// No-op on a nil tracer or registry.
func (tr *Tracer) Register(r *Registry) {
	if tr == nil || r == nil {
		return
	}
	r.CounterFunc("querc_trace_begun_total",
		"Queries offered to the trace sampler.",
		func() float64 { return float64(tr.begun.Load()) })
	r.CounterFunc("querc_trace_sampled_total",
		"Traces begun (sampled in).",
		func() float64 { return float64(tr.sampledN.Load()) })
	for o := OutcomeAnnotated; o < numOutcomes; o++ {
		o := o
		r.CounterFunc("querc_trace_settled_total",
			"Traces settled, by terminal outcome.",
			func() float64 { return float64(tr.settledN[o].Load()) },
			"outcome", o.String())
	}
	r.CounterFunc("querc_trace_double_settles_total",
		"Settle calls that lost the exactly-once race (should stay 0).",
		func() float64 { return float64(tr.doubleSettles.Load()) })
}
