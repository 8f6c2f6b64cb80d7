// Package querc is the public facade of the Querc library — a
// database-agnostic workload management and analytics system, reproduced
// from "Database-Agnostic Workload Management" (Jain, Yan, Cruanes, Howe —
// CIDR 2019).
//
// Querc models every workload-management task as query labeling over learned
// vector representations of raw SQL text. The facade re-exports the stable
// surface of the internal packages:
//
//   - embedders: Doc2Vec and LSTM-autoencoder models trained on query
//     corpora (TrainDoc2Vec, TrainLSTM), plus persistent storage (Registry);
//   - labelers: randomized-tree and nearest-centroid classifiers
//     (NewForestLabeler, NearestCentroidLabeler);
//   - the runtime: Service, Qworker, Classifier, LabeledQuery (Fig. 1 of the
//     paper). Queries enter one at a time via Service.Submit or as a
//     concurrent batch via Service.SubmitBatch, which fans classification
//     out across a bounded worker pool. Annotation runs on an embedding
//     plane: classifiers are grouped by embedder identity, each distinct
//     embedder's vector is computed once per query text and fanned to all
//     labelers on it, and a bounded sharded LRU VectorCache keyed by
//     (embedder name, SQL) is shared across every application;
//   - the drift plane: Service.EnableDriftControl attaches a Controller
//     that watches each application's recent-query statistics (embedding
//     centroids, predicted-label distributions, vector-cache hit rates),
//     scores workload drift per classifier, and — past a threshold — runs
//     rate-limited gated retrains, hot-swapping a challenger in only when
//     it beats the incumbent on recent holdout traffic;
//   - the scheduling plane: Service.AttachScheduler forwards annotated
//     queries into a Dispatcher whose pluggable policy turns predicted
//     labels into actions — the resource-class label picks a bounded
//     priority queue, the routing label picks a backend affinity, per-class
//     SLA targets are accounted (violations, penalties, latency
//     percentiles), and overload surfaces as backpressure or load shedding;
//   - applications: workload summarization for index tuning, security
//     auditing, routing checks, error prediction, resource allocation, and
//     query recommendation (via querc/internal/apps, re-exported here).
//
// See examples/ for runnable end-to-end scenarios and DESIGN.md for the
// architecture and experiment map.
package querc

import (
	"io"

	"querc/internal/apps"
	"querc/internal/core"
	"querc/internal/doc2vec"
	"querc/internal/drift"
	"querc/internal/lstm"
	"querc/internal/ml/forest"
	"querc/internal/obs"
	"querc/internal/sched"
	"querc/internal/vec"
)

// Re-exported core types. A LabeledQuery is the only message exchanged by
// Querc components; Embedder and Labeler are the two halves of every
// deployable Classifier; Qworkers host classifiers per application stream;
// Service wires the whole Fig. 1 topology.
type (
	LabeledQuery      = core.LabeledQuery
	Embedder          = core.Embedder
	TokenizedEmbedder = core.TokenizedEmbedder
	Labeler           = core.Labeler
	TrainableLabeler  = core.TrainableLabeler
	Classifier        = core.Classifier
	Qworker           = core.Qworker
	Service           = core.Service
	TrainingModule    = core.TrainingModule
	Registry          = core.Registry
	VectorCache       = core.VectorCache
	VectorCacheStats  = core.VectorCacheStats
	Vector            = vec.Vector
)

// Re-exported drift plane: the Controller closes the loop from each
// Qworker's recent-query statistics through drift detection to gated
// retrain/redeploy (Service.EnableDriftControl). DriftDetectorConfig tunes
// the detector's signals and weights; DriftScore/AppDriftStatus are the
// observability surface (quercd's GET /v1/drift).
type (
	Controller          = core.Controller
	ControllerConfig    = core.ControllerConfig
	AppDriftStatus      = core.AppDriftStatus
	KeyDriftStatus      = core.KeyDriftStatus
	DriftDetectorConfig = drift.Config
	DriftScore          = drift.Score
	DriftSample         = drift.Sample
)

// Re-exported scheduling plane: a Dispatcher (Service.AttachScheduler wires
// it behind every Qworker's Forward edge) admits annotated queries into
// bounded per-class priority queues under a SchedulerPolicy — FIFOPolicy is
// the label-blind baseline, LabelPolicy acts on the predicted resource class
// and routing cluster — and dispatches them across a Backend pool with
// per-class SLA accounting (SchedulerStats / quercd's GET /v1/sched).
type (
	Scheduler            = core.Scheduler
	Dispatcher           = sched.Dispatcher
	SchedulerConfig      = sched.Config
	SchedulerPolicy      = sched.Policy
	FIFOPolicy           = sched.FIFO
	LabelPolicy          = sched.LabelPolicy
	SchedBackend         = sched.Backend
	SchedTask            = sched.Task
	SchedExecutor        = sched.Executor
	SchedulerStats       = sched.Snapshot
	SchedSLASnapshot     = sched.SLASnapshot
	SchedBackendSnapshot = sched.BackendSnapshot
)

// Re-exported failure plane: per-query deadlines and retry/hedge dispatch
// (SchedulerConfig.Deadline/Retry/Hedge), per-backend circuit breakers
// (SchedulerConfig.Breaker) whose states surface in SchedulerStats, and the
// deterministic fault injector (NewFaultExecutor) that chaos experiments wrap
// around real executors.
type (
	SchedRetryConfig   = sched.RetryConfig
	SchedHedgeConfig   = sched.HedgeConfig
	SchedBreakerConfig = sched.BreakerConfig
	FaultConfig        = sched.FaultConfig
	FaultWindow        = sched.Window
	FaultExecutor      = sched.FaultExecutor
)

// Re-exported observability plane: every plane's counters, gauges, and
// latency histograms aggregate on one sharded, allocation-free
// MetricsRegistry (Service.Metrics; quercd's GET /metrics renders it in
// Prometheus text format). Service.EnableTracing samples per-query lifecycle
// Traces — submit through tokenize/embed/label, admission, dispatch attempts,
// and a terminal settle mirroring the dispatcher's conservation ledger — into
// a bounded in-memory ring (quercd's GET /v1/trace). An Auditor (or any
// AuditSink on SchedulerConfig.Audit) receives one structured event per query
// reaching a terminal outcome, encoded as JSON lines.
// (Registry names the model registry here, so the obs registry re-exports as
// MetricsRegistry.)
type (
	MetricsRegistry   = obs.Registry
	MetricsCounter    = obs.Counter
	MetricsGauge      = obs.Gauge
	MetricsHistogram  = obs.Histogram
	HistogramSnapshot = obs.HistogramSnapshot
	Trace             = obs.Trace
	TraceRecord       = obs.TraceRecord
	TraceOutcome      = obs.Outcome
	Tracer            = obs.Tracer
	TracerConfig      = obs.TracerConfig
	TracerStats       = obs.TracerStats
	TraceQuery        = obs.TraceQuery
	AuditEvent        = obs.AuditEvent
	AuditSink         = obs.AuditSink
	Auditor           = obs.Auditor
	AuditorStats      = obs.AuditorStats
)

// Trace outcomes recorded at settle time (TraceRecord.Outcome tags).
const (
	TraceOutcomePending   = obs.OutcomePending
	TraceOutcomeAnnotated = obs.OutcomeAnnotated
	TraceOutcomeCompleted = obs.OutcomeCompleted
	TraceOutcomeFailed    = obs.OutcomeFailed
	TraceOutcomeRejected  = obs.OutcomeRejected
	TraceOutcomeShed      = obs.OutcomeShed
	TraceOutcomeEvicted   = obs.OutcomeEvicted
)

// NewMetricsRegistry returns an empty metrics registry. Service owns one
// already (Service.Metrics); standalone registries suit tests and embedders
// that bypass the Service.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewTracer builds a lifecycle tracer outside a Service (tests, custom
// runtimes). Most callers want Service.EnableTracing instead, which also
// registers the tracer's settle ledger on the service registry.
func NewTracer(cfg TracerConfig) *Tracer { return obs.NewTracer(cfg) }

// NewAuditor returns an audit sink encoding events as JSON lines on w,
// buffered; call Flush (or Close) to write through.
func NewAuditor(w io.Writer) *Auditor { return obs.NewAuditor(w) }

// ValidatePromText checks a Prometheus text-exposition payload (as served by
// quercd's GET /metrics) for well-formedness — the checker behind the CI
// scrape smoke.
func ValidatePromText(data []byte) error { return obs.ValidateProm(data) }

// Breaker states reported in SchedulerStats.Backends[i].Breaker.
const (
	SchedBreakerClosed      = sched.BreakerClosed
	SchedBreakerOpen        = sched.BreakerOpen
	SchedBreakerHalfOpen    = sched.BreakerHalfOpen
	SchedBreakerQuarantined = sched.BreakerQuarantined
)

// Scheduler admission errors (backpressure, shedding, shutdown), plus the
// sentinel every injected fault wraps.
var (
	ErrSchedQueueFull     = sched.ErrQueueFull
	ErrSchedShed          = sched.ErrShed
	ErrSchedClosed        = sched.ErrClosed
	ErrSchedFaultInjected = sched.ErrInjected
)

// NewFaultExecutor wraps an executor with a deterministic per-backend fault
// schedule (seeded errors, hangs, tail latency, down/brownout windows) for
// chaos experiments; name is the backend the schedule keys on.
func NewFaultExecutor(name string, inner SchedExecutor, cfg FaultConfig) *FaultExecutor {
	return sched.NewFaultExecutor(name, inner, cfg)
}

// SchedPermanent marks err as non-retriable: the failure plane fails the
// query terminally instead of consuming retry budget on it.
func SchedPermanent(err error) error { return sched.Permanent(err) }

// NewDispatcher builds and starts a scheduling-plane dispatcher.
func NewDispatcher(cfg SchedulerConfig) (*Dispatcher, error) { return sched.New(cfg) }

// SimSchedExecutor returns the simulated executor: it sleeps each task's
// service-time estimate (CostMS, then classMS[class], then defaultMS)
// scaled by scale — snowgen runtime labels or engine cost estimates stand in
// for real execution.
func SimSchedExecutor(scale float64, classMS map[string]float64, defaultMS float64) SchedExecutor {
	return sched.SimExecutor(scale, classMS, defaultMS)
}

// DefaultVectorCacheEntries is the capacity of the shared embedding-plane
// vector cache a new Service provisions.
const DefaultVectorCacheEntries = core.DefaultVectorCacheEntries

// Re-exported labelers.
type (
	ForestLabeler          = core.ForestLabeler
	NearestCentroidLabeler = core.NearestCentroidLabeler
	RuleLabeler            = core.RuleLabeler
)

// Re-exported applications (paper §4).
type (
	Summarizer         = apps.Summarizer
	BaselineSummarizer = apps.BaselineSummarizer
	SummaryResult      = apps.SummaryResult
	SecurityAuditor    = apps.SecurityAuditor
	AuditFinding       = apps.AuditFinding
	RoutingChecker     = apps.RoutingChecker
	RoutingFinding     = apps.RoutingFinding
	ErrorPredictor     = apps.ErrorPredictor
	ResourceAllocator  = apps.ResourceAllocator
	MemoryEstimator    = apps.MemoryEstimator
	QueryRecommender   = apps.QueryRecommender
)

// Re-exported model configurations.
type (
	Doc2VecConfig = doc2vec.Config
	LSTMConfig    = lstm.Config
	ForestConfig  = forest.Config
)

// NewService returns an empty Querc service (no applications registered).
func NewService() *Service { return core.NewService() }

// NewRegistry opens a model registry rooted at dir.
func NewRegistry(dir string) (*Registry, error) { return core.NewRegistry(dir) }

// DefaultDoc2VecConfig returns the Doc2Vec hyper-parameters used in the
// paper reproduction experiments.
func DefaultDoc2VecConfig() Doc2VecConfig { return doc2vec.DefaultConfig() }

// DefaultLSTMConfig returns the LSTM-autoencoder hyper-parameters used in
// the paper reproduction experiments.
func DefaultLSTMConfig() LSTMConfig { return lstm.DefaultConfig() }

// DefaultForestConfig returns the randomized-tree labeler defaults.
func DefaultForestConfig() ForestConfig { return forest.DefaultConfig() }

// TrainDoc2Vec trains a Doc2Vec embedder on a corpus of SQL texts. name
// identifies the corpus in the embedder's Name() (e.g. "prod-2019-q1").
func TrainDoc2Vec(name string, corpus []string, cfg Doc2VecConfig) (Embedder, error) {
	return core.NewDoc2VecEmbedder(name, corpus, cfg)
}

// TrainLSTM trains an LSTM-autoencoder embedder on a corpus of SQL texts.
func TrainLSTM(name string, corpus []string, cfg LSTMConfig) (Embedder, error) {
	return core.NewLSTMEmbedder(name, corpus, cfg)
}

// NewForestLabeler returns an untrained randomized-tree labeler.
func NewForestLabeler(cfg ForestConfig) *ForestLabeler { return core.NewForestLabeler(cfg) }

// NewMemoryEstimator builds the memory label task — a bucketed working-set
// regressor over the shared embedding — with a fresh forest labeler. Train
// it on (sql, memoryMB) history, then Deploy est.Classifier() so every
// admitted query carries a "memMB" prediction for memory-aware dispatch.
func NewMemoryEstimator(embedder Embedder, cfg ForestConfig) *MemoryEstimator {
	return apps.NewMemoryEstimator(embedder, cfg)
}

// NewVectorCache returns a bounded, sharded LRU cache of query vectors keyed
// by (embedder name, SQL) — the shared store of the embedding plane.
// capacity <= 0 uses DefaultVectorCacheEntries; shards <= 0 picks a default.
func NewVectorCache(capacity, shards int) *VectorCache {
	return core.NewVectorCache(capacity, shards)
}

// Fit embeds sqls and fits labeler on them against the labels y, returning
// the deployable classifier that writes its prediction under key. cache may
// be nil.
func Fit(key string, embedder Embedder, labeler TrainableLabeler, sqls, y []string, workers int, cache *VectorCache) (*Classifier, error) {
	return core.Fit(key, embedder, labeler, sqls, y, workers, cache)
}

// EmbedAll embeds a batch of SQL texts in parallel.
func EmbedAll(e Embedder, sqls []string, workers int) []Vector {
	return core.EmbedAll(e, sqls, workers)
}

// EmbedAllCached embeds a batch of SQL texts in parallel, embedding each
// distinct text at most once and consulting (and filling) the vector cache
// first. cache may be nil.
func EmbedAllCached(e Embedder, sqls []string, workers int, cache *VectorCache) []Vector {
	return core.EmbedAllCached(e, sqls, workers, cache)
}

// Tokenize applies the canonical embedding normalization to one SQL text.
func Tokenize(sql string) []string { return core.TokenizeForEmbedding(sql) }
