package core

import (
	"fmt"
	"sort"
	"sync"

	"querc/internal/obs"
)

// Service wires the full Fig. 1 topology: per-application Qworkers fed by
// query streams, one shared TrainingModule fed by database log imports, and
// one embedding-plane VectorCache shared by both. Because embedders are
// trained centrally and shared across applications, the cache is keyed by
// (embedder name, SQL) and owned here rather than per worker: a literal
// repeat of a query text hits a warm vector regardless of which application
// saw it first. It is the embeddable form of the Querc service (cmd/quercd
// adds the HTTP surface).
type Service struct {
	mu         sync.RWMutex
	workers    map[string]*Qworker
	training   *TrainingModule
	vectors    *VectorCache
	controller *Controller   // drift control loop; nil until enabled
	scheduler  Scheduler     // scheduling plane; nil until attached
	metrics    *obs.Registry // observability plane: every plane's series
	tracer     *obs.Tracer   // lifecycle tracing; nil until enabled
}

// NewService returns a service with an empty worker set, a fresh training
// module, a shared vector cache of DefaultVectorCacheEntries capacity
// (SetVectorCache resizes or disables it), and a metrics registry the
// embedding plane is pre-registered on (Metrics).
func NewService() *Service {
	s := &Service{
		workers:  make(map[string]*Qworker),
		training: NewTrainingModule(),
		vectors:  NewVectorCache(DefaultVectorCacheEntries, 0),
		metrics:  obs.NewRegistry(),
	}
	s.training.SetVectorCache(s.vectors)
	s.registerCacheMetrics()
	return s
}

// Metrics returns the service's metrics registry — the one aggregation
// point every plane (embedding, drift, scheduling via SchedulerConfig)
// records into and quercd's GET /metrics renders from.
func (s *Service) Metrics() *obs.Registry { return s.metrics }

// registerCacheMetrics exposes the shared vector cache on the registry. The
// closures read through VectorCache() at scrape time, so SetVectorCache
// swaps (including disabling with nil) stay reflected.
func (s *Service) registerCacheMetrics() {
	r := s.metrics
	r.CounterFunc("querc_vector_cache_hits_total",
		"Embedding-plane vector cache hits.",
		func() float64 { return float64(s.VectorCache().Stats().Hits) })
	r.CounterFunc("querc_vector_cache_misses_total",
		"Embedding-plane vector cache misses.",
		func() float64 { return float64(s.VectorCache().Stats().Misses) })
	r.CounterFunc("querc_vector_cache_evictions_total",
		"Embedding-plane vector cache evictions.",
		func() float64 { return float64(s.VectorCache().Stats().Evictions) })
	r.GaugeFunc("querc_vector_cache_entries",
		"Vectors currently cached.",
		func() float64 { return float64(s.VectorCache().Len()) })
	r.GaugeFunc("querc_vector_cache_capacity",
		"Vector cache capacity bound.",
		func() float64 { return float64(s.VectorCache().Stats().Capacity) })
}

// EnableTracing attaches per-query lifecycle tracing: a Tracer built from
// cfg samples every registered (and future) worker's stream, and its settle
// ledger and ring surface through Tracer()/quercd's GET /v1/trace. Calling
// EnableTracing again returns the existing tracer unchanged.
func (s *Service) EnableTracing(cfg obs.TracerConfig) *obs.Tracer {
	s.mu.Lock()
	if s.tracer == nil {
		s.tracer = obs.NewTracer(cfg)
		s.tracer.Register(s.metrics)
	}
	tr := s.tracer
	workers := make([]*Qworker, 0, len(s.workers))
	for _, w := range s.workers {
		workers = append(workers, w)
	}
	s.mu.Unlock()
	for _, w := range workers {
		w.SetTracer(tr)
	}
	return tr
}

// Tracer returns the lifecycle tracer, or nil before EnableTracing.
func (s *Service) Tracer() *obs.Tracer {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tracer
}

// Training exposes the shared training module.
func (s *Service) Training() *TrainingModule { return s.training }

// VectorCache returns the shared embedding-plane cache, or nil when caching
// is disabled.
func (s *Service) VectorCache() *VectorCache {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.vectors
}

// SetVectorCache replaces the shared cache on the service, on every
// registered Qworker, and on the training module. Pass nil to disable
// caching (every embed recomputes). In-flight batches keep the cache they
// started with.
func (s *Service) SetVectorCache(c *VectorCache) {
	s.mu.Lock()
	s.vectors = c
	workers := make([]*Qworker, 0, len(s.workers))
	for _, w := range s.workers {
		workers = append(workers, w)
	}
	s.mu.Unlock()
	for _, w := range workers {
		w.SetVectorCache(c)
	}
	s.training.SetVectorCache(c)
}

// AddApplication registers a Qworker for the named application stream and
// wires its embedding plane into the shared vector cache. Served queries do
// not reach the training module; ground truth for it arrives through
// Training().IngestBatch. forward may be nil when Querc is out of the critical
// path (§2: "queries will be forked to Querc"); with a scheduler attached
// (AttachScheduler), a nil forward defaults to the scheduling plane instead.
// Workers added after EnableDriftControl start with drift sampling on, so
// the control loop covers them too.
func (s *Service) AddApplication(app string, windowSize int, forward func(*LabeledQuery)) *Qworker {
	w := NewQworker(app, windowSize)
	s.mu.Lock()
	if forward != nil {
		w.fwdClaimed = true // the caller owns this edge; AttachScheduler keeps off it
	} else {
		forward = forwardInto(s.scheduler)
		w.fwdIsSched = forward != nil // the dispatcher settles traces on this edge
	}
	w.Forward = forward
	w.SetVectorCache(s.vectors)
	if s.controller != nil {
		w.SetDriftSampling(true)
	}
	if s.tracer != nil {
		w.SetTracer(s.tracer)
	}
	s.workers[app] = w
	s.metrics.CounterFunc("querc_app_processed_total",
		"Queries annotated per application stream.",
		func() float64 { return float64(w.Processed()) }, "app", app)
	s.mu.Unlock()
	return w
}

// EnableDriftControl attaches the drift plane's control loop to the service:
// drift sampling is switched on for every registered (and future) Qworker,
// and the returned Controller scores each worker's samples and runs gated
// retrains when a classifier drifts past cfg.Threshold. The caller decides
// how the loop advances: Controller.Start ticks on a wall-clock interval,
// Controller.Tick replays deterministically. Calling EnableDriftControl
// again returns the existing controller unchanged.
func (s *Service) EnableDriftControl(cfg ControllerConfig) *Controller {
	s.mu.Lock()
	if s.controller == nil {
		s.controller = newController(s, cfg)
	}
	ctl := s.controller
	workers := make([]*Qworker, 0, len(s.workers))
	for _, w := range s.workers {
		workers = append(workers, w)
	}
	s.mu.Unlock()
	for _, w := range workers {
		w.SetDriftSampling(true)
	}
	return ctl
}

// Controller returns the drift control loop, or nil before
// EnableDriftControl.
func (s *Service) Controller() *Controller {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.controller
}

// Worker returns the Qworker for app, or nil.
func (s *Service) Worker(app string) *Qworker {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.workers[app]
}

// Apps lists registered application names in sorted order, so listings are
// deterministic across runs.
func (s *Service) Apps() []string {
	s.mu.RLock()
	out := make([]string, 0, len(s.workers))
	for app := range s.workers {
		out = append(out, app)
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Submit routes one query text through the application's Qworker and returns
// the annotated labeled query.
func (s *Service) Submit(app, sql string) (*LabeledQuery, error) {
	w := s.Worker(app)
	if w == nil {
		return nil, fmt.Errorf("core: unknown application %q", app)
	}
	return w.Process(&LabeledQuery{SQL: sql}), nil
}

// SubmitBatch routes a batch of query texts through the application's
// Qworker, fanning the per-query classification out across a bounded pool of
// workers goroutines (workers <= 0 uses GOMAXPROCS). The returned slice is
// index-aligned with sqls, and every query is recorded in the worker's
// window and forwarded in input order.
func (s *Service) SubmitBatch(app string, sqls []string, workers int) ([]*LabeledQuery, error) {
	w := s.Worker(app)
	if w == nil {
		return nil, fmt.Errorf("core: unknown application %q", app)
	}
	qs := make([]*LabeledQuery, len(sqls))
	for i, sql := range sqls {
		qs[i] = &LabeledQuery{SQL: sql}
	}
	return w.ProcessBatch(qs, workers), nil
}

// Deploy installs a classifier on one application's worker. The same
// classifier value may be deployed to several applications — that is exactly
// the shared-embedder scenario of Fig. 1 (EmbedderA(X,Y) serving both X and
// Y), and the shared vector cache makes the sharing pay: either app's
// queries warm vectors for both.
func (s *Service) Deploy(app string, c *Classifier) error {
	w := s.Worker(app)
	if w == nil {
		return fmt.Errorf("core: unknown application %q", app)
	}
	w.Deploy(c)
	return nil
}

// RetrainAndDeploy retrains a labeler from the training module's data for
// (app, labelKey) and hot-swaps the resulting classifier into the worker.
func (s *Service) RetrainAndDeploy(app, labelKey string, embedder Embedder, labeler TrainableLabeler, workers int) (*Classifier, error) {
	c, err := s.training.Retrain(app, labelKey, embedder, labeler, workers)
	if err != nil {
		return nil, err
	}
	if err := s.Deploy(app, c); err != nil {
		return nil, err
	}
	return c, nil
}
