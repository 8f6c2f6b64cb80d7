// Command quercd runs the Querc service as an HTTP daemon — the deployable
// form of the paper's Fig. 1 architecture.
//
// Endpoints:
//
//	POST /v1/apps/{app}/queries       {"sql": "..."} → labeled query JSON
//	POST /v1/apps/{app}/queries:batch {"sqls": ["...", ...], "workers": 8} → labeled query array
//	POST /v1/apps/{app}/logs          [{"sql": "...", "labels": {...}}, ...]
//	POST /v1/apps/{app}/retrain      {"label": "user", "embedder": "name"}
//	GET  /v1/apps                    list applications
//	GET  /v1/models                  list registry models
//	GET  /v1/stats                   per-app counters + vector-cache + scheduler counters
//	GET  /v1/drift                   per-app drift scores, retrain times, gate decisions
//	GET  /v1/sched                   scheduler queue depths, per-class SLA accounting, backends
//	GET  /v1/trace                   sampled per-query lifecycle traces (?n=&sort=recent|slowest&outcome=)
//	GET  /metrics                    every plane's counters/gauges/histograms, Prometheus text format
//	GET  /v1/healthz
//
// Applications are declared with repeated -app flags. Embedders are loaded
// from (and trained models written to) the -models registry directory. All
// applications share one embedding-plane vector cache sized by
// -vector-cache (entries; 0 disables caching).
//
// The logs endpoint is the only way into the training module: served
// queries carry predicted labels and are never retained, so /retrain trains
// and /v1/stats' trainingSet counts ingested log rows only. Null rows and
// rows with empty sql are rejected with 400.
//
// A net/http/pprof side listener is enabled with -pprof <addr> (off by
// default; see README "Profiling" for the quickstart). Profiling endpoints
// are served on their own socket, never on the service address.
//
// The drift plane is enabled with -drift-interval (0 disables it): every
// interval the controller drains each application's recent-query statistics,
// scores workload drift per deployed classifier, and retrains/redeploys any
// classifier whose score crosses -drift-threshold — gated so a model that
// loses to the incumbent on recent holdout traffic is never swapped in.
//
// The scheduling plane is enabled with -sched fifo|label: annotated queries
// forward into a dispatcher with bounded per-class queues, a backend pool
// declared by -backends ("name:slots[:memMB],..."), and per-class latency
// targets declared by -sla ("class:duration,..."). A backend's optional
// memMB field declares its working-set budget and switches the pool to
// memory-aware admission: tasks dispatch while the aggregate predicted
// working set (the memMB label from a deployed memory estimator) stays
// within budget, with slot count as the secondary cap. The daemon ships the
// simulated executor (a stand-in that sleeps each task's estimated cost);
// real deployments attach an executor through the library
// (querc.SchedulerConfig.Backends). GET /v1/sched reports queue depths,
// per-class p50/p99 and SLA violations, sheds, OOM-class violations, and
// backend occupancy including memory pressure.
//
// The failure plane rides on the scheduling plane (-sched required):
// -deadline bounds each query's end-to-end execution (expired attempts are
// cancelled and fail terminally), -retry re-dispatches transient failures up
// to n times with capped jittered backoff under per-class retry budgets,
// -hedge clones a straggling query onto a second backend after the given
// delay (first finisher wins), and -breaker gives every backend a three-state
// circuit breaker driven by EWMA error/latency health — tripping open on a
// sick backend, probing it half-open after a cooldown, and quarantining
// flappers. GET /v1/sched reports per-backend breaker state and health;
// GET /v1/stats rolls up retry/hedge/deadline/breaker counters.
//
// The observability plane is always on for counters: every plane records
// into one shared metrics registry served at GET /metrics. Per-query
// lifecycle tracing is enabled with -trace-sample (a [0,1] sampling rate):
// sampled queries carry a trace from submit through tokenize/embed/label,
// admission, dispatch attempts (retries and hedges included), to a terminal
// settle, retained in a -trace-ring–bounded ring served at GET /v1/trace.
// -audit appends one JSON line per terminally-settled query to the given
// file ("-" for stdout), flushed on shutdown.
//
// quercd shuts down gracefully on SIGINT/SIGTERM: the listener stops
// accepting and in-flight requests finish, the drift controller stops, and
// the scheduler drains its queued backlog — including retries parked in
// backoff, which collapse to immediate requeues — before the process exits.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the pprof side listener
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"querc"
)

type appFlags []string

func (a *appFlags) String() string     { return strings.Join(*a, ",") }
func (a *appFlags) Set(v string) error { *a = append(*a, v); return nil }

func main() {
	log.SetPrefix("quercd: ")
	log.SetFlags(0)
	var (
		addr      = flag.String("addr", ":8461", "listen address")
		modelsDir = flag.String("models", "models", "model registry directory")
		vecCache  = flag.Int("vector-cache", querc.DefaultVectorCacheEntries,
			"shared embedding-plane vector cache capacity in entries (0 disables)")
		driftInterval = flag.Duration("drift-interval", 0,
			"drift control-loop tick period (0 disables the drift plane)")
		driftThreshold = flag.Float64("drift-threshold", 0.25,
			"drift score that triggers a gated retrain/redeploy (<= 0 retrains on every scored tick)")
		pprofAddr = flag.String("pprof", "",
			"address for a net/http/pprof side listener, e.g. localhost:6060 (off when empty)")
		schedPolicy = flag.String("sched", "",
			"scheduling plane policy: fifo or label (empty disables the plane)")
		backendsSpec = flag.String("backends", "primary:4",
			"scheduler backend pool as name:slots[:memMB][,name:slots[:memMB]...]; a memMB budget enables memory-aware admission")
		slaSpec = flag.String("sla", "",
			"per-class latency targets as class:duration[,class:duration...], e.g. light:250ms,heavy:8s")
		schedQueue = flag.Int("sched-queue", 1024,
			"scheduler backlog bound in tasks (admission past it is backpressure)")
		schedDeadline = flag.Duration("deadline", 0,
			"per-query execution deadline; expired attempts are cancelled and fail terminally (0 disables)")
		schedRetry = flag.Int("retry", 0,
			"max retries per query for transient failures, with capped jittered backoff and per-class budgets (0 disables)")
		schedHedge = flag.Duration("hedge", 0,
			"hedge delay: re-dispatch a straggling query to a second backend after this long, first finisher wins (0 disables)")
		schedBreaker = flag.Bool("breaker", false,
			"enable per-backend circuit breakers: EWMA health trips open, half-open probes recover, flappers are quarantined")
		traceSample = flag.Float64("trace-sample", 0,
			"per-query lifecycle trace sampling rate in [0,1] (0 disables tracing)")
		traceRing = flag.Int("trace-ring", 1024,
			"settled traces retained in memory for GET /v1/trace")
		auditPath = flag.String("audit", "",
			`audit event stream destination: a file path, or "-" for stdout (empty disables)`)
		apps appFlags
	)
	flag.Var(&apps, "app", "application stream to host (repeatable)")
	flag.Parse()
	if len(apps) == 0 {
		apps = appFlags{"default"}
	}

	registry, err := querc.NewRegistry(*modelsDir)
	if err != nil {
		log.Fatal(err)
	}
	if ln, err := startPprof(*pprofAddr); err != nil {
		log.Fatal(err)
	} else if ln != nil {
		log.Printf("pprof listening on http://%s/debug/pprof/", ln.Addr())
	}
	svc := querc.NewService()
	if *vecCache <= 0 {
		svc.SetVectorCache(nil)
		log.Printf("vector cache disabled")
	} else if *vecCache != querc.DefaultVectorCacheEntries {
		svc.SetVectorCache(querc.NewVectorCache(*vecCache, 0))
	}
	if *traceSample > 0 {
		svc.EnableTracing(querc.TracerConfig{SampleRate: *traceSample, RingSize: *traceRing})
		log.Printf("lifecycle tracing enabled (sample rate %g, ring %d)", *traceSample, *traceRing)
	}
	var auditor *querc.Auditor
	if *auditPath != "" {
		w := os.Stdout
		if *auditPath != "-" {
			f, err := os.Create(*auditPath)
			if err != nil {
				log.Fatal(err)
			}
			w = f
		}
		auditor = querc.NewAuditor(w)
		auditor.Register(svc.Metrics())
		log.Printf("audit stream enabled (%s)", *auditPath)
	}
	var dispatcher *querc.Dispatcher
	if *schedPolicy != "" {
		fp := failurePlane{
			deadline: *schedDeadline,
			retries:  *schedRetry,
			hedge:    *schedHedge,
			breaker:  *schedBreaker,
		}
		var err error
		dispatcher, err = buildScheduler(*schedPolicy, *backendsSpec, *slaSpec, *schedQueue, fp, svc.Metrics(), auditSink(auditor))
		if err != nil {
			log.Fatal(err)
		}
		svc.AttachScheduler(dispatcher)
		log.Printf("scheduling plane enabled (policy %s, backends %s)", *schedPolicy, *backendsSpec)
		if fp.on() {
			log.Printf("failure plane enabled (deadline %s, retries %d, hedge %s, breaker %v)",
				*schedDeadline, *schedRetry, *schedHedge, *schedBreaker)
		}
	} else if *schedDeadline > 0 || *schedRetry > 0 || *schedHedge > 0 || *schedBreaker {
		log.Fatal("-deadline/-retry/-hedge/-breaker require the scheduling plane (-sched fifo|label)")
	}
	for _, app := range apps {
		svc.AddApplication(app, 256, nil)
		log.Printf("hosting application %q", app)
	}
	var ctl *querc.Controller
	if *driftInterval > 0 {
		threshold := *driftThreshold
		if threshold <= 0 {
			// ControllerConfig treats 0 as "use the default"; the flag's
			// contract is that <= 0 means retrain on every scored tick,
			// which the config expresses as a negative threshold.
			threshold = -1
		}
		ctl = svc.EnableDriftControl(querc.ControllerConfig{
			Interval:  *driftInterval,
			Threshold: threshold,
		})
		ctl.Start()
		log.Printf("drift plane enabled (interval %s, threshold %.2f)", *driftInterval, *driftThreshold)
	}

	srv := &server{svc: svc, registry: registry, sched: dispatcher}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/apps", srv.listApps)
	mux.HandleFunc("GET /v1/models", srv.listModels)
	mux.HandleFunc("GET /v1/stats", srv.stats)
	mux.HandleFunc("GET /v1/drift", srv.driftStatus)
	mux.HandleFunc("GET /v1/sched", srv.schedStatus)
	mux.HandleFunc("GET /v1/trace", srv.traces)
	mux.HandleFunc("GET /metrics", srv.metrics)
	mux.HandleFunc("POST /v1/apps/{app}/queries", srv.submitQuery)
	mux.HandleFunc("POST /v1/apps/{app}/queries:batch", srv.submitBatch)
	mux.HandleFunc("POST /v1/apps/{app}/logs", srv.ingestLogs)
	mux.HandleFunc("POST /v1/apps/{app}/retrain", srv.retrain)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: mux}
	go func() {
		if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()
	log.Printf("listening on %s (models in %s)", ln.Addr(), *modelsDir)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	log.Printf("received %s, shutting down", got)
	if err := shutdown(httpSrv, ctl, dispatcher, 15*time.Second); err != nil {
		log.Fatal(err)
	}
	if auditor != nil {
		// After the drain no dispatcher goroutine emits; write the tail out.
		if err := auditor.Close(); err != nil {
			log.Printf("audit close: %v", err)
		}
	}
	log.Printf("shutdown complete")
}

// auditSink widens a possibly-nil *Auditor to the AuditSink interface without
// producing a non-nil interface around a nil pointer.
func auditSink(a *querc.Auditor) querc.AuditSink {
	if a == nil {
		return nil
	}
	return a
}

// shutdown runs the graceful teardown sequence: stop accepting HTTP (letting
// in-flight handlers finish), stop the drift control loop, then close the
// scheduler's intake and drain its queued backlog. The timeout bounds the
// whole sequence. Every stage runs even when an earlier one errors — a hung
// client connection must not leave the control loop running or the backlog
// silently abandoned — and the first error is reported (a scheduler that
// cannot drain in time says how much work it abandoned).
func shutdown(srv *http.Server, ctl *querc.Controller, dispatcher *querc.Dispatcher, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	var firstErr error
	if err := srv.Shutdown(ctx); err != nil {
		firstErr = fmt.Errorf("http shutdown: %w", err)
	}
	if ctl != nil {
		ctl.Stop()
	}
	if dispatcher != nil {
		dispatcher.Close()
		// The budget may already be spent (Drain treats <= 0 as "wait
		// forever"); keep a floor so an exhausted deadline reports the
		// abandoned backlog instead of hanging.
		remaining := time.Until(deadline)
		if remaining < time.Second {
			remaining = time.Second
		}
		if err := dispatcher.Drain(remaining); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// failurePlane carries the -deadline/-retry/-hedge/-breaker flag values into
// the scheduler config. The zero value leaves the plane off: enqueue stays
// alloc-light and errored executions fail terminally with no second chances.
type failurePlane struct {
	deadline time.Duration
	retries  int
	hedge    time.Duration
	breaker  bool
}

func (f failurePlane) on() bool {
	return f.deadline > 0 || f.retries > 0 || f.hedge > 0 || f.breaker
}

// buildScheduler assembles the scheduling plane from the -sched, -backends,
// -sla, and failure-plane flag values. metrics is the service registry the
// dispatcher publishes its counters on; audit (may be nil) receives one
// event per terminally-settled query.
func buildScheduler(policy, backendsSpec, slaSpec string, queueCap int, fp failurePlane, metrics *querc.MetricsRegistry, audit querc.AuditSink) (*querc.Dispatcher, error) {
	sla, slaOrder, err := parseSLA(slaSpec)
	if err != nil {
		return nil, err
	}
	// The daemon's executor simulates execution: each task sleeps its
	// estimated cost (CostMS from the runtimeMS label, else 10ms). Real
	// deployments construct the dispatcher through the library and supply a
	// real executor per backend.
	backends, err := parseBackends(backendsSpec, querc.SimSchedExecutor(1.0, nil, 10))
	if err != nil {
		return nil, err
	}
	// Dispatch priority: the canonical resource classes first (light work
	// is the cheapest to protect), then any other -sla classes in the
	// order declared on the flag.
	classOrder := []string{"light", "medium", "heavy"}
	for _, class := range slaOrder {
		known := false
		for _, c := range classOrder {
			if c == class {
				known = true
				break
			}
		}
		if !known {
			classOrder = append(classOrder, class)
		}
	}
	cfg := querc.SchedulerConfig{
		Backends:   backends,
		QueueCap:   queueCap,
		SLA:        sla,
		ClassOrder: classOrder,
		Deadline:   fp.deadline,
		Metrics:    metrics,
		Audit:      audit,
	}
	// Each knob opts into its slice of the failure plane independently;
	// library defaults fill in backoff, budgets, and breaker thresholds.
	if fp.retries > 0 {
		cfg.Retry = &querc.SchedRetryConfig{MaxRetries: fp.retries}
	}
	if fp.hedge > 0 {
		cfg.Hedge = &querc.SchedHedgeConfig{After: fp.hedge}
	}
	if fp.breaker {
		cfg.Breaker = &querc.SchedBreakerConfig{}
	}
	// Any declared budget switches the pool to memory-aware admission; a
	// budget-free pool keeps the slot-only behavior (and zero overhead).
	for _, b := range backends {
		if b.MemoryMB > 0 {
			cfg.MemoryAware = true
			break
		}
	}
	switch policy {
	case "fifo":
		cfg.Policy = querc.FIFOPolicy{}
	case "label":
		cfg.Policy = &querc.LabelPolicy{}
	default:
		return nil, fmt.Errorf("unknown -sched policy %q (fifo or label)", policy)
	}
	return querc.NewDispatcher(cfg)
}

// parseBackends parses "name:slots[:memMB][,name:slots[:memMB]...]" into a
// backend pool sharing one executor. The optional third field declares the
// backend's working-set budget in megabytes, turning on memory-aware
// admission for the pool.
func parseBackends(spec string, exec querc.SchedExecutor) ([]querc.SchedBackend, error) {
	var out []querc.SchedBackend
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rest, ok := strings.Cut(part, ":")
		if !ok || name == "" {
			return nil, fmt.Errorf("backend %q: want name:slots[:memMB]", part)
		}
		slotsStr, memStr, hasMem := strings.Cut(rest, ":")
		slots, err := strconv.Atoi(slotsStr)
		if err != nil || slots <= 0 {
			return nil, fmt.Errorf("backend %q: invalid slot count", part)
		}
		var memMB float64
		if hasMem {
			memMB, err = strconv.ParseFloat(memStr, 64)
			if err != nil || memMB <= 0 {
				return nil, fmt.Errorf("backend %q: invalid memory budget", part)
			}
		}
		out = append(out, querc.SchedBackend{Name: name, Slots: slots, MemoryMB: memMB, Exec: exec})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-backends %q declares no backends", spec)
	}
	return out, nil
}

// parseSLA parses "class:duration[,class:duration...]" into latency targets,
// also returning the class names in declaration order (which feeds dispatch
// priority for classes outside the canonical light/medium/heavy set).
func parseSLA(spec string) (map[string]time.Duration, []string, error) {
	out := make(map[string]time.Duration)
	var order []string
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		class, durStr, ok := strings.Cut(part, ":")
		if !ok || class == "" {
			return nil, nil, fmt.Errorf("sla %q: want class:duration", part)
		}
		d, err := time.ParseDuration(durStr)
		if err != nil || d <= 0 {
			return nil, nil, fmt.Errorf("sla %q: invalid duration", part)
		}
		if _, dup := out[class]; !dup {
			order = append(order, class)
		}
		out[class] = d
	}
	return out, order, nil
}

// startPprof starts the profiling side listener when addr is non-empty: the
// DefaultServeMux (where the net/http/pprof import registered its handlers)
// served on its own socket, so profiling endpoints never ride the service
// listener and stay off unless asked for. It returns the listener (nil when
// disabled) so callers — and tests — can read the bound address or close it.
func startPprof(addr string) (net.Listener, error) {
	if addr == "" {
		return nil, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pprof listener: %w", err)
	}
	go func() {
		if err := http.Serve(ln, nil); err != nil && !errors.Is(err, net.ErrClosed) {
			log.Printf("pprof listener: %v", err)
		}
	}()
	return ln, nil
}

type server struct {
	svc      *querc.Service
	registry *querc.Registry
	sched    *querc.Dispatcher // nil when the scheduling plane is disabled
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("encode response: %v", err)
	}
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *server) listApps(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"apps": s.svc.Apps()})
}

// stats reports per-application processed counts, drift-plane retrain
// counters, plus the shared embedding-plane vector cache's
// hit/miss/eviction counters.
func (s *server) stats(w http.ResponseWriter, r *http.Request) {
	type appStat struct {
		App             string `json:"app"`
		Processed       int64  `json:"processed"`
		Training        int    `json:"trainingSet"`
		DriftRetrains   int64  `json:"driftRetrains"`
		DriftPromotions int64  `json:"driftPromotions"`
		DriftRejections int64  `json:"driftRejections"`
	}
	ctl := s.svc.Controller()
	apps := make([]appStat, 0)
	for _, app := range s.svc.Apps() {
		st := appStat{
			App:       app,
			Processed: s.svc.Worker(app).Processed(),
			Training:  s.svc.Training().Size(app),
		}
		if ctl != nil {
			st.DriftRetrains, st.DriftPromotions, st.DriftRejections = ctl.Counters(app)
		}
		apps = append(apps, st)
	}
	resp := map[string]any{"apps": apps, "driftPlane": ctl != nil, "schedulerPlane": s.sched != nil}
	if s.sched != nil {
		// Counters, not Stats: the rollup needs no queue listings or
		// latency percentiles, so don't pay for reservoir copies per poll.
		st := s.sched.Counters()
		resp["scheduler"] = map[string]any{
			"policy":        st.Policy,
			"submitted":     st.Submitted,
			"completed":     st.Completed,
			"failed":        st.Failed,
			"rejected":      st.Rejected,
			"shed":          st.Shed,
			"evicted":       st.Evicted,
			"oomViolations": st.OOMViolations,
			"memWaits":      st.MemWaits,
			"backlog":       st.Backlog,
			"inflight":      st.Inflight,
			// Failure plane: retry/hedge traffic, deadline expiries, and how
			// much of the pool the breakers currently refuse.
			"retries":          st.Retries,
			"retryStarved":     st.RetryStarved,
			"pendingRetries":   st.PendingRetries,
			"hedges":           st.Hedges,
			"hedgeWins":        st.HedgeWins,
			"hedgeWaste":       st.HedgeWaste,
			"deadlineExceeded": st.DeadlineExceeded,
			"breakerOpen":      st.BreakerOpen,
			"quarantined":      st.Quarantined,
		}
	}
	if c := s.svc.VectorCache(); c != nil {
		st := c.Stats()
		resp["vectorCache"] = map[string]any{
			"hits":      st.Hits,
			"misses":    st.Misses,
			"evictions": st.Evictions,
			"entries":   st.Entries,
			"capacity":  st.Capacity,
			"hitRate":   st.HitRate(),
		}
	} else {
		resp["vectorCache"] = nil
	}
	writeJSON(w, resp)
}

// driftStatus reports the drift plane's per-app, per-label-key state: last
// scores with their signal components, last retrain timestamps, and gate
// decisions. 404 when the drift plane is disabled.
func (s *server) driftStatus(w http.ResponseWriter, r *http.Request) {
	ctl := s.svc.Controller()
	if ctl == nil {
		httpError(w, http.StatusNotFound, "drift plane disabled (start quercd with -drift-interval > 0)")
		return
	}
	cfg := ctl.Config()
	writeJSON(w, map[string]any{
		"interval":  cfg.Interval.String(),
		"threshold": cfg.Threshold,
		"ticks":     ctl.Ticks(),
		"apps":      ctl.Status(),
	})
}

// schedStatus reports the scheduling plane's full snapshot: queue depths,
// per-class SLA accounting (violations, penalty, p50/p99), shed/steal
// counters, and backend occupancy. 404 when the plane is disabled.
func (s *server) schedStatus(w http.ResponseWriter, r *http.Request) {
	if s.sched == nil {
		httpError(w, http.StatusNotFound, "scheduling plane disabled (start quercd with -sched fifo|label)")
		return
	}
	writeJSON(w, s.sched.Stats())
}

// metrics renders the shared registry — every plane's counters, gauges, and
// latency histograms — in Prometheus text exposition format.
func (s *server) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.svc.Metrics().WriteProm(w); err != nil {
		log.Printf("write metrics: %v", err)
	}
}

// traces serves the lifecycle-trace ring: the tracer's settle ledger plus
// matching trace records, newest first by default. Query parameters: n caps
// the records (default 64), sort is "recent" or "slowest", outcome filters by
// terminal outcome tag ("completed", "shed", ...). 404 when tracing is
// disabled.
func (s *server) traces(w http.ResponseWriter, r *http.Request) {
	tr := s.svc.Tracer()
	if tr == nil {
		httpError(w, http.StatusNotFound, "tracing disabled (start quercd with -trace-sample > 0)")
		return
	}
	var q querc.TraceQuery
	if n := r.URL.Query().Get("n"); n != "" {
		v, err := strconv.Atoi(n)
		if err != nil || v <= 0 {
			httpError(w, http.StatusBadRequest, "n must be a positive integer")
			return
		}
		q.N = v
	}
	switch sortBy := r.URL.Query().Get("sort"); sortBy {
	case "", "recent", "slowest":
		q.Sort = sortBy
	default:
		httpError(w, http.StatusBadRequest, "sort must be recent or slowest")
		return
	}
	q.Outcome = r.URL.Query().Get("outcome")
	writeJSON(w, map[string]any{
		"stats":  tr.Stats(),
		"traces": tr.Records(q),
	})
}

func (s *server) listModels(w http.ResponseWriter, r *http.Request) {
	type model struct {
		Name     string `json:"name"`
		Versions []int  `json:"versions"`
	}
	var out []model
	for _, name := range s.registry.Models() {
		out = append(out, model{Name: name, Versions: s.registry.Versions(name)})
	}
	writeJSON(w, map[string]any{"models": out})
}

func (s *server) submitQuery(w http.ResponseWriter, r *http.Request) {
	app := r.PathValue("app")
	var req struct {
		SQL string `json:"sql"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.SQL == "" {
		httpError(w, http.StatusBadRequest, "body must be {\"sql\": \"...\"}")
		return
	}
	q, err := s.svc.Submit(app, req.SQL)
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, q)
}

func (s *server) submitBatch(w http.ResponseWriter, r *http.Request) {
	app := r.PathValue("app")
	var req struct {
		SQLs    []string `json:"sqls"`
		Workers int      `json:"workers"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || len(req.SQLs) == 0 {
		httpError(w, http.StatusBadRequest, "body must be {\"sqls\": [\"...\"], \"workers\": n}")
		return
	}
	for i, sql := range req.SQLs {
		if sql == "" {
			httpError(w, http.StatusBadRequest, "sqls[%d] is empty", i)
			return
		}
	}
	qs, err := s.svc.SubmitBatch(app, req.SQLs, req.Workers)
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, map[string]any{"queries": qs, "count": len(qs)})
}

func (s *server) ingestLogs(w http.ResponseWriter, r *http.Request) {
	app := r.PathValue("app")
	if s.svc.Worker(app) == nil {
		httpError(w, http.StatusNotFound, "unknown application %q", app)
		return
	}
	var batch []*querc.LabeledQuery
	if err := json.NewDecoder(r.Body).Decode(&batch); err != nil {
		httpError(w, http.StatusBadRequest, "body must be a JSON array of labeled queries")
		return
	}
	for i, q := range batch {
		if q == nil {
			httpError(w, http.StatusBadRequest, "logs[%d] is null", i)
			return
		}
		if q.SQL == "" {
			httpError(w, http.StatusBadRequest, "logs[%d] has empty sql", i)
			return
		}
	}
	s.svc.Training().IngestBatch(app, batch)
	writeJSON(w, map[string]any{"ingested": len(batch), "retained": s.svc.Training().Size(app)})
}

func (s *server) retrain(w http.ResponseWriter, r *http.Request) {
	app := r.PathValue("app")
	var req struct {
		Label    string `json:"label"`
		Embedder string `json:"embedder"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Label == "" || req.Embedder == "" {
		httpError(w, http.StatusBadRequest, "body must be {\"label\": \"...\", \"embedder\": \"...\"}")
		return
	}
	embedder, version, err := s.registry.LoadEmbedder(req.Embedder)
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	clf, err := s.svc.RetrainAndDeploy(app, req.Label, embedder, querc.NewForestLabeler(querc.DefaultForestConfig()), 4)
	if err != nil {
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, map[string]any{
		"deployed":        clf.String(),
		"embedderVersion": version,
		"trainingSet":     s.svc.Training().Size(app),
	})
}
