package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"querc/internal/core"
	"querc/internal/obs"
	"querc/internal/sched"
	"querc/internal/snowgen"
)

const (
	dispatchPool   = 32 << 10 // pre-labeled queries cycled through Enqueue
	dispatchWindow = 2048     // most queries outstanding in the closed loop
	// dispatchSample keeps one completion in this many for the latency
	// percentiles, so the sample slices stay small next to the dispatcher's
	// own memory (the harness process is the system under test here).
	dispatchSample = 16
)

// planes selects which of the dispatcher's planes a run arms.
type planes struct {
	retry    bool // SLA targets, per-query deadline and retry policy
	breaker  bool // per-backend circuit breakers
	memory   bool // memory-aware admission against budgeted backends
	observed bool // metrics registry, audit stream and 1% lifecycle tracing
}

var allPlanes = planes{retry: true, breaker: true, memory: true, observed: true}

// labeledPool pre-labels n queries from the corpus's ground truth the way a
// Qworker would have annotated them: the labels the label-driven policy and
// the memory gate read.
func labeledPool(corpus []snowgen.Query, n int) []*core.LabeledQuery {
	pool := make([]*core.LabeledQuery, n)
	for i := range pool {
		q := corpus[i%len(corpus)]
		class := "heavy"
		switch {
		case q.RuntimeMS < 80:
			class = "light"
		case q.RuntimeMS < 200:
			class = "medium"
		}
		mem := strconv.FormatFloat(q.MemoryMB, 'f', 0, 64)
		pool[i] = &core.LabeledQuery{SQL: q.SQL, App: appName, Labels: map[string]string{
			"account":   q.Account,
			"user":      q.User,
			"cluster":   q.Cluster,
			"resource":  class,
			"runtimeMS": strconv.FormatFloat(q.RuntimeMS, 'f', 1, 64),
			"memMB":     mem,
			"memoryMB":  mem,
		}}
	}
	return pool
}

// dispatchRig is one dispatcher wired for a closed-loop drive: a no-op
// executor on 2 backends × 1 slot under the label-driven policy, completions
// counted (and sampled) through OnDone.
type dispatchRig struct {
	d       *sched.Dispatcher
	tracer  *obs.Tracer
	auditor *obs.Auditor
	metrics *obs.Registry

	sem      chan struct{} // closed-loop window: one token per outstanding query
	start    time.Time
	done     atomic.Int64
	samples  []taskSample // every dispatchSample-th completion, by completion order
	enqNs    []int32      // per-Enqueue duration when timed (ladder only)
	refused  int
	attempts int
}

// taskSample is the dispatcher's own timestamps for one task, nanoseconds
// since the rig was built.
type taskSample struct {
	submitted, started, finished int64
}

func newDispatchRig(p planes, n int) (*dispatchRig, error) {
	r := &dispatchRig{
		sem:     make(chan struct{}, dispatchWindow),
		samples: make([]taskSample, n/dispatchSample+1),
		start:   time.Now(),
	}
	noop := func(*sched.Task) error { return nil }
	cfg := sched.Config{
		Policy: &sched.LabelPolicy{Route: map[string]string{
			"cluster_01": "b1", "cluster_02": "b2", "cluster_03": "b1",
			"cluster_04": "b2", "cluster_05": "b1", "cluster_06": "b2",
		}},
		Backends:   []sched.Backend{{Name: "b1", Slots: 1, Exec: noop}, {Name: "b2", Slots: 1, Exec: noop}},
		ClassOrder: []string{"light", "medium", "heavy"},
		QueueCap:   2 * dispatchWindow,
		OnDone:     r.onDone,
	}
	if p.retry {
		cfg.SLA = map[string]time.Duration{"light": 250 * time.Millisecond, "medium": time.Second, "heavy": 30 * time.Second}
		cfg.Deadline = time.Minute
		cfg.Retry = &sched.RetryConfig{MaxRetries: 2}
	}
	if p.breaker {
		cfg.Breaker = &sched.BreakerConfig{}
	}
	if p.memory {
		cfg.MemoryAware = true
		for i := range cfg.Backends {
			cfg.Backends[i].MemoryMB = 1 << 20
		}
	}
	if p.observed {
		r.metrics = obs.NewRegistry()
		r.auditor = obs.NewAuditor(io.Discard)
		r.auditor.Register(r.metrics)
		r.tracer = obs.NewTracer(obs.TracerConfig{SampleRate: 0.01})
		r.tracer.Register(r.metrics)
		cfg.Metrics = r.metrics
		cfg.Audit = r.auditor
	}
	d, err := sched.New(cfg)
	if err != nil {
		return nil, err
	}
	r.d = d
	return r, nil
}

func (r *dispatchRig) onDone(t *sched.Task) {
	i := r.done.Add(1) - 1
	if i%dispatchSample == 0 {
		if k := int(i / dispatchSample); k < len(r.samples) {
			r.samples[k] = taskSample{
				submitted: int64(t.Submitted.Sub(r.start)),
				started:   int64(t.Started.Sub(r.start)),
				finished:  int64(t.Finished.Sub(r.start)),
			}
		}
	}
	<-r.sem
}

// drive enqueues n more queries cycled from pool, keeping at most
// dispatchWindow outstanding, and returns once every admitted query has
// completed; it may be called repeatedly. A
// positive rate paces the enqueues (open loop); timeEnqueue records each
// Enqueue call's duration.
func (r *dispatchRig) drive(pool []*core.LabeledQuery, n int, rate float64, timeEnqueue bool) time.Duration {
	if timeEnqueue && r.enqNs == nil {
		r.enqNs = make([]int32, 0, n)
	}
	start := time.Now()
	var pace *pacer
	if rate > 0 {
		pace = &pacer{start: start, interval: time.Duration(float64(time.Second) / rate), now: time.Now, sleep: time.Sleep}
	}
	for i := 0; i < n; i++ {
		if pace != nil {
			pace.wait(i)
		}
		r.sem <- struct{}{}
		q := pool[(r.attempts)%len(pool)]
		q.SetTrace(r.tracer.Begin(q.App, q.SQL))
		var t0 time.Time
		if timeEnqueue {
			t0 = time.Now()
		}
		err := r.d.Enqueue(q)
		if timeEnqueue {
			r.enqNs = append(r.enqNs, int32(time.Since(t0)))
		}
		r.attempts++
		if err != nil {
			r.refused++
			<-r.sem
		}
	}
	for i := 0; i < cap(r.sem); i++ {
		r.sem <- struct{}{} // every token back means every completion delivered
	}
	elapsed := time.Since(start)
	for i := 0; i < cap(r.sem); i++ {
		<-r.sem
	}
	return elapsed
}

// close drains the dispatcher and checks the conservation ledger against the
// harness's own counts: every admitted query reached exactly one terminal
// outcome, OnDone and the audit stream each saw every one, none refused.
func (r *dispatchRig) close() error {
	r.d.Close()
	if err := r.d.Drain(requestTimeout); err != nil {
		return err
	}
	st := r.d.Stats()
	admitted := uint64(r.attempts - r.refused)
	switch {
	case r.refused != 0:
		return fmt.Errorf("dispatch: %d of %d enqueues refused", r.refused, r.attempts)
	case st.Submitted != admitted:
		return fmt.Errorf("dispatch ledger: submitted %d, harness admitted %d", st.Submitted, admitted)
	case st.Submitted != st.Completed+st.Failed+st.Evicted:
		return fmt.Errorf("dispatch ledger: submitted %d != completed %d + failed %d + evicted %d",
			st.Submitted, st.Completed, st.Failed, st.Evicted)
	case uint64(r.done.Load()) != admitted:
		return fmt.Errorf("dispatch: OnDone saw %d of %d", r.done.Load(), admitted)
	}
	if r.auditor != nil {
		if err := r.auditor.Close(); err != nil {
			return err
		}
		if ev := r.auditor.Stats().Events; ev != admitted {
			return fmt.Errorf("dispatch: audit stream has %d events for %d queries", ev, admitted)
		}
	}
	return nil
}

// taken returns the samples OnDone actually filled.
func (r *dispatchRig) taken() []taskSample {
	n := int((r.done.Load() + dispatchSample - 1) / dispatchSample)
	return r.samples[:min(n, len(r.samples))]
}

// selfCPUMicros is this process's CPU time so far (user+system).
func selfCPUMicros() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return (ru.Utime.Sec+ru.Stime.Sec)*1e6 + int64(ru.Utime.Usec+ru.Stime.Usec)
}

// runDispatch runs the in-process dispatcher workload.
func runDispatch(e *env, sp spec, seed int64, seconds int, trace bool) (*result, error) {
	n := int(sp.closedRate * float64(seconds))
	corpus := genCorpus(seed)

	// Set-up here is the pool, the dispatcher and one window through every
	// plane: milliseconds, so it is repeated more often than the socket
	// fixtures. The last rig serves the measured loop.
	var setupS []float64
	var pool []*core.LabeledQuery
	var rig *dispatchRig
	for k := 0; k < 5; k++ {
		if rig != nil {
			if err := rig.close(); err != nil {
				return nil, err
			}
		}
		speed, t0 := calibrate(), time.Now()
		pool = labeledPool(genCorpus(seed), dispatchPool)
		var err error
		if rig, err = newDispatchRig(allPlanes, n+dispatchWindow); err != nil {
			return nil, err
		}
		rig.drive(pool, dispatchWindow, 0, false)
		took := time.Since(t0).Seconds()
		setupS = append(setupS, took*(speed+calibrate())/2)
	}

	// Each slice's latency percentiles are scaled like its throughput: with
	// a full window the latency is queueing, window ÷ throughput.
	var p50s, p90s, p99s []float64
	var lat []float64
	slices := measureSlices(n, int(sp.closedRate*sliceSeconds), func(first, k int) int64 {
		from := len(rig.taken())
		rig.drive(pool, k, 0, false)
		var ls []float64
		for _, s := range rig.taken()[from:] {
			ls = append(ls, float64(s.finished-s.submitted)/1e3)
		}
		lat = append(lat, ls...)
		sort.Float64s(ls)
		p50s = append(p50s, percentile(ls, 0.50))
		p90s = append(p90s, percentile(ls, 0.90))
		p99s = append(p99s, percentile(ls, 0.99))
		return int64(k)
	}, selfCPUMicros)
	for i, s := range slices {
		p50s[i] *= s.speed
		p90s[i] *= s.speed
		p99s[i] *= s.speed
	}
	closeErr := rig.close()
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	res.Attempted = n
	res.Failed = rig.refused
	if closeErr != nil {
		res.fail("%v", closeErr)
	}
	qps, cpuPerQuery, speed := sliceMedians(slices)
	if len(slices) < 4 || cpuPerQuery <= 0 {
		res.fail("closed loop gave %d slices: too short to measure", len(slices))
	}
	fmt.Fprintf(os.Stderr, "bench: machine speed %.2f of reference over %d slices\n", speed, len(slices))
	if !trace {
		res.set("setup_s", median(setupS))
		res.set("throughput_qps", qps)
		res.set("cpu_us_per_query", cpuPerQuery)
		res.set("lat_p50_us", median(p50s))
		res.set("lat_p90_us", median(p90s))
		res.set("peak_rss_mb", rss)
		acc := 0.0
		if closeErr == nil {
			acc = 1 // the ledger is this workload's accuracy
		}
		res.set("account_acc", acc)
		return res, nil
	}

	models, err := trainModel(e, corpus)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	texts := make([]string, 0, ladderInputs)
	for i := 0; i < ladderInputs; i++ {
		texts = append(texts, pool[i%len(pool)].SQL)
	}
	lad, err := runLadder(rec, ladderInput{corpus: corpus, models: models, texts: texts, perReq: 1})
	if err != nil {
		return nil, err
	}
	// Layers this workload never touches report 0.
	for _, name := range []string{"cache.hit_ratio", "cache.evictions", "training.retained", "edge.scrape_ms",
		"edge.resp_bytes_per_query", "edge.self_us_single", "edge.self_us_batch_per_query", "doc2vec.share_of_cpu",
		"loadgen.late_p99_us", "loadgen.cpu_share"} {
		lad.set(name, 0)
	}
	all := sortedCopy(lat)
	lad.set("lat_p99_us", lowerQuartile(p99s))
	lad.set("lat_p999_us", percentile(all, 0.999))
	lad.set("lat_max_ms", all[len(all)-1]/1e3)
	lad.set("fail_share", float64(res.Failed)/float64(res.Attempted))
	res.Metrics = lad.m
	return res, writeTrace(e, rec, sp.name, seed)
}
