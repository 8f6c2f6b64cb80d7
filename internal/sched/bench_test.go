package sched

import (
	"fmt"
	"io"
	"strconv"
	"testing"
	"time"

	"querc/internal/core"
	"querc/internal/obs"
)

// benchWindow is the most queries a benchmark keeps outstanding: the bench
// harness's dispatch_armed closed-loop window.
const benchWindow = 2048

// benchPool pre-labels queries the way a Qworker would have annotated them:
// three resource classes, six clusters routed over two backends, a memory
// estimate and a runtime. It holds twice the window, so no query is ever in
// flight twice (Enqueue's caller owns the query's trace slot).
func benchPool() []*core.LabeledQuery {
	classes := [...]string{"light", "medium", "heavy"}
	pool := make([]*core.LabeledQuery, 2*benchWindow)
	for i := range pool {
		q := &core.LabeledQuery{SQL: fmt.Sprintf("select a, b from t%d where c = %d", i%97, i), App: "bench"}
		q.SetLabel("resource", classes[i%len(classes)])
		q.SetLabel("cluster", "cluster_0"+strconv.Itoa(1+i%6))
		q.SetLabel("runtimeMS", strconv.Itoa(10+i%300))
		q.SetLabel("memMB", strconv.Itoa(64+i%512))
		q.SetLabel("memoryMB", strconv.Itoa(64+i%512))
		pool[i] = q
	}
	return pool
}

// benchEnqueue drives b.N queries through Enqueue to completion in a closed
// loop of benchWindow outstanding, on 2 backends × 1 slot with a no-op
// executor under the label-driven policy; armed turns on every plane the
// bench harness's dispatch_armed workload arms (SLA, deadline, retry,
// breaker, memory-aware admission, metrics registry, audit to io.Discard,
// 1% tracing).
func benchEnqueue(b *testing.B, armed bool) {
	pool := benchPool()
	sem := make(chan struct{}, benchWindow)
	noop := func(*Task) error { return nil }
	cfg := Config{
		Policy: &LabelPolicy{Route: map[string]string{
			"cluster_01": "b1", "cluster_02": "b2", "cluster_03": "b1",
			"cluster_04": "b2", "cluster_05": "b1", "cluster_06": "b2",
		}},
		Backends:   []Backend{{Name: "b1", Slots: 1, Exec: noop}, {Name: "b2", Slots: 1, Exec: noop}},
		ClassOrder: []string{"light", "medium", "heavy"},
		QueueCap:   2 * benchWindow,
		OnDone:     func(*Task) { <-sem },
	}
	var tracer *obs.Tracer
	if armed {
		cfg.SLA = map[string]time.Duration{"light": 250 * time.Millisecond, "medium": time.Second, "heavy": 30 * time.Second}
		cfg.Deadline = time.Minute
		cfg.Retry = &RetryConfig{MaxRetries: 2}
		cfg.Breaker = &BreakerConfig{}
		cfg.MemoryAware = true
		for i := range cfg.Backends {
			cfg.Backends[i].MemoryMB = 1 << 20
		}
		cfg.Metrics = obs.NewRegistry()
		auditor := obs.NewAuditor(io.Discard)
		auditor.Register(cfg.Metrics)
		cfg.Audit = auditor
		tracer = obs.NewTracer(obs.TracerConfig{SampleRate: 0.01})
		tracer.Register(cfg.Metrics)
	}
	d, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sem <- struct{}{}
		q := pool[i%len(pool)]
		q.SetTrace(tracer.Begin(q.App, q.SQL))
		if err := d.Enqueue(q); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < cap(sem); i++ {
		sem <- struct{}{} // every token back means every completion delivered
	}
	b.StopTimer()
	d.Close()
	if err := d.Drain(time.Minute); err != nil {
		b.Fatal(err)
	}
	if st := d.Counters(); st.Submitted != uint64(b.N) || st.Completed != st.Submitted {
		b.Fatalf("ledger: submitted %d, completed %d, want %d", st.Submitted, st.Completed, b.N)
	}
}

// BenchmarkEnqueueArmed is one query from Enqueue through completion with
// every plane armed: the dispatch_armed shape, without the harness.
func BenchmarkEnqueueArmed(b *testing.B) { benchEnqueue(b, true) }

// BenchmarkEnqueueBare is the same drive with no plane armed: the queue and
// slot core the planes' tax is measured against.
func BenchmarkEnqueueBare(b *testing.B) { benchEnqueue(b, false) }
